"""Sparsity patterns frozen once and refilled with new values per iteration."""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class FrozenCsc:
    """CSC structure of COO entries whose positions never change.

    The entries are sorted column-major once, and the runs of duplicate
    positions located; each refill then costs one gather and one
    ``np.add.reduceat`` over a value array laid out like the ``rows`` and
    ``cols`` given here.  Entries with a negative row or column are
    dropped (their values are still expected, and ignored).  ``rows`` and
    ``cols`` of the stored entries, in CSC order, are public, and so is
    ``slots`` (computed on first use), the stored entry each given entry
    lands on.
    """

    def __init__(self, rows, cols, shape):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        kept = np.flatnonzero((rows >= 0) & (cols >= 0))
        key = cols[kept] * shape[0] + rows[kept]
        sort = np.argsort(key, kind="stable")
        key = key[sort]
        new_run = np.ones(len(key), dtype=bool)
        new_run[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(new_run)
        self.shape = shape
        self._order = kept[sort]
        self._n_given = len(rows)
        self._new_run = new_run
        self._starts = starts
        self._key = key[starts]
        self.rows = self._key % shape[0]
        self.cols = self._key // shape[0]
        self._indices = self.rows.astype(np.int32)
        self._indptr = np.searchsorted(
            self.cols, np.arange(shape[1] + 1)
        ).astype(np.int32)

    @cached_property
    def slots(self) -> np.ndarray:
        """Stored-entry index of each given entry, -1 where dropped."""
        slots = np.full(self._n_given, -1, dtype=np.int64)
        slots[self._order] = np.cumsum(self._new_run) - 1
        return slots

    def sum(self, data: np.ndarray) -> np.ndarray:
        """Values summed onto the stored entries, in CSC order."""
        if not len(self._starts):
            return np.zeros(0, dtype=data.dtype)
        return np.add.reduceat(data[self._order], self._starts)

    def matrix(self, summed: np.ndarray) -> sp.csc_matrix:
        """The matrix holding already-summed values (see :meth:`sum`)."""
        return sp.csc_matrix(
            (summed, self._indices, self._indptr), shape=self.shape
        )

    def assemble(self, data: np.ndarray) -> sp.csc_matrix:
        return self.matrix(self.sum(data))

    def position(self, rows, cols) -> np.ndarray:
        """Stored-entry index of each (row, col); all must be stored."""
        want = np.asarray(cols, dtype=np.int64) * self.shape[0] + np.asarray(rows)
        pos = np.searchsorted(self._key, want)
        if np.any(pos >= len(self._key)) or not np.array_equal(self._key[pos], want):
            raise ValueError("position is not in the pattern")
        return pos


class KeptOrderLu:
    """LU factors of one :class:`FrozenCsc` pattern in a column order kept
    from an earlier factor of it.

    ``perm_c`` is the column order SuperLU chose for one matrix of the
    pattern (``splu(...).perm_c``, COLAMD by default), which depends on
    the pattern alone.  It is applied as the symmetric permutation
    P A P^T, P from ``perm_c``: stored entry (r, c) moves to
    (perm_c[r], perm_c[c]).  One sort of the moved positions gives the
    permuted CSC layout and the map that gathers its values from the
    pattern's, both built here once.  Each :meth:`factor` refills that one
    permuted matrix in place and factors it in natural order, so the
    ordering never runs again; partial pivoting keeps SuperLU's default
    threshold.
    """

    def __init__(self, pattern: FrozenCsc, perm_c: np.ndarray):
        n = pattern.shape[0]
        perm_c = perm_c.astype(np.int64)
        rows, cols = perm_c[pattern.rows], perm_c[pattern.cols]
        self._gather = gather = np.argsort(cols * n + rows)
        self._order = np.empty_like(perm_c)
        self._order[perm_c] = np.arange(n)
        self._inverse = perm_c
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
        self._permuted = sp.csc_matrix(
            (np.empty(len(gather)), rows[gather].astype(np.int32), indptr),
            shape=pattern.shape,
        )
        # sorted and duplicate-free by construction; saves splu the check
        self._permuted.has_canonical_format = True

    def factor(self, values: np.ndarray):
        """LU-factor the pattern's matrix holding ``values`` (its stored
        entries, in CSC order); returns its ``solve``.

        A singular matrix raises SuperLU's ``RuntimeError``.
        """
        np.take(values, self._gather, out=self._permuted.data)
        lu = spla.splu(self._permuted, permc_spec="NATURAL")
        p, q = self._order, self._inverse
        return lambda rhs: lu.solve(rhs[p])[q]
