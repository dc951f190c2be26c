"""Sparsity patterns frozen once and refilled with new values per iteration."""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# SuperLU's column mode: no panels of columns updated together and no
# relaxed supernodes (see FrozenCsc.factor).
COLUMN_MODE = {"panel_size": 1, "relax": 1}


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

    ``perm_c`` is the column order of the pattern's first LU factor (None
    before it), which depends on the pattern alone; every later
    :meth:`factor` reuses it.  ``permc_spec`` is the SuperLU ordering that
    finds it, fixed by the code that builds the pattern:

    - ``"MMD_AT_PLUS_A"``, minimum degree on the pattern of A + A^T, for
      the Newton Jacobian.  That matrix is structurally symmetric (the
      Y-bus pattern in 2x2 blocks, plus the PV rows and their matching
      columns), the case symmetric minimum-degree orders were made for
      (Tinney & Walker, Proc. IEEE 55(11), 1967; Amestoy, Davis & Duff,
      SIAM J. Matrix Anal. Appl. 17(4), 1996).  Its factors hold less fill
      than COLAMD's on the IEEE cases and on case57 tilings up to 3,648
      buses, and factor faster.
    - ``"COLAMD"`` (Davis, Gilbert, Larimore & Ng, ACM TOMS 30(3), 2004),
      the default, for the IPM's KKT matrix.  Its (2,2) block is zero, so
      the pivots leave the diagonal and an order of A + A^T no longer
      bounds the fill: on a 3,648-bus KKT it took 30-34M entries against
      COLAMD's 1.2M.  COLAMD orders the columns for A^T A, whose factor
      bounds L and U under any row pivoting.

    ``fill`` is the number of entries SuperLU stores for L and U
    (``SuperLU.nnz``) in the newest factor, 0 before the first.
    """

    perm_c = None
    fill = 0

    def __init__(self, rows, cols, shape, permc_spec="COLAMD"):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        kept = ((rows | cols) >= 0).nonzero()[0]  # neither negative
        key = cols[kept] * shape[0] + rows[kept]
        # a stable sort of keys that fit 16 bits is a radix sort
        sort = (key.astype(np.uint16) if shape[0] * shape[1] <= 1 << 16
                else key).argsort(kind="stable")
        key = key[sort]
        new_run = np.empty(len(key), dtype=bool)
        new_run[:1] = True
        np.not_equal(key[1:], key[:-1], out=new_run[1:])
        starts = new_run.nonzero()[0]
        self.shape = shape
        self.permc_spec = permc_spec
        self._order = order = kept[sort]
        self._n_given = len(rows)
        self._new_run = new_run
        self._starts = starts
        self._key = key[starts]
        first = order[starts]  # the first given entry of each stored one
        self.rows, self.cols = rows[first], cols[first]
        self._indices = self.rows.astype(np.int32)
        self._indptr = self.cols.searchsorted(
            np.arange(shape[1] + 1)).astype(np.int32)

    @cached_property
    def slots(self) -> np.ndarray:
        """Stored-entry index of each given entry, -1 where dropped."""
        slots = np.full(self._n_given, -1, dtype=np.int64)
        slots[self._order] = self._new_run.cumsum() - 1
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

    @cached_property
    def refilled(self) -> sp.csc_matrix:
        """The matrix of the pattern that :meth:`factor` copies the values
        of its first factor into.  A caller that refills its own matrix of
        the pattern in place can set it here, so that factoring its
        ``data`` builds no matrix."""
        return self.matrix(np.zeros(len(self._key)))

    def factor(self, values: np.ndarray):
        """LU-factor the matrix holding ``values`` (its stored entries, in
        CSC order); returns its ``solve``.

        The first call orders the columns by the pattern's ``permc_spec``
        and records that order in ``perm_c``.  A later call runs
        no ordering: it refills one symmetrically permuted matrix P A P^T,
        P from ``perm_c``, in place and factors it in natural order with
        SuperLU's default pivoting threshold.  A singular matrix raises
        SuperLU's ``RuntimeError``.

        Every factor runs in SuperLU's column mode (``COLUMN_MODE``): one
        column at a time, with no relaxed supernodes.  Panels and relaxed
        supernodes (Demmel, Eisenstat, Gilbert, Li & Liu, SIAM J. Matrix
        Anal. Appl. 20(3), 1999) pay off when the factors hold wide dense
        column blocks.  Grid Jacobians and KKT matrices stay too sparse
        for that: column mode factored each one timed faster, from case57
        to 3,648 buses.  KLU leaves out supernodes for circuit matrices
        for the same reason (Davis & Palamadai Natarajan, ACM TOMS 37(3),
        2010).  The column order and the pivoting threshold stay as they
        are.
        """
        if self.perm_c is not None:
            values.take(self._gather, out=self._permuted.data)
            lu = spla.splu(self._permuted, permc_spec="NATURAL", **COLUMN_MODE)
            self.fill = lu.nnz
            p, q = self._to_permuted, self.perm_c
            return lambda rhs: lu.solve(rhs[p])[q]
        np.copyto(self.refilled.data, values)
        lu = spla.splu(self.refilled, permc_spec=self.permc_spec, **COLUMN_MODE)
        self.fill = lu.nnz
        # a copy: the array SuperLU hands out keeps the whole factor alive
        self.perm_c = lu.perm_c.astype(np.int64)
        self._permute()  # laid out now, for the next factor
        return lu.solve

    def _permute(self) -> None:
        """Lay out P A P^T for :meth:`factor`: stored entry (r, c) moves to
        (perm_c[r], perm_c[c]), and one sort of the moved positions gives
        the CSC layout and the map that gathers its values."""
        n, perm_c = self.shape[0], self.perm_c
        rows, cols = perm_c[self.rows], perm_c[self.cols]
        self._gather = gather = np.argsort(cols * n + rows)
        self._to_permuted = np.empty_like(perm_c)
        self._to_permuted[perm_c] = np.arange(n)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.bincount(cols, minlength=n).cumsum(out=indptr[1:])
        self._permuted = sp.csc_matrix(
            (np.empty(len(gather)), rows[gather].astype(np.int32), indptr),
            shape=self.shape,
        )
        # sorted and duplicate-free by construction; saves splu the check
        self._permuted.has_canonical_format = True
