"""Sparsity patterns frozen once and refilled with new values per iteration."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class FrozenCsc:
    """CSC structure of COO entries whose positions never change.

    The entries are sorted column-major once, and the runs of duplicate
    positions located; each refill then costs one gather and one
    ``np.add.reduceat`` over a value array laid out like the ``rows`` and
    ``cols`` given here.  Entries with a negative row or column are
    dropped (their values are still expected, and ignored).  ``rows`` and
    ``cols`` of the stored entries, in CSC order, are public.
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
        self._starts = starts
        self._key = key[starts]
        self.rows = self._key % shape[0]
        self.cols = self._key // shape[0]
        self._indices = self.rows.astype(np.int32)
        self._indptr = np.searchsorted(
            self.cols, np.arange(shape[1] + 1)
        ).astype(np.int32)

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
