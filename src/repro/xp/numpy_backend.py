"""The default ``numpy`` backend — bitwise-identical to the historical
direct-NumPy kernels.

Unknown attributes fall through to :mod:`numpy` (and are cached on the
instance), so the backend automatically satisfies the whole
:data:`repro.xp.contract.ARRAY_API_FUNCTIONS` surface; only the
:data:`repro.xp.contract.SHIM_FUNCTIONS` need explicit definitions.
The signature kernel keeps the scipy-sparse matrix products when scipy
is importable and drops to the dense fallback otherwise.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.xp.contract import MAX_FLAT_STRIDE
from repro.xp.fallback import DenseSignatureKernel


class ScipySignatureKernel:
    """Sparse signature-BFS state, lifted verbatim from the historical
    ``SignatureState`` internals so the numpy backend stays bit-exact.
    """

    def __init__(
        self, row_offsets, column_indices, n_nodes, labels, mask, n_labels
    ) -> None:
        sparse = scipy_sparse()
        n = int(n_nodes)
        adjacency = sparse.csr_matrix(
            (
                np.ones(np.asarray(column_indices).size, dtype=bool),
                np.asarray(column_indices),
                np.asarray(row_offsets),
            ),
            shape=(n, n),
        )
        self._adjacency = adjacency.astype(np.int32)
        labels = np.asarray(labels)
        mask = np.asarray(mask)
        rows = np.flatnonzero(mask)
        onehot_cols = labels[rows].astype(np.int64)
        self._label_onehot = sparse.csr_matrix(
            (
                np.ones(rows.size, dtype=np.int64),
                (rows, onehot_cols),
            ),
            shape=(n, n_labels),
        )
        self._visited = sparse.identity(n, dtype=bool, format="csr")
        self._frontier = sparse.identity(n, dtype=bool, format="csr")

    @property
    def frontier_count(self) -> int:
        """Nodes discovered at the latest ring, summed over the batch."""
        return int(self._frontier.nnz)

    def step(self):
        """One BFS ring for every node: (ring sizes, label-count delta)."""
        expanded = (self._frontier.astype(np.int32) @ self._adjacency).tocsr()
        expanded.data = np.ones_like(expanded.data)
        overlap = self._visited.astype(np.int32).multiply(expanded).tocsr()
        new_ring = (expanded - overlap).tocsr()
        new_ring.eliminate_zeros()
        new_ring = new_ring.astype(bool)
        self._visited = self._visited.maximum(new_ring).tocsr()
        self._frontier = new_ring
        ring_sizes = np.asarray(new_ring.sum(axis=1), dtype=np.int64).ravel()
        if not new_ring.nnz:
            return ring_sizes, None
        delta = (new_ring.astype(np.int64) @ self._label_onehot).toarray()
        return ring_sizes, delta

    def reachable_counts(self):
        """Nodes within the current radius of each node (excluding self)."""
        totals = np.asarray(self._visited.sum(axis=1), dtype=np.int64)
        return totals.ravel() - 1


@functools.cache
def scipy_sparse():
    """``scipy.sparse``, or ``None`` when scipy is not installed.

    Resolved once per process.  The cold import takes a noticeable
    fraction of a second, so :class:`~repro.pipeline.session.MatcherSession`
    calls this during setup when its runs will need the signature kernel,
    keeping the one-off cost out of the first filter stage.
    """
    try:
        from scipy import sparse
    except ImportError:
        return None
    return sparse


class NumpyBackend:
    """NumPy-backed implementation of the ``repro.xp`` contract."""

    name = "numpy"

    def __getattr__(self, attr: str):
        if attr.startswith("_"):
            raise AttributeError(attr)
        value = getattr(np, attr)
        object.__setattr__(self, attr, value)  # cache for next lookup
        return value

    # -- shims ----------------------------------------------------------

    def pack_bits(self, padded, word_bits: int):
        """LSB-first word packing of ``bool[n_rows, n_words * word_bits]``."""
        word_np = np.dtype(f"uint{word_bits}")
        n_rows = padded.shape[0]
        packed = np.packbits(
            padded.reshape(n_rows, -1, 8), axis=-1, bitorder="little"
        )
        return np.ascontiguousarray(
            packed.reshape(n_rows, -1).view(word_np)
        )

    def unpack_bits(self, words, n_bits: int, word_bits: int):
        """Inverse of :meth:`pack_bits` (trailing padding dropped)."""
        del word_bits  # byte view is width-agnostic on numpy
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        if as_bytes.ndim == 1:
            bits = np.unpackbits(as_bytes, bitorder="little")
            return bits[:n_bits].astype(bool)
        bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
        return bits[..., :n_bits].astype(bool)

    def view_u8(self, arr):
        """Little-endian byte reinterpretation of an unsigned array."""
        return np.ascontiguousarray(arr).view(np.uint8)

    def scatter_or(self, target, idx, values) -> None:
        """Grouped in-place OR (duplicate indices accumulate)."""
        np.bitwise_or.at(target, idx, values)

    def divmod_(self, a, b):
        """Simultaneous floor quotient and remainder."""
        return np.divmod(a, b)

    def popcount(self, arr):
        """Per-element population count."""
        return np.bitwise_count(arr)

    def checked_flat_stride(self, width):
        """``int64(width)`` guarded so flat keys ``u * width + v`` with
        ``u, v < width`` cannot wrap past 2^63."""
        width = int(width)
        if width > MAX_FLAT_STRIDE:
            raise OverflowError(
                f"flat edge keys overflow int64: width {width} exceeds "
                f"{MAX_FLAT_STRIDE}"
            )
        return np.int64(width)

    def signature_kernel(
        self, row_offsets, column_indices, n_nodes, labels, mask, n_labels
    ):
        """Batched neighborhood-signature BFS state."""
        if scipy_sparse() is not None:
            return ScipySignatureKernel(
                row_offsets, column_indices, n_nodes, labels, mask, n_labels
            )
        return DenseSignatureKernel(
            self, row_offsets, column_indices, n_nodes, labels, mask, n_labels
        )
