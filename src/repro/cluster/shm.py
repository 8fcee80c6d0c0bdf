"""Shared-memory CSR-GO transport for host-parallel workers.

The historical parallel driver pickled the Python graph lists into every
worker — O(batch) serialization per process, repeated on every dispatch.
CSR-GO is five flat arrays, which is exactly what
:mod:`multiprocessing.shared_memory` is for: the parent exports each batch
into one shared block, workers receive a tiny picklable
:class:`ShmHandle` (name + array layout) and **map** the arrays instead of
deserializing them — once per worker process, cached for its lifetime.

Safety model:

* The attached :class:`~repro.core.csrgo.CSRGO` holds read-only views
  into the shared buffer; per-chunk batches are carved out with
  :meth:`~repro.core.csrgo.CSRGO.slice_graphs`, which *copies*, so
  results shipped back to the parent never reference the shared block.
* The parent owns the block: workers ``close()`` their mapping (or just
  exit), the parent ``unlink()``s after the pool drains.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.core.csrgo import CSRGO

#: CSR-GO array fields, in their fixed layout order within the block.
CSRGO_FIELDS = (
    "graph_offsets",
    "row_offsets",
    "column_indices",
    "labels",
    "adj_edge_labels",
)


@dataclass(frozen=True)
class ShmHandle:
    """Picklable descriptor of one exported CSR-GO batch.

    Attributes
    ----------
    name:
        OS name of the shared-memory block.
    layout:
        Per field: ``(dtype string, byte offset, element count)``, in
        :data:`CSRGO_FIELDS` order.
    content_hash:
        The batch's :meth:`~repro.core.csrgo.CSRGO.content_hash`, carried
        along so the worker's artifact fingerprints need no re-hash of the
        mapped arrays.  The batch's :attr:`~repro.core.csrgo.CSRGO.derived`
        cache does not travel: each attached batch builds its own.
    """

    name: str
    layout: tuple[tuple[str, int, int], ...]
    content_hash: str


class SharedCSRGO:
    """Parent-side owner of a CSR-GO batch exported to shared memory.

    Use as a context manager around the worker-pool lifetime::

        with SharedCSRGO(data_csrgo) as shared:
            pool.map(worker, [(shared.handle, ...) for ...])

    Exiting closes *and unlinks* the block.
    """

    def __init__(self, csrgo: CSRGO) -> None:
        arrays = [getattr(csrgo, f) for f in CSRGO_FIELDS]
        total = sum(a.nbytes for a in arrays)
        # Zero-size blocks are rejected by the OS; keep one spare byte.
        self._shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
        layout = []
        offset = 0
        for field_name, arr in zip(CSRGO_FIELDS, arrays):
            dest = np.ndarray(arr.shape, dtype=arr.dtype, buffer=self._shm.buf, offset=offset)
            dest[...] = arr
            layout.append((arr.dtype.str, offset, int(arr.size)))
            offset += arr.nbytes
        self.handle = ShmHandle(
            name=self._shm.name,
            layout=tuple(layout),
            content_hash=csrgo.content_hash(),
        )
        self.nbytes = total

    def close(self) -> None:
        """Drop the parent's mapping (workers may still hold theirs)."""
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the block (after every worker is done)."""
        self._shm.unlink()

    def __enter__(self) -> "SharedCSRGO":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        # Unlinking twice (or after an explicit unlink()) is fine.
        with suppress(FileNotFoundError):
            self.unlink()


def attach_csrgo(handle: ShmHandle) -> tuple[CSRGO, shared_memory.SharedMemory]:
    """Map an exported batch; returns the batch and its keep-alive mapping.

    The returned ``CSRGO``'s arrays are *read-only views* into the shared
    block — the caller must keep the returned ``SharedMemory`` referenced
    for as long as the batch (or any view of it) is alive, then
    ``close()`` it.  Prefer :func:`attached_csrgo`, which caches both per
    process.

    Resource-tracker note: on 3.11 attaching registers the name again,
    but with fork-start workers the tracker process is shared with the
    parent and its registry is a *set*, so the re-registration is a no-op
    and the parent's ``unlink()`` deregisters exactly once.  Workers must
    therefore NOT unregister themselves — doing so strips the parent's
    entry and later unregisters fail loudly.
    """
    shm = shared_memory.SharedMemory(name=handle.name)
    views = []
    for (dtype_str, offset, size) in handle.layout:
        view = np.ndarray(
            (size,), dtype=np.dtype(dtype_str), buffer=shm.buf, offset=offset
        )
        view.flags.writeable = False
        views.append(view)
    csrgo = CSRGO(*views)
    # Seed the cached identity so fingerprints need no re-hash.
    csrgo._content_hash = handle.content_hash
    return csrgo, shm


#: Per-process cache of attached batches (one mapping per block per
#: worker, however many chunks it processes).
_ATTACHED: dict[str, tuple[CSRGO, shared_memory.SharedMemory]] = {}


def attached_csrgo(handle: ShmHandle) -> CSRGO:
    """Process-cached :func:`attach_csrgo` — the worker-side entry point."""
    entry = _ATTACHED.get(handle.name)
    if entry is None:
        entry = attach_csrgo(handle)
        _ATTACHED[handle.name] = entry
    return entry[0]


def detach_all() -> None:
    """Close every cached mapping (tests; workers may also just exit)."""
    while _ATTACHED:
        _, (csrgo, shm) = _ATTACHED.popitem()
        del csrgo
        shm.close()
