"""Shared-memory tensor transport for the process-backed employee backend.

The process backend (:mod:`repro.distributed.procpool`) must move two
kinds of tensor payloads every update round: the chief's weight broadcast
(global parameters -> every worker) and each worker's gradient return
(local gradients -> chief).  Pickling those lists of float64 arrays
through a pipe would copy every byte twice per hop (serialize +
deserialize) and burn the wall-clock wins process parallelism exists to
buy, so both directions go through **preallocated**
:class:`multiprocessing.shared_memory.SharedMemory` slabs instead:

* one :class:`TensorSlab` per direction per worker, sized once from the
  parameter shapes (gradient shapes equal parameter shapes);
* a tiny int64 header ``(seq, episode, round, payload_elems)`` followed by
  one flat float64 payload laid out by :func:`repro.nn.unflatten_vector`
  (see :class:`SlabLayout`): the weight broadcast is written per
  parameter view, the gradient return as one vector;
* the command pipe provides the synchronization: a side only reads a slab
  after receiving the message that announces ``seq``, and the header
  ``seq`` is verified on read so stale or torn payloads are detected
  instead of silently consumed.

Lifecycle discipline (the acceptance criterion "no leaked segments"):

* the **creating** process (the chief) owns every segment: creation
  registers the slab in a module registry and an ``atexit`` hook unlinks
  whatever is still live at interpreter exit (normal exit *and*
  KeyboardInterrupt), guarded by the creator pid so a forked child that
  inherits the registry can never unlink the chief's segments;
* the **attaching** process (a worker) explicitly unregisters the segment
  from :mod:`multiprocessing.resource_tracker` — otherwise the tracker of
  an exiting worker "helpfully" destroys segments the chief still uses.

Segment names carry the ``repro-shm-<pid>-`` prefix so tests can scan
``/dev/shm`` for leaks attributable to one process.
"""

from __future__ import annotations

import atexit
import math
import os
import secrets
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..obs.log import get_logger

_LOG = get_logger(__name__)

__all__ = ["SHM_PREFIX", "SlabLayout", "SlabStale", "TensorSlab", "slab_name"]

#: Name prefix of every segment this module creates (leak tests scan for it).
SHM_PREFIX = "repro-shm"

#: Header layout: four int64 slots before the float64 payload.
HEADER_FIELDS = ("seq", "episode", "round", "payload_elems")
_HEADER_BYTES = len(HEADER_FIELDS) * np.dtype(np.int64).itemsize


class SlabStale(RuntimeError):
    """A slab read observed a header ``seq`` other than the expected one."""


def slab_name(index: int, kind: str) -> str:
    """A unique segment name: ``repro-shm-<pid>-e<index><kind>-<token>``.

    The pid is the *creator's* pid, so a leak scan can attribute segments
    to the process that owns them; the random token makes names unique
    across trainers in one process.
    """
    return f"{SHM_PREFIX}-{os.getpid()}-e{index}{kind}-{secrets.token_hex(4)}"


class SlabLayout:
    """An ordered list of float64 tensors as one payload vector, laid out
    by :func:`repro.nn.unflatten_vector`."""

    def __init__(self, shapes: Sequence[Tuple[int, ...]]):
        self.shapes: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(int(d) for d in shape) for shape in shapes
        )
        #: Total float64 elements in the payload.
        self.total_elems = sum(math.prod(shape) for shape in self.shapes)
        #: Total bytes including the header.
        self.total_bytes = _HEADER_BYTES + self.total_elems * np.dtype(np.float64).itemsize

    def __len__(self) -> int:
        return len(self.shapes)


# ----------------------------------------------------------------------
# Live-segment registry (creator side)
# ----------------------------------------------------------------------
#: name -> (creator pid, SharedMemory) for every segment this process created
#: and has not yet unlinked.
_LIVE: Dict[str, Tuple[int, shared_memory.SharedMemory]] = {}
_ATEXIT_REGISTERED = False


def _unlink_live_segments() -> None:
    """atexit hook: unlink every still-live segment *we* created.

    The pid guard matters because ``fork`` children inherit the module
    state; a worker must never unlink the chief's segments on its way out
    (multiprocessing's fork path skips ``atexit`` hooks, but the guard
    keeps this safe even for exotic exit paths).
    """
    pid = os.getpid()
    for name in list(_LIVE):
        creator, segment = _LIVE[name]
        if creator != pid:
            continue
        del _LIVE[name]
        _retrack(segment)
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:
            continue


def _register_live(name: str, segment: shared_memory.SharedMemory) -> None:
    global _ATEXIT_REGISTERED
    _LIVE[name] = (os.getpid(), segment)
    if not _ATEXIT_REGISTERED:
        atexit.register(_unlink_live_segments)
        _ATEXIT_REGISTERED = True


def _untrack(segment: shared_memory.SharedMemory) -> None:
    """Stop the resource tracker from unlinking an *attached* segment.

    CPython's tracker assumes whoever touches a segment owns it; an
    attaching worker exiting would otherwise unlink (or warn about) the
    chief's slab.  Ownership here is explicit: only the creator unlinks.
    """
    try:
        resource_tracker.unregister(segment._name, "shared_memory")  # type: ignore[attr-defined]
    except (AttributeError, KeyError, ValueError):
        _LOG.warning("could not unregister %s from the resource tracker", segment.name)


def _retrack(segment: shared_memory.SharedMemory) -> None:
    """Re-register a segment with the tracker just before unlinking it.

    With the ``fork`` start method every worker shares the creator's
    tracker process, so a worker's :func:`_untrack` removes the *shared*
    cache entry; ``SharedMemory.unlink`` then double-unregisters and the
    tracker prints a spurious ``KeyError`` traceback.  Re-adding the name
    (idempotent — the cache is a set) keeps the unlink clean without ever
    leaving a stale entry behind.
    """
    try:
        resource_tracker.register(segment._name, "shared_memory")  # type: ignore[attr-defined]
    except (AttributeError, ValueError):
        _LOG.warning("could not re-register %s with the resource tracker", segment.name)


class TensorSlab:
    """One shared-memory segment holding a header plus flat float64 tensors.

    Use :meth:`create` in the owning (chief) process and :meth:`attach` in
    workers; both sides agree on the layout via the parameter ``shapes``.
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        layout: SlabLayout,
        owner: bool,
    ):
        self.segment = segment
        self.layout = layout
        self.owner = owner
        self._closed = False
        self._header = np.ndarray(
            (len(HEADER_FIELDS),), dtype=np.int64, buffer=segment.buf, offset=0
        )
        self._payload = np.ndarray(
            (layout.total_elems,),
            dtype=np.float64,
            buffer=segment.buf,
            offset=_HEADER_BYTES,
        )
        self._views: List[np.ndarray] = nn.unflatten_vector(self._payload, layout.shapes)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.segment.name

    @property
    def nbytes(self) -> int:
        return self.layout.total_bytes

    @classmethod
    def create(cls, name: str, shapes: Sequence[Tuple[int, ...]]) -> "TensorSlab":
        """Allocate a new segment (registered for atexit unlink)."""
        layout = SlabLayout(shapes)
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=max(layout.total_bytes, 1)
        )
        _register_live(name, segment)
        slab = cls(segment, layout, owner=True)
        slab._header[:] = -1
        return slab

    @classmethod
    def attach(cls, name: str, shapes: Sequence[Tuple[int, ...]]) -> "TensorSlab":
        """Map an existing segment (worker side); never unlinks it."""
        layout = SlabLayout(shapes)
        segment = shared_memory.SharedMemory(name=name)
        _untrack(segment)
        return cls(segment, layout, owner=False)

    # ------------------------------------------------------------------
    def write(
        self,
        arrays: Sequence[np.ndarray],
        seq: int,
        episode: int = -1,
        round_index: int = -1,
    ) -> int:
        """Copy ``arrays`` into the slab and stamp the header; returns bytes.

        The payload is written before the header so a reader that checks
        ``seq`` (after pipe synchronization) never sees a stamped header
        over torn data.
        """
        if len(arrays) != len(self._views):
            raise ValueError(
                f"slab holds {len(self._views)} tensors, got {len(arrays)}"
            )
        for view, array in zip(self._views, arrays):
            if np.shape(array) != view.shape:
                raise ValueError(
                    f"shape mismatch writing slab: got {np.shape(array)}, "
                    f"slab expects {view.shape}"
                )
            view[...] = array
        return self._stamp(seq, episode, round_index)

    def write_vector(
        self,
        vector: np.ndarray,
        seq: int,
        episode: int = -1,
        round_index: int = -1,
    ) -> int:
        """:meth:`write` of the whole payload as one flat vector."""
        if vector.shape != self._payload.shape:
            raise ValueError(
                f"shape mismatch writing slab: got {vector.shape}, "
                f"slab expects {self._payload.shape}"
            )
        self._payload[...] = vector
        return self._stamp(seq, episode, round_index)

    def _stamp(self, seq: int, episode: int, round_index: int) -> int:
        """Stamp the header after the payload write; returns bytes."""
        self._header[1] = episode
        self._header[2] = round_index
        self._header[3] = self.layout.total_elems
        self._header[0] = seq
        return self.nbytes

    def _check(self, expected_seq: int) -> None:
        seq = int(self._header[0])
        if seq != expected_seq:
            raise SlabStale(
                f"slab {self.name}: header seq {seq} != expected {expected_seq}"
            )

    def read(self, expected_seq: int, copy: bool = True) -> List[np.ndarray]:
        """The tensor list stamped with ``expected_seq``.

        ``copy=False`` returns live views into the slab — only safe when
        the consumer finishes with them before the next write (the
        worker's parameter sync copies into ``p.data`` immediately).
        """
        self._check(expected_seq)
        if not copy:
            return list(self._views)
        return [view.copy() for view in self._views]

    def read_vector(self, expected_seq: int) -> np.ndarray:
        """A copy of the whole payload stamped with ``expected_seq``."""
        self._check(expected_seq)
        return self._payload.copy()

    def header(self) -> Dict[str, int]:
        """The current header as a dict (diagnostics and tests)."""
        return {field: int(value) for field, value in zip(HEADER_FIELDS, self._header)}

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (both sides)."""
        if self._closed:
            return
        self._closed = True
        # Release the exported numpy views before closing the mapping.
        self._views = []
        self._header = None  # type: ignore[assignment]
        self._payload = None  # type: ignore[assignment]
        try:
            self.segment.close()
        except (BufferError, OSError):
            _LOG.warning("could not close shared-memory segment %s", self.name)

    def unlink(self) -> None:
        """Destroy the segment (creator side only; idempotent)."""
        self.close()
        if not self.owner:
            return
        _LIVE.pop(self.name, None)
        _retrack(self.segment)
        try:
            self.segment.unlink()
        except FileNotFoundError:
            return
