"""Write-ahead log for edge events: coordinator durability between publishes.

The multi-process tier's durability story before this module: worker
state is disposable (re-attach a published generation), but the
*coordinator's* engine — every ``apply_batch`` since the last
:meth:`~repro.serve.epochs.ArenaPublisher.publish` — lived only in
process memory.  A coordinator crash lost those updates.

:class:`WriteAheadLog` closes that window with the classic discipline:

* **Write-ahead**: each mutation appends one checksummed record — the
  edge events *plus the engine RNG state before the mutation* — and
  fsyncs it **before** the engine mutates (the hook in
  :meth:`repro.core.incremental.IncrementalPageRank.attach_wal`).
* **Truncate at publish**: a published snapshot durably contains
  everything the log described, so the frontend truncates the WAL right
  after each successful epoch publish.  The log is always exactly the
  tail since the last snapshot.
* **Recover** with :func:`recover_engine`: load the snapshot (writable),
  then replay each record through the *same* engine entry point that
  produced it (``apply_batch`` / ``add_edge`` / ``remove_edge``) with the
  recorded RNG state restored first.  Replay therefore consumes the
  identical random draws the pre-crash engine consumed — the recovered
  walk arenas are **bit-identical**, not merely distributionally correct
  (``tests/test_serve_recovery.py`` proves it differentially on every
  backend).

Record layout (little-endian)::

    +------+----------+---------+------------------+
    | WREC | len: u32 | crc: u32| payload (len B)  |
    +------+----------+---------+------------------+

The payload is UTF-8 JSON ``{"op", "events", "rng"}``.  A crash mid-append
leaves a *torn tail* — a final record that is short or fails its CRC.
Because records are fsync'd in order, everything before the first bad
record is intact; :func:`read_wal` stops there and reports the torn
bytes, and recovery replays the intact prefix.  The torn record's
mutation never returned to its caller (append happens first), so the
replayed prefix *is* the pre-crash acknowledged state.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InjectedFault, WalError
from repro.obs import MetricsRegistry, Tracer

__all__ = [
    "WriteAheadLog",
    "WalRecord",
    "WalReadResult",
    "RecoveryReport",
    "read_wal",
    "recover_engine",
]

_MAGIC = b"WREC"
_HEADER = struct.Struct("<4sII")  # magic, payload length, crc32(payload)

#: Known record operations → the engine method replay drives them through.
#: Replaying a batch as per-edge calls (or vice versa) would be
#: distributionally fine but not bit-identical — the op pins the code path.
_OPS = ("batch", "add", "remove")


def _encode_state(obj):
    """JSON-sanitize a numpy BitGenerator state dict (PCG64 is plain ints;
    Philox/SFC64 carry uint arrays — round-trip those explicitly)."""
    if isinstance(obj, dict):
        return {key: _encode_state(value) for key, value in obj.items()}
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": obj.tolist(), "dtype": str(obj.dtype)}
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _decode_state(obj):
    if isinstance(obj, dict):
        if "__ndarray__" in obj:
            return np.asarray(obj["__ndarray__"], dtype=obj["dtype"])
        return {key: _decode_state(value) for key, value in obj.items()}
    return obj


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL record: an attempted mutation and its RNG preimage."""

    op: str
    events: Tuple[Tuple[str, int, int], ...]
    rng_state: dict


@dataclass(frozen=True)
class WalReadResult:
    """Everything :func:`read_wal` learned about a log file."""

    records: Tuple[WalRecord, ...]
    valid_bytes: int
    torn_bytes: int

    @property
    def torn(self) -> bool:
        return self.torn_bytes > 0


@dataclass(frozen=True)
class RecoveryReport:
    """What :func:`recover_engine` replayed (for logs and assertions)."""

    records_replayed: int
    events_replayed: int
    torn_bytes: int


def read_wal(path) -> WalReadResult:
    """Decode ``path``, stopping cleanly at the first damaged record.

    A missing file reads as an empty log (a coordinator can crash before
    its first append).  Damage — short header, wrong magic, short
    payload, CRC mismatch, unparsable JSON — ends the scan: the fsync
    ordering guarantees every record *before* it is trustworthy and
    nothing after it is.  The damaged span is reported as ``torn_bytes``.
    """
    path = Path(path)
    if not path.exists():
        return WalReadResult(records=(), valid_bytes=0, torn_bytes=0)
    try:
        blob = path.read_bytes()
    except OSError as error:
        raise WalError(f"unreadable WAL {path}: {error}") from error
    records: List[WalRecord] = []
    offset = 0
    while offset < len(blob):
        header = blob[offset : offset + _HEADER.size]
        if len(header) < _HEADER.size:
            break
        magic, length, crc = _HEADER.unpack(header)
        if magic != _MAGIC:
            break
        payload = blob[offset + _HEADER.size : offset + _HEADER.size + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            break
        try:
            data = json.loads(payload.decode("utf-8"))
            op = data["op"]
            if op not in _OPS:
                raise ValueError(f"unknown op {op!r}")
            events = tuple(
                (str(kind), int(source), int(target))
                for kind, source, target in data["events"]
            )
            state = _decode_state(data["rng"])
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            # checksum passed but content is garbage: the writer was not
            # this module — stop trusting the file here, same as a tear
            break
        records.append(WalRecord(op=op, events=events, rng_state=state))
        offset += _HEADER.size + length
    return WalReadResult(
        records=tuple(records),
        valid_bytes=offset,
        torn_bytes=len(blob) - offset,
    )


class WriteAheadLog:
    """Append-only, checksummed, fsync'd log of engine edge events.

    Attach to a coordinator engine with
    :meth:`~repro.core.incremental.IncrementalPageRank.attach_wal`; the
    engine then calls :meth:`append` before every mutation.  Re-opening
    an existing log truncates any torn tail first, so appends always
    extend an intact prefix.  ``fsync=False`` trades the durability
    guarantee for speed (benchmarks only).  Thread-safe; idempotent
    :meth:`close`.
    """

    def __init__(
        self,
        path,
        *,
        fsync: bool = True,
        registry: Optional[MetricsRegistry] = None,
        fault_plan=None,
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.fault_plan = fault_plan
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._closed = False

        existing = read_wal(self.path)
        self._records = len(existing.records)
        if existing.torn:
            with open(self.path, "r+b") as fh:
                fh.truncate(existing.valid_bytes)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._fh = open(self.path, "ab")
        except OSError as error:
            raise WalError(f"cannot open WAL {self.path}: {error}") from error

        reg = self.registry
        self._m_records = reg.counter(
            "repro_wal_records_total", "Records appended to the WAL"
        )
        self._m_bytes = reg.counter(
            "repro_wal_bytes_total", "Bytes appended to the WAL"
        )
        self._m_truncations = reg.counter(
            "repro_wal_truncations_total",
            "WAL truncations (one per published snapshot)",
        )
        self._m_size = reg.gauge(
            "repro_wal_size_bytes", "Current WAL file size"
        )
        self._m_size.set(float(existing.valid_bytes))

    @property
    def records(self) -> int:
        """Records in the log since the last truncation."""
        with self._lock:
            return self._records

    @property
    def size_bytes(self) -> int:
        with self._lock:
            return self._fh.tell() if not self._closed else 0

    def append(
        self,
        op: str,
        events: Sequence[Tuple[str, int, int]],
        rng_state: dict,
    ) -> int:
        """Durably append one record; returns the record's index.

        The caller (the engine hook) invokes this **before** mutating, so
        a crash after return replays the mutation and a crash before
        return never acknowledged it — either way recovery converges on
        the acknowledged state.
        """
        if op not in _OPS:
            raise WalError(f"unknown WAL op {op!r}")
        payload = json.dumps(
            {
                "op": op,
                "events": [
                    [str(kind), int(source), int(target)]
                    for kind, source, target in events
                ],
                "rng": _encode_state(rng_state),
            }
        ).encode("utf-8")
        header = _HEADER.pack(_MAGIC, len(payload), zlib.crc32(payload))
        with self._lock:
            if self._closed:
                raise WalError(f"WAL {self.path} is closed")
            rule = (
                self.fault_plan.fire("wal.append")
                if self.fault_plan is not None
                else None
            )
            if rule is not None and rule.action == "torn":
                # simulate a crash mid-append: half the payload reaches
                # the disk, then the "process" dies
                self._fh.write(header + payload[: len(payload) // 2])
                self._fh.flush()
                os.fsync(self._fh.fileno())
                raise InjectedFault(
                    f"torn WAL append at record {self._records}"
                )
            self._fh.write(header + payload)
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            index = self._records
            self._records += 1
            self._m_records.inc()
            self._m_bytes.inc(float(len(header) + len(payload)))
            self._m_size.set(float(self._fh.tell()))
            return index

    def truncate(self) -> None:
        """Drop every record (the snapshot published above them is durable)."""
        with self._lock:
            if self._closed:
                return
            self._fh.seek(0)
            self._fh.truncate()
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            self._records = 0
            self._m_truncations.inc()
            self._m_size.set(0.0)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._fh.flush()
            finally:
                self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog(path={str(self.path)!r}, "
            f"records={self.records}, fsync={self.fsync})"
        )


def recover_engine(
    snapshot,
    wal_path,
    *,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    validate: bool = True,
):
    """Rebuild the coordinator engine: snapshot + WAL tail, bit-identical.

    ``snapshot`` is a snapshot *directory* (e.g. an
    :class:`~repro.serve.epochs.ArenaPublisher` generation), loaded
    writable via :func:`~repro.store.persistence.load_shared_engine`.
    Each intact WAL record is replayed through the engine method that
    wrote it, with the recorded RNG state restored first, so the
    recovered engine's walk arenas, graph, and RNG position all equal the
    pre-crash engine's.  A torn tail is skipped (see module docstring for
    why that is the correct state).

    The bit-identity is **relative to the checkpoint image**: a snapshot
    deliberately compacts the walk layout, so a store carrying
    mutation history serializes to a canonical-order image.  Replay is
    therefore bit-identical to a pre-crash engine whose layout matched
    its last checkpoint — which the serve tier guarantees by truncating
    the WAL at every publish (the snapshot that opens each WAL window is
    the recovery base for that window).  The recovered graph and RNG
    cursor are always exact; the walk state is the deterministic replay
    of the logged mutations onto the checkpoint image — a valid
    Algorithm 1 state regardless of the crashed process's layout
    history (``tests/test_backend_fuzz.py``'s ``crash_recover`` op
    exercises exactly this checkpoint-adoption contract).

    Returns ``(engine, RecoveryReport)``.
    """
    from repro.graph.arrival import ArrivalEvent
    from repro.store.persistence import load_shared_engine

    registry = registry if registry is not None else MetricsRegistry()
    tracer = tracer if tracer is not None else Tracer()
    engine = load_shared_engine(snapshot, validate=validate)

    result = read_wal(wal_path)
    span = (
        tracer.start_leaf(
            "wal.replay",
            records=len(result.records),
            torn_bytes=result.torn_bytes,
        )
        if tracer.enabled
        else None
    )
    m_replayed = registry.counter(
        "repro_wal_replayed_records_total", "WAL records replayed on recovery"
    )
    m_torn = registry.counter(
        "repro_wal_torn_tails_total", "Torn WAL tails dropped on recovery"
    )
    events_replayed = 0
    for record in result.records:
        engine.set_rng_state(record.rng_state)
        if record.op == "batch":
            engine.apply_batch(
                ArrivalEvent(kind, source, target)
                for kind, source, target in record.events
            )
        elif record.op == "add":
            ((_, source, target),) = record.events
            engine.add_edge(source, target)
        else:
            ((_, source, target),) = record.events
            engine.remove_edge(source, target)
        events_replayed += len(record.events)
        m_replayed.inc()
    if result.torn:
        m_torn.inc()
    tracer.finish_leaf(span)
    return engine, RecoveryReport(
        records_replayed=len(result.records),
        events_replayed=events_replayed,
        torn_bytes=result.torn_bytes,
    )
