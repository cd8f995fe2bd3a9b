"""Snapshot/restore for walk stores and engines: one format, one restore path.

A production PageRank Store is expensive to initialize (``nR/ε`` walk
steps) and must survive process restarts; §2.2's whole point is never
recomputing it.  A snapshot is a **directory** (DESIGN.md §8):
``manifest.json`` plus one raw uncompressed ``.npy`` file per array,
written by :func:`save_shared_snapshot` from a bare
:class:`~repro.core.walks.WalkIndex` or a whole
:class:`~repro.core.incremental.IncrementalPageRank` engine (graph +
parameters + store).  The same directory is opened two ways:

* **attached** (:func:`attach_walk_store` / :func:`attach_engine`): every
  arena is ``np.load(..., mmap_mode="r")``-mapped and adopted zero-copy,
  so N worker processes attached to one generation share a single set of
  physical pages through the OS page cache.  Attached stores are
  read-only — every mutator raises :class:`WalkStateError` — and updates
  flow through the coordinator, which publishes a fresh generation
  (:mod:`repro.serve.epochs`).
* **owned** (:func:`load_shared_engine`): the arrays are copied into
  private writable memory — what :func:`repro.serve.wal.recover_engine`
  restarts a coordinator from.

Both go through :func:`_restore`, so every check guards both: a missing,
truncated or inconsistent snapshot raises
:class:`~repro.errors.ConfigurationError` /
:class:`~repro.errors.WalkStateError` with a readable message instead of
leaking a numpy/json exception.  The visit index is never read from disk
— it is rebuilt (vectorized) from the segments — and a snapshot stores
segments compacted in id order, so a mutated store and its own image can
differ in arena layout (the checkpoint-image contract, DESIGN.md §15).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.core.columnar import ColumnarWalkStore
from repro.core.walks import END_DANGLING, WalkIndex
from repro.errors import ConfigurationError, WalkStateError
from repro.graph.digraph import DynamicDiGraph
from repro.store.social_store import SocialStore

if TYPE_CHECKING:  # engine import is deferred at runtime (circular import)
    from repro.core.incremental import IncrementalPageRank

__all__ = [
    "save_shared_snapshot",
    "attach_walk_store",
    "attach_engine",
    "load_shared_engine",
]

MANIFEST_NAME = "manifest.json"
#: The manifest's one version field (1-3 were the retired single-file formats).
FORMAT_VERSION = 4
KIND_STORE = "walk_store"
KIND_ENGINE = "incremental_pagerank"
#: Store arrays, in :meth:`ColumnarWalkStore.to_arrays` order.
_COLUMNS = (
    "segment_nodes",
    "segment_lengths",
    "segment_end_reasons",
    "segment_parities",
)
PathLike = Union[str, Path]


def _store_arrays(store: WalkIndex) -> dict[str, np.ndarray]:
    """Compacted export of ``store``: arena + per-segment columns.

    A :class:`ColumnarWalkStore` hands over its columns; any other
    :class:`WalkIndex` (the object-backed test oracle) is flattened
    segment by segment.
    """
    if isinstance(store, ColumnarWalkStore):
        columns = store.to_arrays()
    else:
        segments = [segment for _, segment in store.iter_segments()]
        columns = (
            np.asarray([n for s in segments for n in s.nodes], dtype=np.int64),
            np.asarray([len(s.nodes) for s in segments], dtype=np.int64),
            np.asarray([s.end_reason for s in segments], dtype=np.int8),
            np.asarray([s.parity_offset for s in segments], dtype=np.int8),
        )
    return dict(zip(_COLUMNS, columns))


def save_shared_snapshot(target, directory: PathLike) -> Path:
    """Write the snapshot *directory* for ``target``; returns its path.

    ``target`` is an :class:`IncrementalPageRank` engine or a bare
    :class:`WalkIndex`.  A side-tracking (SALSA) engine is refused before
    anything is written; its bare store round-trips.  Layout:
    ``manifest.json`` (parameters and the array listing) and one raw
    uncompressed ``.npy`` file per array, so readers can memory-map the
    arenas instead of decompressing private copies.

    Only the manifest write is atomic — publishers that swap generations
    under live readers must write into a fresh directory and flip a
    pointer afterward (:class:`repro.serve.epochs.ArenaPublisher` does
    exactly that).
    """
    from repro.core.incremental import IncrementalPageRank

    if isinstance(target, IncrementalPageRank) and target.walks.track_sides:
        # restore validates stored steps against the graph forward-only
        raise ConfigurationError(
            "cannot snapshot a side-tracking (SALSA) engine: restore checks "
            "forward steps only; snapshot its bare walk store instead"
        )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    if isinstance(target, IncrementalPageRank):
        store = target.walks
        graph = target.graph
        meta = {
            "kind": KIND_ENGINE,
            "num_nodes": graph.num_nodes,
            "reset_probability": target.reset_probability,
            "walks_per_node": target.walks_per_node,
            "reroute_policy": target.reroute_policy,
            "allow_self_loops": graph.allow_self_loops,
        }
        edges = graph.edge_list()
        arrays["edge_sources"] = np.asarray(
            [u for u, _ in edges], dtype=np.int64
        )
        arrays["edge_targets"] = np.asarray(
            [v for _, v in edges], dtype=np.int64
        )
    else:
        store = target
        meta = {"kind": KIND_STORE, "num_nodes": store.num_nodes}
    arrays.update(_store_arrays(store))
    meta["format_version"] = FORMAT_VERSION
    meta["track_sides"] = store.track_sides
    meta["arrays"] = sorted(arrays)
    for name, array in arrays.items():
        np.save(directory / f"{name}.npy", np.ascontiguousarray(array))
    manifest = directory / MANIFEST_NAME
    tmp = directory / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(meta, indent=2), encoding="utf-8")
    # the manifest lands last and atomically: a reader that can parse it
    # is guaranteed every array file it lists is fully written
    tmp.replace(manifest)
    return directory


def _read_manifest(directory: Path, expected_kind: str) -> dict:
    manifest = directory / MANIFEST_NAME
    if not directory.is_dir() or not manifest.is_file():
        raise ConfigurationError(
            f"{directory} is not a shared snapshot directory "
            f"(no {MANIFEST_NAME})"
        )
    try:
        meta = json.loads(manifest.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, OSError, UnicodeDecodeError) as error:
        raise WalkStateError(
            f"corrupt shared snapshot: unreadable manifest: {error}"
        ) from error
    if not isinstance(meta, dict):
        raise WalkStateError(
            "corrupt shared snapshot: manifest is not a mapping"
        )
    if meta.get("format_version") != FORMAT_VERSION:
        raise WalkStateError(
            f"unsupported shared snapshot format "
            f"{meta.get('format_version')!r}"
        )
    kinds = (expected_kind,) if expected_kind != KIND_STORE else (
        KIND_STORE,
        KIND_ENGINE,  # an engine snapshot contains a store
    )
    if meta.get("kind") not in kinds:
        raise WalkStateError(
            f"shared snapshot holds a {meta.get('kind')!r}, "
            f"expected {expected_kind!r}"
        )
    return meta


class _SnapshotArrays:
    """Array accessor over a snapshot directory (mmap'd, validated)."""

    def __init__(self, directory: Path, meta: dict) -> None:
        self._directory = directory
        listed = meta.get("arrays")
        if not isinstance(listed, list):
            raise WalkStateError(
                "corrupt shared snapshot: manifest lacks an array listing"
            )
        self._listed = set(listed)

    def __getitem__(self, key: str) -> np.ndarray:
        if key not in self._listed:
            raise WalkStateError(
                f"corrupt shared snapshot: missing array {key!r} "
                "(truncated manifest?)"
            )
        path = self._directory / f"{key}.npy"
        try:
            array = np.load(path, mmap_mode="r", allow_pickle=False)
        except FileNotFoundError:
            raise WalkStateError(
                f"corrupt shared snapshot: array file {path.name} is listed "
                "in the manifest but absent"
            ) from None
        except (ValueError, OSError, EOFError) as error:
            raise WalkStateError(
                f"corrupt shared snapshot: array {key!r} unreadable: {error}"
            ) from error
        # the owned path would otherwise cast (truncate) whatever it finds
        if array.ndim != 1 or array.dtype.kind != "i":
            raise WalkStateError(
                f"corrupt shared snapshot: array {key!r} is not a "
                "one-dimensional integer vector"
            )
        return array


def _build_store(data: _SnapshotArrays, meta: dict, *, copy: bool) -> WalkIndex:
    """The store a snapshot describes: private if ``copy``, else read-only."""
    num_nodes = int(meta["num_nodes"])
    track_sides = bool(meta["track_sides"])
    flat, lengths, reasons, parities = (data[name] for name in _COLUMNS)
    if int(lengths.sum()) != int(flat.size):
        raise WalkStateError("corrupt shared snapshot: arena length mismatch")
    build = ColumnarWalkStore.from_arrays if copy else ColumnarWalkStore.from_shared
    return build(
        flat, lengths, reasons, parities, num_nodes=num_nodes, track_sides=track_sides
    )


def _restore(
    directory: PathLike, kind: str, *, copy: bool, rng=None, validate: bool = True
):
    """The one restore path: manifest → graph → store → install → validate.

    ``kind`` is what the caller wants back — :data:`KIND_STORE` (a bare
    store; also found inside an engine snapshot) or :data:`KIND_ENGINE`.
    ``copy=False`` attaches read-only over the mmap'd arenas (workers);
    ``copy=True`` copies them into private writable memory (recovery).
    """
    from repro.core.incremental import IncrementalPageRank

    directory = Path(directory)
    meta = _read_manifest(directory, kind)
    data = _SnapshotArrays(directory, meta)
    try:
        if kind == KIND_STORE:
            return _build_store(data, meta, copy=copy)
        graph = DynamicDiGraph(
            int(meta["num_nodes"]), allow_self_loops=bool(meta["allow_self_loops"])
        )
        for source, target in zip(data["edge_sources"], data["edge_targets"]):
            graph.add_edge(int(source), int(target))
        store = _build_store(data, meta, copy=copy)
        engine = IncrementalPageRank(
            SocialStore(graph),
            reset_probability=float(meta["reset_probability"]),
            walks_per_node=int(meta["walks_per_node"]),
            reroute_policy=str(meta["reroute_policy"]),
            rng=rng,
        )
    except WalkStateError:
        raise
    except (ValueError, IndexError, TypeError, KeyError) as error:
        raise WalkStateError(f"corrupt shared snapshot: {error}") from error
    engine.adopt_store(store)
    if validate:
        _validate_against_graph(engine)
    return engine


def attach_walk_store(directory: PathLike) -> WalkIndex:
    """Attach read-only to the store inside a snapshot directory.

    The node arenas stay memory-mapped (zero-copy, shared across every
    attached process via the page cache); the visit index and per-segment
    columns are rebuilt privately.  The result is bit-identical to the
    saved store, but write-protected: every mutator raises
    :class:`WalkStateError`.  Engine snapshots are accepted too (they
    contain a store).
    """
    return _restore(directory, KIND_STORE, copy=False)


def attach_engine(
    directory: PathLike, *, rng=None, validate: bool = True
) -> "IncrementalPageRank":
    """Attach read-only to the engine inside a snapshot directory.

    The restored engine's walk store is the mmap-backed read-only attach
    of :func:`attach_walk_store`: queries work exactly as on an owned
    load (same RNG contract, bit-identical answers), while mutations
    (``apply``/``apply_batch``) raise :class:`WalkStateError` — workers
    serve, the coordinator owns the write path.  ``validate=False`` skips
    the O(total visits) graph-consistency check for fast worker swaps onto
    generations the coordinator just wrote.
    """
    return _restore(
        directory, KIND_ENGINE, copy=False, rng=rng, validate=validate
    )


def load_shared_engine(
    directory: PathLike, *, rng=None, validate: bool = True
) -> "IncrementalPageRank":
    """Load an **owned, writable** engine from a snapshot directory.

    The recovery counterpart of :func:`attach_engine`: same directory,
    same checks, but every array is copied out of the mmap into private
    memory, so the result accepts mutations (``apply_batch`` etc.).  This
    is what :func:`repro.serve.wal.recover_engine` restarts a coordinator
    from — a worker-style read-only attach could never replay the WAL
    tail.
    """
    return _restore(
        directory, KIND_ENGINE, copy=True, rng=rng, validate=validate
    )


def _validate_against_graph(engine: "IncrementalPageRank") -> None:
    """Vectorized snapshot-vs-graph consistency check (O(total visits))."""
    graph = engine.graph
    walks = engine.walks
    if walks.num_segments == 0:
        return
    segment_ids = range(walks.num_segments)
    views = [walks.segment_view(sid) for sid in segment_ids]
    lengths = np.fromiter((v.size for v in views), dtype=np.int64, count=len(views))
    flat = np.concatenate(views)
    ends = np.cumsum(lengths)
    # node ids must be in range *before* the integer edge-key encoding
    # below — an out-of-range id would alias onto a legitimate key
    if flat.size and (int(flat.min()) < 0 or int(flat.max()) >= graph.num_nodes):
        bad = int(flat[(flat < 0) | (flat >= graph.num_nodes)][0])
        raise WalkStateError(
            f"snapshot mismatch: segment visits node {bad} outside the "
            f"{graph.num_nodes}-node graph"
        )
    # every stored step must traverse an existing edge
    is_step = np.ones(flat.size, dtype=bool)
    is_step[ends - 1] = False
    step_positions = np.flatnonzero(is_step)
    step_sources = flat[step_positions]
    step_targets = flat[step_positions + 1]
    key_base = np.int64(max(graph.num_nodes, 1))
    edges = graph.edge_list()
    edge_keys = np.asarray([u * key_base + v for u, v in edges], dtype=np.int64)
    valid = np.isin(step_sources * key_base + step_targets, edge_keys)
    if not valid.all():
        first = int(np.flatnonzero(~valid)[0])
        raise WalkStateError(
            f"snapshot mismatch: segment step {int(step_sources[first])}->"
            f"{int(step_targets[first])} not in graph"
        )
    # dangling ends must sit at out-degree-zero nodes
    last_nodes = flat[ends - 1]
    reasons = np.fromiter(
        (walks.end_reason_of(sid) for sid in segment_ids),
        dtype=np.int8,
        count=walks.num_segments,
    )
    for index in np.flatnonzero(reasons == END_DANGLING).tolist():
        node = int(last_nodes[index])
        if graph.out_degree(node) != 0:
            raise WalkStateError(
                f"snapshot mismatch: DANGLING end at non-dangling node {node}"
            )
