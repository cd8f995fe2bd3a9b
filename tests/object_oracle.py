"""The ``"object"`` lane of the snapshot differentials.

Snapshots restore as columnar stores only; the reference
:class:`~repro.core.walks.WalkStore` survives as the differential oracle.
"""

from __future__ import annotations

from repro.core.walks import WalkStore


def rehome_as_object(engine):
    """Re-home a restored engine's segments into a :class:`WalkStore`.

    Replays ``add_segment`` in id order, rebuilding the visit index by
    construction — the state a native object-backend load would produce.
    """
    loaded = engine.walks
    store = WalkStore(loaded.num_nodes, track_sides=loaded.track_sides)
    for _, segment in loaded.iter_segments():
        store.add_segment(segment)
    engine.store_backend = "object"
    engine.adopt_store(store)
    return engine


def object_arrays(store: WalkStore):
    """``ColumnarWalkStore.to_arrays()`` as the object store would give it:
    plain lists ``(flat, lengths, end_reasons, parities)`` in id order."""
    flat, lengths, reasons, parities = [], [], [], []
    for _, segment in store.iter_segments():
        flat.extend(segment.nodes)
        lengths.append(len(segment.nodes))
        reasons.append(segment.end_reason)
        parities.append(segment.parity_offset)
    return flat, lengths, reasons, parities
