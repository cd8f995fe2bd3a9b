"""Frozen CSR adjacency snapshots and the vectorized batch walker.

Simulating ``n·R`` reset walks one Python step at a time is far too slow for
realistic store sizes (the paper stores ~``10⁹`` walk steps).  The batch
walker here advances *all* active walks one step per numpy round:

* one vector of ε-coins decides which walks reset this round,
* one vector of uniform offsets picks each surviving walk's next neighbour
  straight out of the CSR ``indices`` arena,
* per-round (walk-id, node) pairs are accumulated and assembled into
  per-walk Python lists with a single ``lexsort`` at the end.

This keeps walk-store initialization at a few numpy passes per expected
segment length (``≈ 1/ε`` rounds), instead of millions of interpreter steps.
The same walker serves SALSA's alternating schedule: given the in-adjacency
too, its rounds alternate forward (coin, out-edge) and backward (in-edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.rng import RngLike, ensure_rng

__all__ = ["CSRGraph", "BatchWalkResult", "batch_reset_walks", "assemble_segments"]

#: End-reason codes shared with :mod:`repro.core.walks`.
END_RESET = 0
END_DANGLING = 1


@dataclass(frozen=True)
class CSRGraph:
    """Immutable compressed-sparse-row adjacency.

    ``indices[indptr[u]:indptr[u+1]]`` are the neighbours of ``u`` in the
    frozen direction.  Built via :meth:`repro.graph.digraph.DynamicDiGraph.to_csr`.
    """

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D arrays")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr does not delimit indices")

    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def degree(self, node: int) -> int:
        return int(self.indptr[node + 1] - self.indptr[node])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, node: int) -> np.ndarray:
        return self.indices[self.indptr[node] : self.indptr[node + 1]]


@dataclass
class BatchWalkResult:
    """Outcome of :func:`batch_reset_walks`.

    ``segments[i]`` is the node list of walk ``i`` (starting at its source);
    ``end_reasons[i]`` is :data:`END_RESET` or :data:`END_DANGLING`;
    ``capped`` counts walks truncated at the safety cap (statistically
    negligible for sane ε, but reported rather than hidden).
    """

    segments: list[list[int]]
    end_reasons: np.ndarray
    capped: int = 0

    def total_visits(self) -> int:
        return sum(len(segment) for segment in self.segments)


def batch_reset_walks(
    csr: CSRGraph,
    starts: Sequence[int],
    reset_probability: float,
    rng: RngLike = None,
    *,
    max_steps: Optional[int] = None,
    start_side: int = 0,
    in_csr: Optional[CSRGraph] = None,
) -> BatchWalkResult:
    """Run one reset walk from every entry of ``starts``, vectorized.

    Semantics (normative, see DESIGN.md §5): at each hub visit the walk
    first flips an ε-coin.  Heads (probability ``reset_probability``) ends
    the segment with reason ``RESET``.  Tails at a node with no out-edges
    ends it with reason ``DANGLING`` ("continue decided, step pending").
    Tails otherwise steps to a uniform random neighbour.

    Without ``in_csr`` every visit is a hub visit (PageRank, period 1).
    With it the walks alternate (SALSA, period 2): round ``r`` is on side
    ``(start_side + r) % 2``, and an authority round steps every walk over
    ``in_csr`` with no coin.

    ``max_steps`` caps segment length as a safety valve (default
    ``period · max(1000, 50/ε)``); capped walks are marked ``RESET`` and
    counted.
    """
    if not 0.0 < reset_probability <= 1.0:
        raise ValueError(
            f"reset_probability must be in (0, 1], got {reset_probability}"
        )
    generator = ensure_rng(rng)
    period = 1 if in_csr is None else 2
    if max_steps is None:
        max_steps = period * max(1000, int(50.0 / reset_probability))
    adjacency = (csr, in_csr)

    starts_arr = np.asarray(starts, dtype=np.int64)
    num_walks = len(starts_arr)
    end_reasons = np.zeros(num_walks, dtype=np.int8)
    if num_walks == 0:
        return BatchWalkResult(segments=[], end_reasons=end_reasons)

    active = np.arange(num_walks, dtype=np.int64)
    current = starts_arr.copy()
    round_ids: list[np.ndarray] = []
    round_nodes: list[np.ndarray] = []
    capped = 0

    for round_index in range(max_steps):
        side = (start_side + round_index) % period
        graph = adjacency[side]
        positions = current[active]
        if side == 0:
            continues = generator.random(active.size) >= reset_probability
        else:
            continues = np.ones(active.size, dtype=bool)
        degrees = graph.indptr[positions + 1] - graph.indptr[positions]
        dangling = continues & (degrees == 0)
        stepping = continues & (degrees > 0)

        end_reasons[active[dangling]] = END_DANGLING
        # RESET is the zero-initialized default for the coins < ε walks.

        if stepping.any():
            step_nodes = positions[stepping]
            step_degrees = degrees[stepping]
            offsets = (generator.random(step_nodes.size) * step_degrees).astype(
                np.int64
            )
            successors = graph.indices[graph.indptr[step_nodes] + offsets]
            stepping_ids = active[stepping]
            round_ids.append(stepping_ids)
            round_nodes.append(successors)
            current[stepping_ids] = successors
            active = stepping_ids
        else:
            active = active[:0]
            break

    if active.size:
        capped = int(active.size)
        end_reasons[active] = END_RESET

    segments = assemble_segments(starts_arr, round_ids, round_nodes)
    return BatchWalkResult(segments=segments, end_reasons=end_reasons, capped=capped)


def assemble_segments(
    starts: np.ndarray,
    round_ids: list[np.ndarray],
    round_nodes: list[np.ndarray],
) -> list[list[int]]:
    """Turn per-round (walk-id, node) pairs into per-walk node lists."""
    num_walks = len(starts)
    if not round_ids:
        return [[int(s)] for s in starts]
    all_ids = np.concatenate(round_ids)
    all_nodes = np.concatenate(round_nodes)
    all_rounds = np.concatenate(
        [np.full(ids.size, r, dtype=np.int64) for r, ids in enumerate(round_ids)]
    )
    order = np.lexsort((all_rounds, all_ids))
    sorted_ids = all_ids[order]
    sorted_nodes = all_nodes[order]
    counts = np.bincount(sorted_ids, minlength=num_walks)
    boundaries = np.cumsum(counts)[:-1]
    chunks = np.split(sorted_nodes, boundaries)
    return [
        [int(start), *map(int, chunk)] for start, chunk in zip(starts, chunks)
    ]
