"""Structural checker for task graphs, used by the tests.

:meth:`TaskGraph.validate` covers the cheap invariants the product
relies on, and :func:`repro.simulator.build_dag` rejects a rank with no
compute task.  :func:`deep_validate` adds the deeper invariants the
tracer and the builder are expected to keep:

* per-rank program order forms a single chain from INIT to FINALIZE;
* every rank owns at least one compute edge (a rank with no work would make
  the power attribution of slack ill-defined);
* graph is weakly connected;
* message edges never connect two events of the same rank (those would be
  program-order artifacts with nonzero cost).
"""

from __future__ import annotations

from repro.dag import TaskGraph

__all__ = ["deep_validate"]


def deep_validate(graph: TaskGraph) -> None:
    """Raise ValueError on any structural defect beyond the basic checks."""
    graph.validate()
    if graph.n_vertices > 1 and not _weakly_connected(graph):
        raise ValueError("task graph is not weakly connected")

    ranks_with_work = {e.rank for e in graph.compute_edges()}
    missing = set(range(graph.n_ranks)) - ranks_with_work
    if missing:
        raise ValueError(f"ranks with no compute edges: {sorted(missing)}")

    for e in graph.message_edges():
        src_v, dst_v = graph.vertices[e.src], graph.vertices[e.dst]
        same_rank = (
            src_v.rank is not None
            and src_v.rank == dst_v.rank
            and e.duration_s > 0.0
        )
        if same_rank:
            raise ValueError(
                f"message edge {e.id} with nonzero duration connects two "
                f"events of rank {src_v.rank}"
            )

    _check_rank_chains(graph)


def _weakly_connected(graph: TaskGraph) -> bool:
    """Breadth-first search over edges taken in both directions."""
    neighbours: list[list[int]] = [[] for _ in graph.vertices]
    for e in graph.edges:
        neighbours[e.src].append(e.dst)
        neighbours[e.dst].append(e.src)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in neighbours[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == graph.n_vertices


def _check_rank_chains(graph: TaskGraph) -> None:
    """Each rank's events must be totally ordered by the program-order edges.

    We verify that each rank's compute edges form a chain: the destination
    of one is connected (possibly through shared vertices) before the
    source of the next according to a topological order.
    """
    order = {vid: i for i, vid in enumerate(graph.topological_order())}
    for rank in range(graph.n_ranks):
        edges = graph.rank_edges(rank)
        for prev, nxt in zip(edges, edges[1:]):
            if order[prev.dst] > order[nxt.src]:
                raise ValueError(
                    f"rank {rank}: compute edges {prev.id} and {nxt.id} are "
                    "not program-ordered"
                )
