"""Cycle structure and gauge reduction for loop-coupled photon-magnon systems.

Coupling phases are gauge degrees of freedom except for their sums around
closed loops.  This module extracts a fundamental cycle basis of the coupling
graph, computes the loop phases, and solves for per-mode phase rotations that
concentrate each loop phase onto a single chord edge, leaving every spanning
tree edge real.

Orientation convention: an edge traversed photon -> magnon contributes +phase
to a loop, magnon -> photon contributes -phase.  Loop phases are reported in
(-pi, pi].
"""

from dataclasses import dataclass

from .model import CouplingEdge, SystemModel, apply_vertex_phases, fold_phase


@dataclass(frozen=True)
class CouplingGraph:
    """Bipartite coupling graph over the modes that participate in edges.

    vertices keeps mode declaration order; adjacency lists neighbours in edge
    declaration order, as (neighbour label, edge index) pairs.
    """

    vertices: tuple[str, ...]
    photons: frozenset[str]
    edges: tuple[CouplingEdge, ...]
    adjacency: dict[str, tuple[tuple[str, int], ...]]


@dataclass(frozen=True)
class Cycle:
    """Closed walk generated by one chord edge.

    vertices lists the walk starting at the chord's photon; edges holds
    (edge index, orientation) with +1 for photon -> magnon traversal.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    chord: int


@dataclass(frozen=True)
class PhysicalPhase:
    theta: float
    cycle: Cycle


@dataclass(frozen=True)
class GaugeReduction:
    """Result of gauge reduction.

    Applying vertex_phases to the original system yields exactly the edge
    triples in reduced_edges; tree edges come out with zero phase and each
    chord carries its cycle's loop phase.
    """

    vertex_phases: dict[str, float]
    reduced_edges: tuple[tuple[str, str, float], ...]
    physical_phases: tuple[PhysicalPhase, ...]


def build_graph(system: SystemModel) -> CouplingGraph:
    """Build the coupling graph of a system, excluding isolated modes."""
    used = set()
    for edge in system.edges:
        used.add(edge.photon)
        used.add(edge.magnon)
    vertices = tuple(m.label for m in system.modes if m.label in used)
    adjacency: dict[str, list[tuple[str, int]]] = {v: [] for v in vertices}
    for idx, edge in enumerate(system.edges):
        adjacency[edge.photon].append((edge.magnon, idx))
        adjacency[edge.magnon].append((edge.photon, idx))
    return CouplingGraph(
        vertices=vertices,
        photons=frozenset(system.photon_labels()).intersection(vertices),
        edges=system.edges,
        adjacency={v: tuple(pairs) for v, pairs in adjacency.items()},
    )


def _forest(graph: CouplingGraph):
    """Depth-first spanning forest, one traversal per component from its smallest photon.

    Returns each vertex's gauge rotation, set where the traversal first
    reaches it, and the fundamental cycles in chord discovery order.  A chord
    is first met at its deeper end, while the other end is still on the
    traversal path, so its tree path is the tail of that path.
    """
    depth, via, rotation, cycles = {}, {}, {}, []
    for root in sorted(graph.photons):
        if root in depth:
            continue
        depth[root] = 0
        rotation[root] = 0.0
        path, stack = [root], [iter(graph.adjacency[root])]
        while stack:
            vertex = path[-1]
            other, idx = next(stack[-1], (None, None))
            if other is None:
                path.pop()
                stack.pop()
            elif other not in depth:
                depth[other] = len(path)
                via[other] = idx
                edge = graph.edges[idx]
                if other == edge.magnon:
                    rotation[other] = edge.phase + rotation[vertex]
                else:
                    rotation[other] = rotation[vertex] - edge.phase
                path.append(other)
                stack.append(iter(graph.adjacency[other]))
            elif depth[other] < depth[vertex] and idx != via[vertex]:
                cycles.append(_chord_cycle(graph, via, idx, path[depth[other]:]))
    return rotation, tuple(cycles)


def _chord_cycle(graph: CouplingGraph, via: dict, idx: int, path: list) -> Cycle:
    """The chord photon -> magnon, then the tree path from the magnon back.

    path runs down the traversal from the chord's shallower end to its deeper
    end; each step along it takes the deeper vertex's tree edge.
    """
    down = path[-1] == graph.edges[idx].photon
    walk = path if down else path[::-1]
    edges = [(idx, +1)]
    for here, there in zip(walk, walk[1:]):
        edge_idx = via[there if down else here]
        edges.append((edge_idx, +1 if here == graph.edges[edge_idx].photon else -1))
    return Cycle(vertices=(walk[-1], *walk[:-1]), edges=tuple(edges), chord=idx)


def cycle_basis(graph: CouplingGraph) -> tuple[Cycle, ...]:
    """Fundamental cycles of the coupling graph, one per chord edge."""
    return _forest(graph)[1]


def loop_phase(cycle: Cycle, graph: CouplingGraph) -> float:
    """Signed phase sum around a closed walk, folded into (-pi, pi]."""
    if len(cycle.vertices) != len(cycle.edges) or len(cycle.edges) < 2:
        raise ValueError("cycle is not a closed walk")
    total = 0.0
    n = len(cycle.vertices)
    for k, (edge_idx, orient) in enumerate(cycle.edges):
        edge = graph.edges[edge_idx]
        here, there = cycle.vertices[k], cycle.vertices[(k + 1) % n]
        forward = here == edge.photon and there == edge.magnon
        backward = here == edge.magnon and there == edge.photon
        if not (forward or backward) or orient != (+1 if forward else -1):
            raise ValueError("cycle is not a closed walk")
        total += orient * edge.phase
    return fold_phase(total)


def reduce_system(system: SystemModel) -> GaugeReduction:
    """Solve for vertex rotations that push all phases onto chord edges.

    Roots get zero rotation; each tree edge fixes its far endpoint so the
    rotated edge phase vanishes.  Chord edges then carry the loop phases of
    their fundamental cycles.
    """
    graph = build_graph(system)
    rotation, cycles = _forest(graph)
    vertex_phases = {v: fold_phase(rotation[v]) for v in graph.vertices}
    applied = apply_vertex_phases(system, vertex_phases)
    reduced_edges = tuple((e.photon, e.magnon, e.phase) for e in applied.edges)
    physical = tuple(PhysicalPhase(theta=loop_phase(cycle, graph), cycle=cycle) for cycle in cycles)
    return GaugeReduction(
        vertex_phases=vertex_phases,
        reduced_edges=reduced_edges,
        physical_phases=physical,
    )


def reduction_to_document(reduction: GaugeReduction) -> dict:
    """JSON-ready view of a gauge reduction."""
    return {
        "vertex_phases": dict(reduction.vertex_phases),
        "physical_phases": [
            {"theta_rad": p.theta, "cycle": list(p.cycle.vertices)}
            for p in reduction.physical_phases
        ],
    }
