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

from __future__ import annotations

from dataclasses import dataclass

from .model import CouplingEdge, SystemModel, apply_vertex_phases, fold_phase

__all__ = [
    "CouplingGraph",
    "Cycle",
    "PhysicalPhase",
    "GaugeReduction",
    "build_graph",
    "cycle_basis",
    "loop_phase",
    "reduce_system",
    "reduction_to_document",
]


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
        photons=frozenset(v for v in vertices if v in set(system.photon_labels())),
        edges=system.edges,
        adjacency={v: tuple(pairs) for v, pairs in adjacency.items()},
    )


class _SpanningForest:
    """Depth-first spanning forest with chords in discovery order."""

    def __init__(self, graph: CouplingGraph):
        self.graph = graph
        self.parent: dict[str, str | None] = {}
        self.parent_edge: dict[str, int] = {}
        self.chords: list[int] = []
        # each vertex's gauge rotation, set where the traversal first reaches it
        self.rotation: dict[str, float] = {}
        seen_chords = set()
        visited = set()
        # one traversal per component, rooted at its smallest photon label
        for root in sorted(graph.photons):
            if root in visited:
                continue
            self.parent[root] = None
            self.rotation[root] = 0.0
            visited.add(root)
            stack = [(root, iter(graph.adjacency[root]))]
            while stack:
                vertex, neighbours = stack[-1]
                advanced = False
                for other, idx in neighbours:
                    if idx == self.parent_edge.get(vertex):
                        continue
                    if other in visited:
                        if idx not in seen_chords:
                            seen_chords.add(idx)
                            self.chords.append(idx)
                        continue
                    visited.add(other)
                    self.parent[other] = vertex
                    self.parent_edge[other] = idx
                    phase = graph.edges[idx].phase
                    if other == graph.edges[idx].magnon:
                        self.rotation[other] = phase + self.rotation[vertex]
                    else:
                        self.rotation[other] = self.rotation[vertex] - phase
                    stack.append((other, iter(graph.adjacency[other])))
                    advanced = True
                    break
                if not advanced:
                    stack.pop()

    def path_to_ancestor(self, vertex: str, ancestor: str) -> list[tuple[str, int]]:
        steps = []
        while vertex != ancestor:
            steps.append((vertex, self.parent_edge[vertex]))
            vertex = self.parent[vertex]
        return steps

    def ancestors(self, vertex: str) -> list[str]:
        chain = [vertex]
        while self.parent[vertex] is not None:
            vertex = self.parent[vertex]
            chain.append(vertex)
        return chain


def _chord_cycle(forest: _SpanningForest, chord_idx: int) -> Cycle:
    graph = forest.graph
    chord = graph.edges[chord_idx]
    on_photon_chain = set(forest.ancestors(chord.photon))
    meet = chord.magnon
    while meet not in on_photon_chain:
        meet = forest.parent[meet]
    # walk: photon -> magnon over the chord, then tree path magnon -> photon
    vertices = [chord.photon, chord.magnon]
    edges = [(chord_idx, +1)]
    for vertex, edge_idx in forest.path_to_ancestor(chord.magnon, meet):
        # stepping vertex -> parent, so leaving a magnon means magnon -> photon
        orient = -1 if vertex == graph.edges[edge_idx].magnon else +1
        edges.append((edge_idx, orient))
        vertices.append(forest.parent[vertex])
    up_from_photon = forest.path_to_ancestor(chord.photon, meet)
    for vertex, edge_idx in reversed(up_from_photon):
        parent = forest.parent[vertex]
        orient = +1 if parent == graph.edges[edge_idx].photon else -1
        edges.append((edge_idx, orient))
        vertices.append(vertex)
    # the walk closes on the chord photon, which already heads the list
    assert vertices[-1] == chord.photon
    vertices.pop()
    return Cycle(vertices=tuple(vertices), edges=tuple(edges), chord=chord_idx)


def cycle_basis(graph: CouplingGraph) -> tuple[Cycle, ...]:
    """Fundamental cycles of the coupling graph, one per chord edge."""
    forest = _SpanningForest(graph)
    return tuple(_chord_cycle(forest, idx) for idx in forest.chords)


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
    forest = _SpanningForest(graph)
    vertex_phases = {v: fold_phase(forest.rotation[v]) for v in graph.vertices}
    applied = apply_vertex_phases(system, vertex_phases)
    reduced_edges = tuple((e.photon, e.magnon, e.phase) for e in applied.edges)
    physical = tuple(
        PhysicalPhase(theta=loop_phase(cycle, graph), cycle=cycle)
        for cycle in (_chord_cycle(forest, idx) for idx in forest.chords)
    )
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
