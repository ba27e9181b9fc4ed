"""Tests for coupling-graph cycle structure and gauge reduction."""

import itertools
import math

import numpy as np
import pytest

from loopmag.gauge import (
    Cycle,
    build_graph,
    cycle_basis,
    loop_phase,
    reduce_system,
    reduction_to_document,
)
from loopmag.model import (
    CouplingEdge,
    ModeSpec,
    SystemModel,
    apply_vertex_phases,
    build_hamiltonian,
    fold_phase,
)

PI = math.pi


def pi_device():
    return SystemModel(
        modes=(
            ModeSpec("c1", "photon", 4.524),
            ModeSpec("c2", "photon", 6.378),
            ModeSpec("m1", "magnon", 5.36),
            ModeSpec("m2", "magnon", 5.36),
        ),
        edges=(
            CouplingEdge("c1", "m1", 139.0, -PI / 2),
            CouplingEdge("c1", "m2", 139.0, -PI / 2),
            CouplingEdge("c2", "m1", 207.0, PI / 2),
            CouplingEdge("c2", "m2", 207.0, -PI / 2),
        ),
        magnon_sweep_target=frozenset({"m1", "m2"}),
    )


def pi0_device():
    phases = {
        ("c1", "m1"): -PI / 2,
        ("c1", "m2"): -PI / 2,
        ("c2", "m1"): PI / 2,
        ("c2", "m2"): -PI / 2,
        ("c3", "m1"): PI / 2,
        ("c3", "m2"): -PI / 2,
    }
    strengths = {"c1": 130.0, "c2": 150.0, "c3": 104.0}
    edges = tuple(
        CouplingEdge(p, m, strengths[p], phases[(p, m)])
        for p in ("c1", "c2", "c3")
        for m in ("m1", "m2")
    )
    modes = (
        ModeSpec("c1", "photon", 6.594),
        ModeSpec("c2", "photon", 7.562),
        ModeSpec("c3", "photon", 8.619),
        ModeSpec("m1", "magnon", 7.5),
        ModeSpec("m2", "magnon", 7.5),
    )
    return SystemModel(modes, edges, frozenset({"m1", "m2"}))


def random_system(rng, max_photons=4, max_magnons=3):
    n_p = int(rng.integers(1, max_photons + 1))
    n_m = int(rng.integers(1, max_magnons + 1))
    modes = [ModeSpec(f"c{i}", "photon", float(rng.uniform(3, 9))) for i in range(n_p)]
    modes += [ModeSpec(f"m{i}", "magnon", float(rng.uniform(3, 9))) for i in range(n_m)]
    edges = []
    for p in range(n_p):
        for m in range(n_m):
            if rng.uniform() < 0.55:
                edges.append(
                    CouplingEdge(
                        f"c{p}",
                        f"m{m}",
                        float(rng.uniform(10, 300)),
                        float(rng.uniform(-PI, PI)),
                    )
                )
    return SystemModel(tuple(modes), tuple(edges), frozenset(f"m{m}" for m in range(n_m)))


def component_count(labels, pairs):
    parent = {v: v for v in labels}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in labels})


def cycle_walk_for_chord(chord, tree_edges, phase_of):
    """Closed walk (vertex list) a chord generates against a given tree.

    chord and tree_edges are (photon, magnon) pairs.  The walk starts at the
    chord's photon, crosses the chord, and returns along the tree path.
    """
    adjacency = {}
    for p, m in tree_edges:
        adjacency.setdefault(p, []).append(m)
        adjacency.setdefault(m, []).append(p)
    start, goal = chord[1], chord[0]  # walk the tree from magnon back to photon
    path = None
    stack = [(start, [start])]
    seen = {start}
    while stack:
        node, trail = stack.pop()
        if node == goal:
            path = trail
            break
        for nxt in adjacency.get(node, []):
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, trail + [nxt]))
    assert path is not None, "chord endpoints not connected by the tree"
    return [chord[0]] + path[:-1]


def tree_loop_phase(chord, tree_edges, phase_of):
    """Independent loop-phase route: signed sum along the tree path closing a chord."""
    walk = cycle_walk_for_chord(chord, tree_edges, phase_of)
    total = 0.0
    for a, b in zip(walk, walk[1:] + walk[:1]):
        total += phase_of[(a, b)] if (a, b) in phase_of else -phase_of[(b, a)]
    return fold_phase(total)


# ====== build_graph ======


def test_build_graph_pi_device():
    g = build_graph(pi_device())
    assert set(g.vertices) == {"c1", "c2", "m1", "m2"}
    assert len(g.edges) == 4
    assert component_count(g.vertices, [(e.photon, e.magnon) for e in g.edges]) == 1


def test_build_graph_excludes_isolated_modes():
    system = SystemModel(
        modes=(
            ModeSpec("c1", "photon", 4.0),
            ModeSpec("c2", "photon", 6.0),
            ModeSpec("m1", "magnon", 5.0),
        ),
        edges=(CouplingEdge("c1", "m1", 50.0, 0.3),),
        magnon_sweep_target=frozenset({"m1"}),
    )
    g = build_graph(system)
    assert set(g.vertices) == {"c1", "m1"}


def test_build_graph_empty():
    system = SystemModel(
        modes=(ModeSpec("c1", "photon", 4.0),), edges=(), magnon_sweep_target=frozenset()
    )
    g = build_graph(system)
    assert g.vertices == ()
    assert g.edges == ()


def test_build_graph_pi0_counts():
    g = build_graph(pi0_device())
    assert len(g.edges) == 6
    assert len(g.vertices) == 5


# ====== cycle_basis ======


def test_cycle_basis_pi_device():
    cycles = cycle_basis(build_graph(pi_device()))
    assert len(cycles) == 1
    assert len(cycles[0].edges) == 4
    # bipartite cycles alternate photon / magnon vertices
    kinds = ["c" in v for v in cycles[0].vertices]
    assert kinds == [True, False, True, False]


def test_cycle_basis_tree_graph():
    system = SystemModel(
        modes=(
            ModeSpec("c1", "photon", 4.0),
            ModeSpec("c2", "photon", 6.0),
            ModeSpec("m1", "magnon", 5.0),
            ModeSpec("m2", "magnon", 5.5),
        ),
        edges=(
            CouplingEdge("c1", "m1", 50.0, 0.1),
            CouplingEdge("c2", "m1", 50.0, 0.2),
            CouplingEdge("c2", "m2", 50.0, 0.3),
        ),
        magnon_sweep_target=frozenset({"m1", "m2"}),
    )
    assert cycle_basis(build_graph(system)) == ()


def test_cycle_basis_pi0_two_cycles():
    cycles = cycle_basis(build_graph(pi0_device()))
    assert len(cycles) == 2
    # deterministic chord order: first cycle runs through c1 and c2,
    # second through c3 and c2
    assert set(cycles[0].vertices) == {"c1", "m2", "c2", "m1"}
    assert set(cycles[1].vertices) == {"c3", "m1", "c2", "m2"}


# ====== loop_phase ======


def test_loop_phase_pi_pattern():
    g = build_graph(pi_device())
    (cycle,) = cycle_basis(g)
    assert abs(fold_phase(loop_phase(cycle, g) - PI)) < 1e-12


def test_loop_phase_equal_phases_cancel():
    system = pi_device()
    edges = tuple(
        CouplingEdge(e.photon, e.magnon, e.strength, 0.7) for e in system.edges
    )
    same = SystemModel(system.modes, edges, system.magnon_sweep_target)
    g = build_graph(same)
    (cycle,) = cycle_basis(g)
    assert abs(loop_phase(cycle, g)) < 1e-12


def test_loop_phase_pi0_second_cycle_zero():
    g = build_graph(pi0_device())
    cycles = cycle_basis(g)
    assert abs(loop_phase(cycles[1], g)) < 1e-12


def test_loop_phase_rejects_open_cycle():
    g = build_graph(pi_device())
    (cycle,) = cycle_basis(g)
    broken = Cycle(vertices=cycle.vertices[:3], edges=cycle.edges[:3], chord=cycle.chord)
    with pytest.raises(ValueError):
        loop_phase(broken, g)


# ====== reduce ======


def test_reduce_pi_device_frozen_values():
    red = reduce_system(pi_device())
    want_vertex = {"c1": 0.0, "m1": -PI / 2, "c2": PI, "m2": PI / 2}
    assert set(red.vertex_phases) == set(want_vertex)
    for label, want in want_vertex.items():
        assert abs(fold_phase(red.vertex_phases[label] - want)) < 1e-9
    got_phases = [phase for (_, _, phase) in red.reduced_edges]
    for got, want in zip(got_phases, [0.0, PI, 0.0, 0.0]):
        assert abs(fold_phase(got - want)) < 1e-9
    assert len(red.physical_phases) == 1
    assert abs(fold_phase(red.physical_phases[0].theta - PI)) < 1e-9
    assert red.physical_phases[0].cycle.vertices == ("c1", "m2", "c2", "m1")


def test_reduce_phase_free_system():
    system = pi_device()
    edges = tuple(CouplingEdge(e.photon, e.magnon, e.strength, 0.0) for e in system.edges)
    red = reduce_system(SystemModel(system.modes, edges, system.magnon_sweep_target))
    assert all(abs(v) < 1e-12 for v in red.vertex_phases.values())
    assert len(red.physical_phases) == 1
    assert abs(red.physical_phases[0].theta) < 1e-12


def test_reduce_pi0_theta_set_and_cycles():
    red = reduce_system(pi0_device())
    thetas = [p.theta for p in red.physical_phases]
    assert len(thetas) == 2
    assert abs(fold_phase(thetas[0] - PI)) < 1e-9
    assert abs(fold_phase(thetas[1])) < 1e-9
    assert set(red.physical_phases[0].cycle.vertices) >= {"c1", "c2"}
    assert set(red.physical_phases[1].cycle.vertices) >= {"c3", "c2"}


def test_reduced_edges_equal_apply_vertex_phases_exactly():
    for system in (pi_device(), pi0_device()):
        red = reduce_system(system)
        applied = apply_vertex_phases(system, red.vertex_phases)
        triples = tuple((e.photon, e.magnon, e.phase) for e in applied.edges)
        assert triples == red.reduced_edges


def test_theta_equals_reduced_chord_phase():
    rng = np.random.default_rng(5)
    for _ in range(40):
        system = random_system(rng)
        red = reduce_system(system)
        reduced_by_pair = {(p, m): phase for (p, m, phase) in red.reduced_edges}
        graph = build_graph(system)
        for phys in red.physical_phases:
            chord_edge = graph.edges[phys.cycle.chord]
            chord_phase = reduced_by_pair[(chord_edge.photon, chord_edge.magnon)]
            assert abs(fold_phase(phys.theta - chord_phase)) < 1e-12


def test_pi0_theta_values_over_all_spanning_trees():
    """Every spanning tree yields loop phases in {0, pi}, at least one pi.

    The multiset itself is basis-dependent: a tree whose fundamental cycle is
    homologous to the sum of the two plaquettes reads pi + 0 = pi, so {pi, pi}
    is a legitimate outcome.  What is invariant is the phase homomorphism on
    the cycle space, checked here by decomposing each fundamental cycle over
    the two plaquette generators with integer coefficients.
    """
    system = pi0_device()
    phase_of = {(e.photon, e.magnon): e.phase for e in system.edges}
    all_edges = list(phase_of)
    edge_pos = {pair: k for k, pair in enumerate(all_edges)}
    vertices = {v for pair in all_edges for v in pair}

    def signed_incidence(walk):
        vec = np.zeros(len(all_edges))
        for a, b in zip(walk, walk[1:] + walk[:1]):
            if (a, b) in edge_pos:
                vec[edge_pos[(a, b)]] += 1.0
            else:
                vec[edge_pos[(b, a)]] -= 1.0
        return vec

    def walk_phase(walk):
        total = 0.0
        for a, b in zip(walk, walk[1:] + walk[:1]):
            total += phase_of[(a, b)] if (a, b) in phase_of else -phase_of[(b, a)]
        return total

    plaquettes = [["c1", "m2", "c2", "m1"], ["c3", "m1", "c2", "m2"]]
    basis = np.stack([signed_incidence(w) for w in plaquettes], axis=1)
    basis_theta = [fold_phase(walk_phase(w)) for w in plaquettes]
    assert abs(fold_phase(basis_theta[0] - PI)) < 1e-12
    assert abs(basis_theta[1]) < 1e-12

    tree_count = 0
    saw_pi_pi = False
    for tree in itertools.combinations(all_edges, 4):
        if component_count(tuple(vertices), tree) != 1:
            continue
        tree_count += 1
        thetas = []
        for chord in (e for e in all_edges if e not in tree):
            theta = fold_phase(tree_loop_phase(chord, set(tree), phase_of))
            thetas.append(theta)
            # each theta sits in the subgroup generated by the plaquettes
            assert min(abs(theta), abs(fold_phase(theta - PI))) < 1e-9
            # and matches its integer homology decomposition
            walk = cycle_walk_for_chord(chord, set(tree), phase_of)
            coeffs, *_ = np.linalg.lstsq(basis, signed_incidence(walk), rcond=None)
            rounded = np.round(coeffs)
            assert np.allclose(coeffs, rounded, atol=1e-9)
            assert np.allclose(basis @ rounded, signed_incidence(walk), atol=1e-9)
            predicted = rounded[0] * basis_theta[0] + rounded[1] * basis_theta[1]
            assert abs(fold_phase(theta - predicted)) < 1e-9
        assert any(abs(fold_phase(t - PI)) < 1e-9 for t in thetas)
        if all(abs(fold_phase(t - PI)) < 1e-9 for t in thetas):
            saw_pi_pi = True
    assert tree_count == 12  # spanning trees of the full 3 x 2 bipartite graph
    assert saw_pi_pi  # the {pi, pi} basis really occurs


def test_reduction_idempotent():
    rng = np.random.default_rng(8)
    for _ in range(30):
        system = random_system(rng)
        red = reduce_system(system)
        again = reduce_system(apply_vertex_phases(system, red.vertex_phases))
        assert all(abs(fold_phase(v)) < 1e-9 for v in again.vertex_phases.values())
        assert len(again.physical_phases) == len(red.physical_phases)
        for a, b in zip(again.physical_phases, red.physical_phases):
            assert abs(fold_phase(a.theta - b.theta)) < 1e-9


def test_loop_phases_gauge_invariant_property():
    rng = np.random.default_rng(21)
    for _ in range(100):
        system = random_system(rng)
        base = reduce_system(system)
        labels = [m.label for m in system.modes]
        alphas = {lab: float(rng.uniform(-6, 6)) for lab in labels}
        rotated = reduce_system(apply_vertex_phases(system, alphas))
        assert len(base.physical_phases) == len(rotated.physical_phases)
        for a, b in zip(base.physical_phases, rotated.physical_phases):
            assert abs(fold_phase(a.theta - b.theta)) < 1e-12


def test_counting_law_random_systems():
    rng = np.random.default_rng(33)
    for _ in range(100):
        system = random_system(rng)
        red = reduce_system(system)
        pairs = [(e.photon, e.magnon) for e in system.edges]
        labels = tuple({v for pair in pairs for v in pair})
        e_count = len(pairs)
        v_count = len(labels)
        c_count = component_count(labels, pairs) if labels else 0
        assert len(red.physical_phases) == e_count - v_count + c_count


def test_reduction_preserves_spectrum():
    rng = np.random.default_rng(44)
    for system in (pi_device(), pi0_device()):
        red = reduce_system(system)
        reduced_system = apply_vertex_phases(system, red.vertex_phases)
        labels = [m.label for m in system.modes]
        u = np.diag(
            [np.exp(-1j * red.vertex_phases.get(lab, 0.0)) for lab in labels]
        )
        for _ in range(5):
            omega_m = float(rng.uniform(4.0, 9.0))
            h = build_hamiltonian(system, omega_m).entries
            h_red = build_hamiltonian(reduced_system, omega_m).entries
            scale = np.linalg.norm(h)
            assert np.linalg.norm(h_red - u @ h @ u.conj().T) <= 1e-13 * scale


def two_component_device():
    modes = (
        ModeSpec("c1", "photon", 4.0),
        ModeSpec("c2", "photon", 5.0),
        ModeSpec("m1", "magnon", 4.5),
        ModeSpec("m2", "magnon", 4.6),
        ModeSpec("c3", "photon", 6.0),
        ModeSpec("c4", "photon", 7.0),
        ModeSpec("m3", "magnon", 6.5),
        ModeSpec("m4", "magnon", 6.6),
    )
    edges = (
        CouplingEdge("c1", "m1", 50.0, 0.2),
        CouplingEdge("c1", "m2", 50.0, 0.4),
        CouplingEdge("c2", "m1", 50.0, 0.6),
        CouplingEdge("c2", "m2", 50.0, 0.8),
        CouplingEdge("c3", "m3", 50.0, 0.1),
        CouplingEdge("c3", "m4", 50.0, 0.9),
        CouplingEdge("c4", "m3", 50.0, 0.5),
        CouplingEdge("c4", "m4", 50.0, 0.7),
    )
    return SystemModel(modes, edges, frozenset({"m1", "m2", "m3", "m4"}))


def test_disconnected_components_reduced_per_component():
    red = reduce_system(two_component_device())
    assert len(red.physical_phases) == 2
    first, second = red.physical_phases
    assert set(first.cycle.vertices) == {"c1", "c2", "m1", "m2"}
    assert set(second.cycle.vertices) == {"c3", "c4", "m3", "m4"}
    want_first = fold_phase(0.4 - 0.8 + 0.6 - 0.2)
    want_second = fold_phase(0.9 - 0.7 + 0.5 - 0.1)
    assert abs(fold_phase(first.theta - want_first)) < 1e-12
    assert abs(fold_phase(second.theta - want_second)) < 1e-12


# ====== document interface ======


def test_reduction_document_shape():
    red = reduce_system(pi0_device())
    doc = reduction_to_document(red)
    assert set(doc) == {"vertex_phases", "physical_phases"}
    assert len(doc["physical_phases"]) == 2
    entry = doc["physical_phases"][0]
    assert set(entry) == {"theta_rad", "cycle"}
    assert entry["cycle"] == list(red.physical_phases[0].cycle.vertices)
    assert doc["vertex_phases"]["c1"] == red.vertex_phases["c1"]


# ====== the previous spanning forest, kept as an oracle ======


class OracleSpanningForest:
    """The class-based forest gauge.py used before _forest, less its annotations and comments."""

    def __init__(self, graph):
        self.graph = graph
        self.parent = {}
        self.parent_edge = {}
        self.chords = []
        self.rotation = {}
        seen_chords = set()
        visited = set()
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

    def path_to_ancestor(self, vertex, ancestor):
        steps = []
        while vertex != ancestor:
            steps.append((vertex, self.parent_edge[vertex]))
            vertex = self.parent[vertex]
        return steps

    def ancestors(self, vertex):
        chain = [vertex]
        while self.parent[vertex] is not None:
            vertex = self.parent[vertex]
            chain.append(vertex)
        return chain


def oracle_chord_cycle(forest, chord_idx):
    graph = forest.graph
    chord = graph.edges[chord_idx]
    on_photon_chain = set(forest.ancestors(chord.photon))
    meet = chord.magnon
    while meet not in on_photon_chain:
        meet = forest.parent[meet]
    vertices = [chord.photon, chord.magnon]
    edges = [(chord_idx, +1)]
    for vertex, edge_idx in forest.path_to_ancestor(chord.magnon, meet):
        orient = -1 if vertex == graph.edges[edge_idx].magnon else +1
        edges.append((edge_idx, orient))
        vertices.append(forest.parent[vertex])
    up_from_photon = forest.path_to_ancestor(chord.photon, meet)
    for vertex, edge_idx in reversed(up_from_photon):
        parent = forest.parent[vertex]
        orient = +1 if parent == graph.edges[edge_idx].photon else -1
        edges.append((edge_idx, orient))
        vertices.append(vertex)
    assert vertices[-1] == chord.photon
    vertices.pop()
    return Cycle(vertices=tuple(vertices), edges=tuple(edges), chord=chord_idx)


def reduction_bits(vertex_phases, reduced_edges, physical):
    """A reduction as plain tuples with every float as its hex form, so -0.0 != 0.0."""
    return (
        tuple((v, phase.hex()) for v, phase in vertex_phases.items()),
        tuple((p, m, phase.hex()) for p, m, phase in reduced_edges),
        tuple((theta.hex(), cycle) for theta, cycle in physical),
    )


def assert_matches_the_oracle(system):
    graph = build_graph(system)
    forest = OracleSpanningForest(graph)
    cycles = tuple(oracle_chord_cycle(forest, idx) for idx in forest.chords)
    assert cycle_basis(graph) == cycles
    vertex_phases = {v: fold_phase(forest.rotation[v]) for v in graph.vertices}
    applied = apply_vertex_phases(system, vertex_phases)
    want = reduction_bits(
        vertex_phases,
        [(e.photon, e.magnon, e.phase) for e in applied.edges],
        [(loop_phase(cycle, graph), cycle) for cycle in cycles],
    )
    red = reduce_system(system)
    got = reduction_bits(
        red.vertex_phases, red.reduced_edges, [(p.theta, p.cycle) for p in red.physical_phases]
    )
    assert got == want
    return len(cycles)


def shuffled_device(rng):
    """1-6 photons and 1-6 magnons, edge density 0.1-1, modes and edges in shuffled order."""
    n_p, n_m = (int(n) for n in rng.integers(1, 7, size=2))
    density = float(rng.uniform(0.1, 1.0))
    modes = [ModeSpec(f"c{i}", "photon", 5.0) for i in range(n_p)]
    modes += [ModeSpec(f"m{i}", "magnon", 5.0) for i in range(n_m)]
    edges = [
        CouplingEdge(f"c{p}", f"m{m}", 50.0, float(rng.uniform(-PI, PI)))
        for p in range(n_p)
        for m in range(n_m)
        if rng.uniform() < density
    ]
    rng.shuffle(modes)
    rng.shuffle(edges)
    return SystemModel(tuple(modes), tuple(edges), frozenset(f"m{m}" for m in range(n_m)))


def complete_device(rng, n):
    modes = [ModeSpec(f"c{i}", "photon", 5.0) for i in range(n)]
    modes += [ModeSpec(f"m{i}", "magnon", 5.0) for i in range(n)]
    edges = [
        CouplingEdge(f"c{p}", f"m{m}", 50.0, float(rng.uniform(-PI, PI)))
        for p in range(n)
        for m in range(n)
    ]
    return SystemModel(tuple(modes), tuple(edges), frozenset(f"m{m}" for m in range(n)))


def ladder_device(rng, rungs):
    """Two rails of alternating photons and magnons joined by rungs: a deep forest."""
    kind = {}
    for i in range(rungs):
        kind[f"a{i}"], kind[f"b{i}"] = ("photon", "magnon") if i % 2 == 0 else ("magnon", "photon")
    pairs = [(f"a{i}", f"b{i}") for i in range(rungs)]
    pairs += [(f"{rail}{i}", f"{rail}{i + 1}") for rail in "ab" for i in range(rungs - 1)]
    edges = [
        CouplingEdge(*sorted(pair, key=lambda v: kind[v] != "photon"), 50.0,
                     float(rng.uniform(-PI, PI)))
        for pair in pairs
    ]
    modes = [ModeSpec(label, k, 5.0) for label, k in kind.items()]
    magnons = frozenset(label for label, k in kind.items() if k == "magnon")
    return SystemModel(tuple(modes), tuple(edges), magnons)


def test_reduction_matches_the_previous_forest_bit_for_bit_on_random_devices():
    rng = np.random.default_rng(15)
    loops = [assert_matches_the_oracle(shuffled_device(rng)) for _ in range(2000)]
    # trees and forests, and up to the 25 loops of a complete 6 x 6 graph
    assert loops.count(0) > 1000 and sum(loops) > 4000 and max(loops) == 25


def test_reduction_matches_the_previous_forest_bit_for_bit_on_large_and_split_devices():
    rng = np.random.default_rng(16)
    assert assert_matches_the_oracle(complete_device(rng, 12)) == 144 - 24 + 1
    assert assert_matches_the_oracle(two_component_device()) == 2
    assert assert_matches_the_oracle(ladder_device(rng, 800)) == 799
