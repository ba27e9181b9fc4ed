"""The suite's devices and shared helpers, each defined once.

The paper's devices are read from loopmag.cli.PRESETS; the rest are built here:
the 5.36 GHz Table-1 variant, one photon-magnon pair, a photon-magnon chain,
seeded random devices, the two-tone fit spec with its truth and the peak
records of a device's branches, a union-find component count, a loader for
modules outside the package, the one check of a rejected call (raises_exactly)
and the test that runs a module's table of such calls (rejected_calls).
"""

import contextlib
import importlib.util
import math

import numpy as np
import pytest

from loopmag.calibrate import DEFAULT_SIGMA_GHZ, FitSpec, PeakDataset, PeakRecord
from loopmag.cli import PRESETS
from loopmag.model import CouplingEdge, ModeSpec, SystemModel, system_from_document
from loopmag.spectrum import branch_frequencies


def preset(name) -> SystemModel:
    return system_from_document(PRESETS[name]["system"])


def preset_grid(name, key, points=None) -> np.ndarray:
    """The preset's magnon_grid or probe_grid, at its own point count unless points is given."""
    spec = PRESETS[name][key]
    return np.linspace(spec["start_ghz"], spec["stop_ghz"],
                       spec["points"] if points is None else points)


def chain_document(pairs=32) -> dict:
    """A chain of 2 * pairs modes, photon c0 - magnon m0 - photon c1 - ..., all at 5 GHz,
    every magnon swept."""
    modes = [{"label": "%s%d" % (prefix, k), "kind": kind, "frequency_ghz": 5.0}
             for k in range(pairs) for prefix, kind in (("c", "photon"), ("m", "magnon"))]
    edges = [{"photon": "c%d" % k, "magnon": "m%d" % j, "g_mhz": 50.0, "phase_rad": 0}
             for k in range(pairs) for j in (k - 1, k) if j >= 0]
    return {"modes": modes, "edges": edges, "sweep": ["m%d" % k for k in range(pairs)]}


def fit_device(phases=None) -> SystemModel:
    """The cavity-pi-fit preset (loop phase pi), or with its four edge phases set to phases."""
    system = preset("cavity-pi-fit")
    if phases is None:
        return system
    edges = tuple(CouplingEdge(e.photon, e.magnon, e.strength, phase)
                  for e, phase in zip(system.edges, phases, strict=True))
    return SystemModel(system.modes, edges, system.magnon_sweep_target)


def single_pair_system(g_mhz=139.0, phase=-math.pi / 2, omega_c=4.524) -> SystemModel:
    """Photon c1 at omega_c GHz coupled at g_mhz MHz and phase to the swept magnon m1 at
    5 GHz: the branches come closest, 2 |g_mhz| MHz apart, at omega_m = omega_c."""
    return SystemModel(
        modes=(
            ModeSpec("c1", "photon", omega_c),
            ModeSpec("m1", "magnon", 5.0),
        ),
        edges=(CouplingEdge("c1", "m1", g_mhz, phase),),
        magnon_sweep_target=frozenset({"m1"}),
    )


def two_tone_spec(**overrides) -> FitSpec:
    """cavity-pi-fit with both photon frequencies and both couplings free, loop phase
    pi or 0; overrides replace FitSpec fields."""
    kwargs = dict(
        base_system=fit_device(),
        free_photon_frequencies=("c1", "c2"),
        free_couplings=("c1", "c2"),
        theta_hypotheses=((math.pi,), (0.0,)),
    )
    kwargs.update(overrides)
    return FitSpec(**kwargs)


# the cavity-pi-fit values of two_tone_spec's parameters, in its order
FIT_TRUTH = (4.527, 6.19, 0.081, 0.120)


def branch_records(system, omega_ms, sigma=None, noise=None, rng=None, branches=None):
    """Branch frequencies of `system` at each omega_m, as peak records.

    branches selects sorted-branch indices (default: all of them).
    """
    table = branch_frequencies(system, omega_ms)
    records = []
    for i, omega_m in enumerate(omega_ms):
        row = table[i] if branches is None else table[i][list(branches)]
        for peak in row:
            value = float(peak)
            if noise is not None:
                value += noise * rng.standard_normal()
            if sigma is None:
                records.append(PeakRecord(float(omega_m), value, DEFAULT_SIGMA_GHZ))
            else:
                records.append(PeakRecord(float(omega_m), value, sigma))
    return PeakDataset(records=tuple(records))


def table1_device() -> SystemModel:
    """cavity-pi-table1 with both magnons at 5.36 GHz, where the preset's sit at 5.45."""
    system = preset("cavity-pi-table1")
    modes = tuple(ModeSpec(m.label, m.kind, 5.36) if m.kind == "magnon" else m
                  for m in system.modes)
    return SystemModel(modes, system.edges, system.magnon_sweep_target)


def random_system(rng, max_magnons, edge_density) -> SystemModel:
    """1-4 photons and 1-max_magnons swept magnons at 3-9 GHz, each pair coupled with
    probability edge_density at 10-300 MHz and a uniform phase."""
    n_p = int(rng.integers(1, 5))
    n_m = int(rng.integers(1, max_magnons + 1))
    photons = [f"c{i}" for i in range(n_p)]
    magnons = [f"m{i}" for i in range(n_m)]
    modes = [ModeSpec(p, "photon", float(rng.uniform(3.0, 9.0))) for p in photons]
    modes += [ModeSpec(m, "magnon", float(rng.uniform(3.0, 9.0))) for m in magnons]
    edges = []
    for p in photons:
        for m in magnons:
            if rng.uniform() < edge_density:
                edges.append(CouplingEdge(p, m, float(rng.uniform(10.0, 300.0)),
                                          float(rng.uniform(-math.pi, math.pi))))
    return SystemModel(tuple(modes), tuple(edges), frozenset(magnons))


def component_count(labels, pairs) -> int:
    """Connected components of the graph on labels with edges pairs (union-find)."""
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


def load(name, path):
    """The module at path, imported as name."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def raises_exactly(error_type, message):
    """The block must raise error_type itself, not a subclass, with exactly message."""
    with pytest.raises(error_type) as info:
        yield
    assert type(info.value) is error_type, repr(info.value)
    assert str(info.value) == message, str(info.value)


def rejected_calls(rows):
    """The test of a module's table of rows (call, exception type, exact message)."""
    @pytest.mark.parametrize("call, error_type, message", rows)
    def test_rejected_calls(call, error_type, message):
        with raises_exactly(error_type, message):
            call()
    return test_rejected_calls
