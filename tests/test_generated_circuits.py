"""Differential oracle over generated rail circuits.

A seeded ``hypothesis`` generator builds power-rail circuits — voltage
sources, series and parallel resistors, fuses (switches), inductors,
ammeters, per-section loads and ORing diodes onto a shared bus — whose
sizes fall on both sides of the dense direct path's limit, on both solver
backends.  Every element is failed open, shorted and drifted, all of those
faults are solved as one :meth:`CompiledSystem.solve_replacements` batch,
and each solution must match :func:`dc_operating_point` on the modified
netlist.  The batch must also make the same fallback decision for every
fault as a batch of one.

A second class gives every rail the distribution grid's feeder head —
``switch → fuse → blocking diode`` — and leaves some section nodes without
a load, so opening a switch, fuse or the last load of a stretch strands a
gmin island.  Every such opening must leave the batch for the exact
rebuild and still match the naive solve.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import networkx as nx

from repro import obs
from repro.casestudies import (
    build_power_grid_simulink,
    power_grid_injection_sample,
    power_network_reliability,
)
from repro.circuit import CircuitError, CompiledSystem, dc_operating_point
from repro.circuit.mna import _DIRECT_MAX_SIZE, _MAX_NEWTON_ITERATIONS
from repro.circuit.netlist import (
    Ammeter,
    Diode,
    Inductor,
    Netlist,
    Resistor,
    Switch,
    VoltageSource,
)
from repro.safety.campaign import FaultInjectionCampaign

_TOL = 1e-6

_RESISTANCE = st.floats(min_value=0.05, max_value=5e3, allow_nan=False)


#: Circuit size classes: (rails, sections per rail).  Small circuits stay
#: under the direct path's limit, large ones (> 50 unknowns) exceed it.
SIZES = {"small": ((1, 2), (1, 6)), "large": ((3, 3), (17, 22))}


@st.composite
def rail_circuits(draw, size, feeder_heads=False):
    """A few supply rails, each a chain of sections ending in an ORing
    diode onto a shared, loaded bus.

    With ``feeder_heads`` each rail starts with a switch, a fuse and a
    blocking diode, and a section keeps its load only on a draw (the last
    section always keeps one, so the healthy circuit has no island).
    """
    (min_rails, max_rails), (min_sections, max_sections) = SIZES[size]
    netlist = Netlist("generated")
    rails = draw(st.integers(min_value=min_rails, max_value=max_rails))
    for r in range(rails):
        node = f"src{r}"
        netlist.voltage_source(
            f"V{r}", node, "0", draw(st.floats(min_value=3.0, max_value=24.0))
        )
        if feeder_heads:
            netlist.switch(f"SW{r}", node, f"h{r}")
            netlist.resistor(f"FH{r}", f"h{r}", f"k{r}", 1e-3)
            netlist.diode(f"DH{r}", f"k{r}", f"d{r}")
            node = f"d{r}"
        sections = draw(st.integers(min_sections, max_sections))
        for s in range(sections):
            name, nxt = f"{r}_{s}", f"n{r}_{s}"
            kind = draw(st.sampled_from("RPFLA"))
            if kind == "R":
                netlist.resistor(f"R{name}", node, nxt, draw(_RESISTANCE))
            elif kind == "P":
                netlist.resistor(f"Ra{name}", node, nxt, draw(_RESISTANCE))
                netlist.resistor(f"Rb{name}", node, nxt, draw(_RESISTANCE))
            elif kind == "F":
                netlist.switch(f"F{name}", node, nxt)
            elif kind == "L":
                netlist.inductor(
                    f"L{name}", node, nxt, 1e-3,
                    series_resistance=draw(st.sampled_from([0.0, 0.05, 1.0])),
                )
            else:
                netlist.ammeter(f"A{name}", node, nxt)
            # Without feeder heads every node keeps a load to ground, so no
            # single fault leaves a node held by gmin alone.
            if (
                not feeder_heads
                or s == sections - 1
                or draw(st.booleans())
            ):
                netlist.resistor(f"RL{name}", nxt, "0", draw(_RESISTANCE) * 10)
            node = nxt
        netlist.diode(f"D{r}", node, "bus")
    netlist.resistor("RB", "bus", "0", draw(_RESISTANCE) * 10)
    netlist.ammeter("ABUS", "bus", "out")
    netlist.resistor("RBUS", "out", "0", draw(_RESISTANCE))
    return netlist


def _drift(element):
    """A parameter drift of ``element`` (``None``: no drift for its kind)."""
    if isinstance(element, Resistor):
        return replace(element, resistance=element.resistance * 1.5)
    if isinstance(element, VoltageSource):
        return replace(element, voltage=element.voltage * 0.8)
    if isinstance(element, Diode):
        return replace(element, saturation_current=element.saturation_current * 10)
    if isinstance(element, Switch):
        return replace(element, closed=not element.closed)
    if isinstance(element, Inductor):
        return Resistor(element.name, element.node_pos, element.node_neg, 2.0)
    return None


def _faults(netlist):
    faults = []
    for element in netlist.elements():
        short = Resistor(element.name, element.node_pos, element.node_neg, 1e-3)
        faults += [(element.name, None), (element.name, short)]
        drift = _drift(element)
        if drift is not None and not isinstance(element, Ammeter):
            faults.append((element.name, drift))
    return faults


def _assert_close(fast, exact, context):
    for node, value in exact.node_voltages.items():
        assert math.isclose(
            fast.voltage(node), value, rel_tol=_TOL, abs_tol=_TOL
        ), (context, node)
    for name, value in exact.branch_currents.items():
        assert math.isclose(
            fast.current(name), value, rel_tol=_TOL, abs_tol=_TOL
        ), (context, name)


def _holds(element):
    """Whether ``element`` pins its nodes' potentials: branch elements,
    resistors and closed switches (not diodes, nor open switches)."""
    if isinstance(element, Switch):
        return element.closed
    return isinstance(element, (Resistor, VoltageSource, Ammeter, Inductor))


def _stranding_opens(netlist):
    """Elements whose opening disconnects the graph of elements that pin
    their nodes' potentials: the brute-force statement of the bridge rule,
    one connectivity check per element."""
    graph = nx.MultiGraph()
    for element in netlist.elements():
        if _holds(element):
            graph.add_edge(*element.nodes, key=element.name)
    components = nx.number_connected_components(graph)
    stranding = set()
    for a, b, name in list(graph.edges(keys=True)):
        graph.remove_edge(a, b, key=name)
        if nx.number_connected_components(graph) > components:
            stranding.add(name)
        graph.add_edge(a, b, key=name)
    return stranding


@pytest.mark.parametrize("size", sorted(SIZES))
@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_batched_faults_match_naive_solves(backend, size):
    _check_batched_faults(backend, size, feeder_heads=False)


@pytest.mark.parametrize("size", sorted(SIZES))
@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_feeder_head_islands_are_rebuilt(backend, size):
    _check_batched_faults(backend, size, feeder_heads=True)


def _check_batched_faults(backend, size, feeder_heads):
    sizes = []
    islands = []

    @settings(
        max_examples=4 if size == "small" else 2,
        deadline=None,
        derandomize=True,
    )
    @given(netlist=rail_circuits(size, feeder_heads))
    def check(netlist):
        compiled = CompiledSystem(netlist, backend=backend)
        compiled.solve()
        sizes.append(compiled._system.size)
        faults = _faults(netlist)
        batch = compiled.solve_replacements(faults)
        stranding = _stranding_opens(netlist)
        for (name, replacement), solution in zip(faults, batch):
            opens = replacement is None or not _holds(replacement)
            if opens and name in stranding:
                # Opening a bridge strands a gmin island: a rebuild.
                assert solution is None, name
                islands.append(name)
        single = CompiledSystem(netlist, backend=backend)
        single.solve()
        for (name, replacement), solution in zip(faults, batch):
            alone = single.solve_replacements([(name, replacement)])[0]
            assert (solution is None) == (alone is None), (name, replacement)
            modified = (
                netlist.without(name) if replacement is None
                else netlist.with_replacement(name, replacement)
            )
            try:
                exact = dc_operating_point(modified, backend=backend)
            except CircuitError:
                continue  # the naive path itself does not converge
            if solution is None:
                solution = compiled.solve_replacement(name, replacement)
            _assert_close(solution, exact, (name, replacement))

    check()
    if size == "small":
        assert max(sizes) <= _DIRECT_MAX_SIZE
    else:
        assert min(sizes) > _DIRECT_MAX_SIZE
    if feeder_heads:
        assert any(name.startswith("SW") for name in islands)


def test_grid_feeder_switch_open_is_one_rebuild():
    """On the 4x150 grid, opening feeder switch SW2 strands the
    ``SW2 → F2 → D2`` stub.  The bridge rule plans it as a rebuild, so the
    campaign runs exactly two lockstep batches (the baseline and one for
    every other fault) and no column runs into the Newton cap."""
    model = build_power_grid_simulink(feeders=4, sections_per_feeder=150)
    stable = power_grid_injection_sample(model, k=24, seed=101)
    assert "SW2" not in stable
    obs.disable()
    obs.reset()
    obs.enable()
    try:
        result = FaultInjectionCampaign(
            model, power_network_reliability(), assume_stable=stable
        ).run()
        records = obs.tracer().records()
    finally:
        obs.disable()
        obs.reset()
    batches = [r.attrs for r in records if r.name == "mna.batch_solve"]
    assert [b["faults"] for b in batches] == [1, result.stats.solves - 2]
    assert all(b["passes"] < _MAX_NEWTON_ITERATIONS for b in batches)
    assert all(b["fallbacks"] == 0 for b in batches)
    rebuilds = [r.attrs["element"] for r in records
                if r.name == "mna.full_rebuild"]
    assert rebuilds == ["SW2"]
    assert result.stats.full_rebuilds == 1
