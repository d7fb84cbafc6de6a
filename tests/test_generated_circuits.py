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
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import CircuitError, CompiledSystem, dc_operating_point
from repro.circuit.mna import _DIRECT_MAX_SIZE
from repro.circuit.netlist import (
    Ammeter,
    Diode,
    Inductor,
    Netlist,
    Resistor,
    Switch,
    VoltageSource,
)

_TOL = 1e-6

_RESISTANCE = st.floats(min_value=0.05, max_value=5e3, allow_nan=False)


#: Circuit size classes: (rails, sections per rail).  Small circuits stay
#: under the direct path's limit, large ones (> 50 unknowns) exceed it.
SIZES = {"small": ((1, 2), (1, 6)), "large": ((3, 3), (17, 22))}


@st.composite
def rail_circuits(draw, size):
    """A few supply rails, each a chain of sections ending in an ORing
    diode onto a shared, loaded bus."""
    (min_rails, max_rails), (min_sections, max_sections) = SIZES[size]
    netlist = Netlist("generated")
    rails = draw(st.integers(min_value=min_rails, max_value=max_rails))
    for r in range(rails):
        node = f"src{r}"
        netlist.voltage_source(
            f"V{r}", node, "0", draw(st.floats(min_value=3.0, max_value=24.0))
        )
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
            # Every node keeps a load to ground: no single fault can leave
            # a node held by gmin alone, where the DC solution is
            # ill-conditioned (1/gmin ohms) and no two solvers agree.
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


@pytest.mark.parametrize("size", sorted(SIZES))
@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_batched_faults_match_naive_solves(backend, size):
    sizes = []

    @settings(
        max_examples=4 if size == "small" else 2,
        deadline=None,
        derandomize=True,
    )
    @given(netlist=rail_circuits(size))
    def check(netlist):
        compiled = CompiledSystem(netlist, backend=backend)
        compiled.solve()
        sizes.append(compiled._system.size)
        faults = _faults(netlist)
        batch = compiled.solve_replacements(faults)
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
