"""Unit tests for the compiled incremental MNA solver.

Every fault class a :class:`~repro.circuit.CompiledSystem` claims to solve
through the cached factorization is checked against the plain
:func:`~repro.circuit.dc_operating_point` on the modified netlist, and the
declared fallbacks (topology changes, orphaned nodes, gmin-only nodes)
must actually take the full-assembly path.
"""

import math

import numpy as np
import pytest

from repro.circuit import CircuitError, CompiledSystem, dc_operating_point
from repro.circuit import mna as mna_mod
from repro.circuit.mna import _DIRECT_MAX_SIZE, _MAX_GMIN_RETRIES
from repro.circuit.netlist import Netlist, Resistor, VoltageSource


def ladder() -> Netlist:
    """V1 -> R1 -> (R2 || D1-loaded rail) with an ammeter and an inductor."""
    netlist = Netlist("ladder")
    netlist.voltage_source("V1", "in", "0", 5.0)
    netlist.resistor("R1", "in", "mid", 10.0)
    netlist.inductor("L1", "mid", "rail", 1e-3, series_resistance=0.5)
    netlist.resistor("R2", "rail", "0", 100.0)
    netlist.diode("D1", "rail", "dl")
    netlist.resistor("R3", "dl", "0", 220.0)
    netlist.ammeter("A1", "rail", "am")
    netlist.resistor("R4", "am", "0", 470.0)
    return netlist


def assert_solutions_close(fast, exact, tol=1e-8):
    assert set(fast.node_voltages) >= set(exact.node_voltages)
    for node, value in exact.node_voltages.items():
        assert math.isclose(
            fast.node_voltages[node], value, rel_tol=tol, abs_tol=tol
        ), node
    for name, current in exact.branch_currents.items():
        assert math.isclose(
            fast.branch_currents[name], current, rel_tol=tol, abs_tol=tol
        ), name


class TestBaseline:
    def test_baseline_matches_plain_solver(self):
        netlist = ladder()
        compiled = CompiledSystem(netlist)
        assert_solutions_close(compiled.solve(), dc_operating_point(netlist))

    def test_baseline_cached(self):
        compiled = CompiledSystem(ladder())
        first = compiled.solve()
        assert compiled.solve() is first
        assert compiled.stats.solves == 1


class TestIncrementalFaults:
    @pytest.mark.parametrize(
        "name, replacement",
        [
            ("R2", Resistor("R2", "rail", "0", 1e-3)),  # short
            ("R2", Resistor("R2", "rail", "0", 150.0)),  # drift
            ("R2", None),  # open; rail still held by L1/A1/R4
            ("D1", None),  # diode open
            ("V1", VoltageSource("V1", "in", "0", 3.3)),  # source droop
        ],
    )
    def test_replacement_matches_full_reassembly(self, name, replacement):
        netlist = ladder()
        compiled = CompiledSystem(netlist)
        compiled.solve()
        fast = compiled.solve_replacement(name, replacement)
        if replacement is None:
            reference = dc_operating_point(netlist.without(name))
        else:
            reference = dc_operating_point(
                netlist.with_replacement(name, replacement)
            )
        assert_solutions_close(fast, reference)
        assert compiled.stats.full_rebuilds == 0

    def test_inductor_short_stays_low_rank(self):
        netlist = ladder()
        compiled = CompiledSystem(netlist)
        compiled.solve()
        fast = compiled.solve_replacement(
            "L1", Resistor("L1", "mid", "rail", 1e-3)
        )
        reference = dc_operating_point(
            netlist.with_replacement("L1", Resistor("L1", "mid", "rail", 1e-3))
        )
        assert_solutions_close(fast, reference)
        assert compiled.stats.full_rebuilds == 0
        assert compiled.stats.smw_solves + compiled.stats.direct_solves > 0

    def test_inductor_open_pinches_branch_current_off(self):
        netlist = ladder()
        compiled = CompiledSystem(netlist)
        compiled.solve()
        fast = compiled.solve_replacement("L1", None)
        reference = dc_operating_point(netlist.without("L1"))
        for node, value in reference.node_voltages.items():
            assert math.isclose(
                fast.node_voltages[node], value, rel_tol=1e-6, abs_tol=1e-6
            ), node
        assert abs(fast.branch_currents["L1"]) < 1e-9
        assert compiled.stats.full_rebuilds == 0

    def test_identity_replacement_reuses_baseline(self):
        netlist = ladder()
        compiled = CompiledSystem(netlist)
        baseline = compiled.solve()
        again = compiled.solve_replacement(
            "R2", Resistor("R2", "rail", "0", 100.0)
        )
        assert again is baseline
        assert compiled.stats.baseline_reuses == 1


class TestFallbacks:
    def test_orphaning_removal_falls_back(self):
        """Removing the sole element on a node must take the exact path:
        the naive solver drops the orphaned node entirely, which no
        low-rank update of the baseline matrix can express."""
        netlist = ladder()
        netlist.resistor("R5", "rail", "end", 50.0)
        compiled = CompiledSystem(netlist)
        compiled.solve()
        fast = compiled.solve_replacement("R5", None)
        reference = dc_operating_point(netlist.without("R5"))
        assert_solutions_close(fast, reference)
        assert compiled.stats.full_rebuilds == 1

    def test_rewired_replacement_falls_back(self):
        netlist = ladder()
        compiled = CompiledSystem(netlist)
        compiled.solve()
        moved = Resistor("R2", "rail", "dl", 100.0)  # different nodes
        fast = compiled.solve_replacement("R2", moved)
        reference = dc_operating_point(netlist.with_replacement("R2", moved))
        assert_solutions_close(fast, reference)
        assert compiled.stats.full_rebuilds == 1

    def test_gmin_only_node_falls_back(self):
        """A removal that leaves a node held only by a diode (no static
        conductance, no branch row) must take the exact path: the naive
        solver computes the near-floating node directly."""
        netlist = Netlist("stub")
        netlist.voltage_source("V1", "in", "0", 5.0)
        netlist.resistor("R1", "in", "a", 10.0)
        netlist.diode("D1", "a", "b")
        netlist.resistor("R2", "b", "0", 100.0)
        compiled = CompiledSystem(netlist)
        compiled.solve()
        fast = compiled.solve_replacement("R1", None)
        reference = dc_operating_point(netlist.without("R1"))
        assert compiled.stats.full_rebuilds == 1
        for node, value in reference.node_voltages.items():
            assert math.isclose(
                fast.node_voltages[node], value, rel_tol=1e-6, abs_tol=1e-6
            ), node

    def test_results_identical_across_many_faults(self):
        """Sweep every element through a representative fault and compare
        against full re-assembly — the per-element acceptance check."""
        netlist = ladder()
        compiled = CompiledSystem(netlist)
        compiled.solve()
        for element in list(netlist.elements()):
            if isinstance(element, VoltageSource):
                continue
            fast = compiled.solve_replacement(element.name, None)
            reference = dc_operating_point(netlist.without(element.name))
            for node, value in reference.node_voltages.items():
                assert math.isclose(
                    fast.node_voltages[node],
                    value,
                    rel_tol=1e-6,
                    abs_tol=1e-6,
                ), (element.name, node)


class TestGminRetry:
    def test_caller_gmin_never_weakened(self):
        """The singular-matrix retry must strengthen the caller's gmin, not
        reset it to the default floor (regression: a caller-supplied 1e-6
        used to retry at 1e-9, *weaker* than what the caller asked for)."""
        assert max(1e-6 * 1e3, 1e-9) == pytest.approx(1e-3)
        assert _MAX_GMIN_RETRIES >= 1

    def test_solver_works_at_strong_gmin(self):
        netlist = ladder()
        strong = dc_operating_point(netlist, gmin=1e-9)
        weak = dc_operating_point(netlist, gmin=1e-12)
        for node in weak.node_voltages:
            assert math.isclose(
                strong.node_voltages[node],
                weak.node_voltages[node],
                rel_tol=1e-4,
                abs_tol=1e-6,
            )


# -- the low-rank route ----------------------------------------------------
# ``ladder()`` has 8 unknowns, so under the default backend every fault
# above takes the dense direct path.  The tests below drive the same fault
# classes through the batched low-rank route: on the sparse backend, and
# on the dense backend with the ladder padded past _DIRECT_MAX_SIZE.

#: route id -> (backend, padding sections)
ROUTES = {"sparse": ("sparse", 0), "dense-large": ("dense", 45)}


def padded(netlist: Netlist, sections: int) -> Netlist:
    """``netlist`` plus a resistive side chain of ``sections`` nodes off
    ``in`` — more unknowns, same faults."""
    previous = "in"
    for k in range(sections):
        netlist.resistor(f"RS{k}", previous, f"s{k}", 10.0)
        netlist.resistor(f"RG{k}", f"s{k}", "0", 1e3)
        previous = f"s{k}"
    return netlist


def route_system(route, netlist):
    backend, sections = ROUTES[route]
    netlist = padded(netlist, sections)
    compiled = CompiledSystem(netlist, backend=backend)
    compiled.solve()
    return netlist, compiled


def faulty(netlist, name, replacement):
    if replacement is None:
        return netlist.without(name)
    return netlist.with_replacement(name, replacement)


LOW_RANK_FAULTS = [
    ("R2", Resistor("R2", "rail", "0", 1e-3)),  # short
    ("R2", Resistor("R2", "rail", "0", 150.0)),  # drift
    ("R2", None),  # open
    ("D1", None),  # diode open
    ("V1", VoltageSource("V1", "in", "0", 3.3)),  # source droop
    ("L1", Resistor("L1", "mid", "rail", 1e-3)),  # inductor short
]


def test_large_dense_ladder_is_past_the_direct_path():
    _, compiled = route_system("dense-large", ladder())
    assert compiled.backend == "dense"
    assert compiled._system.size > _DIRECT_MAX_SIZE
    assert compiled.stats.direct_solves == 0
    assert compiled.stats.smw_solves == 1  # the baseline, a batch of one


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("name, replacement", LOW_RANK_FAULTS)
def test_fault_classes_on_low_rank_route(route, name, replacement):
    netlist, compiled = route_system(route, ladder())
    fast = compiled.solve_replacement(name, replacement)
    assert_solutions_close(
        fast, dc_operating_point(faulty(netlist, name, replacement))
    )
    assert compiled.stats.full_rebuilds == 0
    assert compiled.stats.direct_solves == 0
    assert compiled.stats.solves == 2


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_batch_matches_batch_of_one(route):
    """One batch over every fault class gives each fault the solution and
    Newton iteration count it gets alone, and the same counters."""
    netlist, batched = route_system(route, ladder())
    _, single = route_system(route, ladder())
    solutions = batched.solve_replacements(LOW_RANK_FAULTS)
    for (name, replacement), solution in zip(LOW_RANK_FAULTS, solutions):
        alone = single.solve_replacement(name, replacement)
        assert solution.iterations == alone.iterations, name
        assert_solutions_close(solution, alone, tol=1e-10)
    assert batched.stats.to_dict() == single.stats.to_dict()


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_inductor_open_on_low_rank_route(route):
    netlist, compiled = route_system(route, ladder())
    fast = compiled.solve_replacement("L1", None)
    reference = dc_operating_point(netlist.without("L1"))
    for node, value in reference.node_voltages.items():
        assert math.isclose(
            fast.node_voltages[node], value, rel_tol=1e-6, abs_tol=1e-6
        ), node
    assert abs(fast.branch_currents["L1"]) < 1e-9
    assert compiled.stats.full_rebuilds == 0


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_identity_replacement_reuses_baseline_on_low_rank_route(route):
    _, compiled = route_system(route, ladder())
    solutions = compiled.solve_replacements(
        [("R2", Resistor("R2", "rail", "0", 100.0))] * 2
    )
    assert solutions[0] is solutions[1] is compiled.solve()
    assert compiled.stats.baseline_reuses == 2


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_fallbacks_on_low_rank_route(route):
    """Orphaning removals, rewired replacements and gmin-only nodes are
    unsolved in the batch and re-assembled exactly, one rebuild each."""
    base = ladder()
    base.resistor("R5", "rail", "end", 50.0)
    netlist, compiled = route_system(route, base)
    faults = [("R5", None), ("R2", Resistor("R2", "rail", "dl", 100.0))]
    assert compiled.solve_replacements(faults) == [None, None]
    for name, replacement in faults:
        assert_solutions_close(
            compiled.solve_replacement(name, replacement),
            dc_operating_point(faulty(netlist, name, replacement)),
        )
    assert compiled.stats.full_rebuilds == 2

    stub = Netlist("stub")
    stub.voltage_source("V1", "in", "0", 5.0)
    stub.resistor("R1", "in", "a", 10.0)
    stub.diode("D1", "a", "b")
    stub.resistor("R2", "b", "0", 100.0)
    stub, compiled = route_system(route, stub)
    fast = compiled.solve_replacement("R1", None)
    assert compiled.stats.full_rebuilds == 1
    for node, value in dc_operating_point(stub.without("R1")).node_voltages.items():
        assert math.isclose(
            fast.node_voltages[node], value, rel_tol=1e-6, abs_tol=1e-6
        ), node


# -- the batch's failure paths -----------------------------------------------


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_residual_rejected_column_takes_full_rebuild(route, monkeypatch):
    """A 1e-15 Ω short cancels every digit of the Woodbury correction: its
    column fails the residual check and leaves the batch, while the other
    column of the same batch is solved."""
    hostile = ("R2", Resistor("R2", "rail", "0", 1e-15))
    drift = ("R3", Resistor("R3", "dl", "0", 150.0))
    netlist, compiled = route_system(route, ladder())
    rejected, solved = compiled.solve_replacements([hostile, drift])
    assert rejected is None and solved is not None
    assert compiled.stats.full_rebuilds == 0
    fast = compiled.solve_replacement(*hostile)
    assert compiled.stats.full_rebuilds == 1
    assert_solutions_close(fast, dc_operating_point(faulty(netlist, *hostile)))
    # It is the residual check that rejects it.
    monkeypatch.setattr(mna_mod, "_SMW_RESIDUAL_TOL", math.inf)
    _, lax = route_system(route, ladder())
    assert lax.solve_replacements([hostile])[0] is not None


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_iteration_cap_does_not_delay_other_columns(route, monkeypatch):
    """Under a tight Newton cap the diode faults that need more passes
    leave the batch; the others keep their own iteration counts, and each
    fault ends exactly as it does alone."""
    faults = [
        ("R3", Resistor("R3", "dl", "0", 1e-3)),  # moves the diode bias far
        ("R2", Resistor("R2", "rail", "0", 150.0)),
        ("D1", None),  # no diode left: one pass
    ]
    _, free = route_system(route, ladder())
    free_counts = [s.iterations for s in free.solve_replacements(faults)]
    cap = 2
    assert max(free_counts) > cap >= min(free_counts)
    # Baselines are solved before the cap applies.
    _, capped = route_system(route, ladder())
    alone = [route_system(route, ladder())[1] for _ in faults]
    monkeypatch.setattr(mna_mod, "_MAX_NEWTON_ITERATIONS", cap)
    solutions = capped.solve_replacements(faults)
    for count, solution, fault, single in zip(
        free_counts, solutions, faults, alone
    ):
        if count > cap:
            assert solution is None
        else:
            assert solution.iterations == count
        assert (single.solve_replacements([fault])[0] is None) == (
            solution is None
        )
    # A capped fault ends as the per-fault path did: full re-assembly,
    # which hits the same cap and raises.
    with pytest.raises(CircuitError, match="did not converge"):
        capped.solve_replacement(*faults[0])
    assert capped.stats.full_rebuilds == 1


def test_singular_capacitance_fails_only_its_column():
    """A singular stacked system poisons only its own column's weights."""
    matrices = np.array([[[2.0]], [[0.0]], [[4.0]]])
    weights = mna_mod._solve_stacked(matrices, np.array([[1.0], [1.0], [2.0]]))
    assert weights[0, 0] == 0.5 and weights[2, 0] == 0.5
    assert np.isnan(weights[1, 0])
