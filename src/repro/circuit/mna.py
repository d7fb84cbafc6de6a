"""Modified Nodal Analysis — DC operating point.

Unknowns are the non-ground node voltages plus one branch current per
voltage-like element (voltage sources, ammeters and — at DC — inductors,
which behave as 0 V branches in series with their parasitic resistance).
Nonlinear diodes are solved by Newton iteration under one policy shared by
every solve loop here and in :mod:`repro.circuit.transient`: SPICE-style
``pnjlim`` junction limiting (forward steps above a junction's critical
voltage are log-limited, reverse steps are free), a stop once no diode
bias moves by more than :data:`_NEWTON_TOLERANCE`, and a cap of
:data:`_MAX_NEWTON_ITERATIONS`.  A small ``gmin`` conductance from every
node to ground keeps matrices regular when fault injection leaves nodes
floating (an *open* failure must still produce a solution: the sensors
simply read ~0).

Two performance layers sit on top of the plain solver:

- :class:`_System` caches the *constant* part of the assembly (all linear
  stamps plus the independent-source RHS), so Newton iteration only
  re-stamps the diode companion models — through index arrays built once
  (:class:`_Junctions`) — on a copy of the cached matrix;
- :class:`CompiledSystem` additionally caches the LU factorization of the
  constant matrix and solves batches of single-element replacements (the
  fault-injection workload) through low-rank Sherman–Morrison–Woodbury
  updates of that factorization, all of a batch's Newton iterations in
  lockstep, with an exact fallback to full re-assembly whenever a
  replacement changes the topology, opens a bridge of the stiff-element
  graph, or its update fails a check.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import obs
from repro.circuit import backends as _backends
from repro.circuit.netlist import (
    Ammeter,
    Capacitor,
    CircuitError,
    CurrentSource,
    Diode,
    Element,
    GROUND,
    Inductor,
    Netlist,
    Resistor,
    Switch,
    VoltageSource,
)

#: Ground aliases accepted in netlists.
GROUND_NAMES = (GROUND, "GND", "gnd", "ground")

#: Newton iterations (lockstep passes) before a solve gives up.
_MAX_NEWTON_ITERATIONS = 200
#: Newton stops once no diode bias moves by more than this many volts.
_NEWTON_TOLERANCE = 1e-9
#: The diode bias a cold Newton iteration starts from, in volts.
_COLD_BIAS = 0.6
#: Floor of a diode companion's conductance.  Well below gmin: a floor
#: equal to gmin makes a reverse-biased diode on a gmin-held island close
#: only half its remaining distance per Newton step (System B's ``F0A``
#: rebuild: 30 extra iterations); gmin already keeps the matrix regular.
_MIN_JUNCTION_CONDUCTANCE = 1e-15
_DEFAULT_GMIN = 1e-12

#: How many times a singular solve may retry with a stronger gmin.
_MAX_GMIN_RETRIES = 2

#: Relative residual above which a Woodbury-updated solution is rejected
#: (the caller then falls back to full assembly — exactness over speed).
_SMW_RESIDUAL_TOL = 1e-8

#: Iterative-refinement passes after a Woodbury solve.  Large companion
#: conductances mid-Newton cancel digits in the low-rank correction; each
#: pass costs O(n²) and recovers them.
_MAX_SMW_REFINEMENTS = 3

#: The dual of gmin: an *open* branch element (inductor) keeps its row but
#: its series resistance grows to this, forcing the branch current to the
#: same ~1e-12-conductance floor gmin imposes on floating nodes.
_OPEN_RESISTANCE = 1e12

#: At or below this many unknowns a dense-backend fault solve skips the
#: Woodbury machinery entirely: delta-stamping a copy of the cached constant
#: matrix and calling LAPACK directly beats the Python-side low-rank
#: bookkeeping (capacitance system, residual checks, refinement passes),
#: which is why BENCH_injection.json used to show incremental at 0.4x of
#: naive on the small case studies.
_DIRECT_MAX_SIZE = 48


def _is_ground(node: str) -> bool:
    return node in GROUND_NAMES


# ---------------------------------------------------------------------------
# The Newton policy: companion models, junction limiting, step test, cap
# ---------------------------------------------------------------------------


def _critical_voltage(i_sat: np.ndarray, n_vt: np.ndarray) -> np.ndarray:
    """``pnjlim``'s critical voltage ``n·V_T·ln(n·V_T / (√2·I_s))``: above
    it the exponential bends so sharply that a full Newton step overshoots."""
    return n_vt * np.log(n_vt / (math.sqrt(2.0) * i_sat))


def _companions(
    bias: np.ndarray, i_sat: np.ndarray, n_vt: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Linearised diodes at ``bias``: (conductance, equivalent current)."""
    vd = np.minimum(bias, 2.0)  # exp() overflow guard
    exp_term = np.exp(vd / n_vt)
    conductance = np.maximum(
        i_sat * exp_term / n_vt, _MIN_JUNCTION_CONDUCTANCE
    )
    return conductance, i_sat * (exp_term - 1.0) - conductance * vd


def _limit_junctions(
    old: np.ndarray, new: np.ndarray, n_vt: np.ndarray, v_crit: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One Newton update of diode biases (elementwise; rows on the last axis).

    SPICE ``pnjlim``: a forward step of more than ``2·n·V_T`` that ends
    above the critical voltage moves only ``n·V_T·ln(1 + Δ/(n·V_T))`` (from
    a zero or reverse bias: to ``n·V_T·ln(v/(n·V_T))``), so a junction
    climbs the exponential without overshooting it; reverse steps are
    free, so a junction swinging tens of volts into cutoff gets there in
    one step.  Returns the next biases and, per row, whether every raw
    step was within :data:`_NEWTON_TOLERANCE`.
    """
    step = new - old
    converged = ~(np.abs(step) > _NEWTON_TOLERANCE).any(axis=-1)
    forward = (step > 2.0 * n_vt) & (new > v_crit)
    if forward.any():
        limited = np.where(
            old > 0.0,
            old + n_vt * np.log1p(np.maximum(step, 0.0) / n_vt),
            n_vt * np.log(np.maximum(new, n_vt) / n_vt),
        )
        new = np.where(forward, limited, new)
    return new, converged


class _Junctions:
    """A set of diodes of one MNA system as index arrays.

    Built once per diode set, so a Newton iteration reads the biases,
    evaluates the companions, stamps them and limits the step in a fixed
    handful of array operations, however many diodes there are.
    """

    __slots__ = (
        "count", "i_sat", "n_vt", "v_crit", "_ends", "_live", "_flat",
        "_rows", "_cols", "_owner", "_sign", "_rhs_rows", "_rhs_owner",
        "_rhs_sign",
    )

    def __init__(self, system: "_System", diodes: Sequence[Diode]) -> None:
        self.count = len(diodes)
        self.i_sat = np.array([d.saturation_current for d in diodes])
        self.n_vt = np.array([d.ideality * d.thermal_voltage for d in diodes])
        self.v_crit = _critical_voltage(self.i_sat, self.n_vt)
        pos = [system._idx(d.node_pos) for d in diodes]
        neg = [system._idx(d.node_neg) for d in diodes]
        # Bias = x[pos] - x[neg]; a grounded end reads x[-1] with weight 0.
        self._ends = np.array(
            [[-1 if i is None else i for i in side] for side in (pos, neg)],
            dtype=np.intp,
        ).reshape(2, -1)
        self._live = np.array(
            [[0.0 if i is None else weight for i in side]
             for side, weight in ((pos, 1.0), (neg, -1.0))]
        ).reshape(2, -1)
        # Companion stamps, each owned by one diode: (row, col, sign) per
        # matrix entry and (row, sign) per RHS entry.
        matrix: List[Tuple[int, int, float, int]] = []
        rhs: List[Tuple[int, float, int]] = []
        for m, (i, j) in enumerate(zip(pos, neg)):
            if i is not None:
                matrix.append((i, i, 1.0, m))
                rhs.append((i, -1.0, m))
            if j is not None:
                matrix.append((j, j, 1.0, m))
                rhs.append((j, 1.0, m))
            if i is not None and j is not None:
                matrix += [(i, j, -1.0, m), (j, i, -1.0, m)]
        stamps = np.array(matrix, dtype=float).reshape(-1, 4).T
        self._rows, self._cols, self._owner = stamps[[0, 1, 3]].astype(np.intp)
        self._sign = stamps[2]
        self._flat = self._rows * system.size + self._cols
        stamps = np.array(rhs, dtype=float).reshape(-1, 3).T
        self._rhs_rows, self._rhs_owner = stamps[[0, 2]].astype(np.intp)
        self._rhs_sign = stamps[1]

    def biases(self, x: np.ndarray) -> np.ndarray:
        """Anode-minus-cathode voltage of each diode in solution ``x``."""
        ends = x[self._ends]
        ends *= self._live
        return ends[0] + ends[1]

    def stamp_rhs(self, rhs: np.ndarray, ieq: np.ndarray) -> None:
        """Add the companions' equivalent currents to ``rhs`` in place."""
        np.add.at(rhs, self._rhs_rows, self._rhs_sign * ieq[self._rhs_owner])

    def stamp_dense(self, matrix: np.ndarray, g: np.ndarray) -> None:
        """Add the companions' conductances to ``matrix`` in place."""
        np.add.at(matrix.reshape(-1), self._flat, self._sign * g[self._owner])

    def stamped_csc(self, matrix, g: np.ndarray):
        """``matrix`` (CSC) plus the companions' conductances."""
        return matrix + _backends.triplets_to_csc(
            matrix.shape[0],
            (self._rows, self._cols, self._sign * g[self._owner]),
        )


_NO_DIODES = np.zeros(0)


def _newton(junctions: _Junctions, bias: np.ndarray, linear):
    """Newton iteration of one circuit under the shared policy.

    ``linear(g, ieq)`` solves the MNA system with the diode companions
    ``(g, ieq)`` stamped in and returns the solution vector, or ``None`` to
    give up.  Returns ``(solution, iterations)``, or ``None`` when
    ``linear`` gave up or :data:`_MAX_NEWTON_ITERATIONS` ran out.
    """
    if not junctions.count:
        x = linear(_NO_DIODES, _NO_DIODES)
        return None if x is None else (x, 1)
    for iterations in range(1, _MAX_NEWTON_ITERATIONS + 1):
        g, ieq = _companions(bias, junctions.i_sat, junctions.n_vt)
        x = linear(g, ieq)
        if x is None:
            return None
        bias, converged = _limit_junctions(
            bias, junctions.biases(x), junctions.n_vt, junctions.v_crit
        )
        if converged:
            return x, iterations
    return None


class DCSolution:
    """DC operating point: node voltages and branch currents.

    Backed by the MNA solution vector and its system's index maps, so a
    sensor read is one index lookup; the per-name dicts are built only when
    :attr:`node_voltages` / :attr:`branch_currents` are asked for.
    """

    __slots__ = ("vector", "iterations", "_nodes", "_branches")

    def __init__(
        self,
        vector: np.ndarray,
        nodes: Dict[str, int],
        branches: Dict[str, int],
        iterations: int = 1,
    ) -> None:
        self.vector = vector
        self.iterations = iterations
        self._nodes = nodes
        self._branches = branches

    @property
    def node_voltages(self) -> Dict[str, float]:
        return {name: float(self.vector[i]) for name, i in self._nodes.items()}

    @property
    def branch_currents(self) -> Dict[str, float]:
        vector = self.vector
        return {name: float(vector[i]) for name, i in self._branches.items()}

    def voltage(self, node: str) -> float:
        if _is_ground(node):
            return 0.0
        index = self._nodes.get(node)
        if index is None:
            raise CircuitError(f"no node named {node!r}")
        return float(self.vector[index])

    def voltage_across(self, node_pos: str, node_neg: str) -> float:
        return self.voltage(node_pos) - self.voltage(node_neg)

    def current(self, element_name: str) -> float:
        """Branch current of a voltage source, ammeter or inductor."""
        index = self._branches.get(element_name)
        if index is None:
            raise CircuitError(
                f"element {element_name!r} has no tracked branch current "
                f"(tracked: {sorted(self._branches)})"
            )
        return float(self.vector[index])


class _System:
    """Index assignment and matrix assembly for one netlist.

    The linear stamps (everything except the diode companion models) are
    assembled once and cached; Newton iterations stamp the diode companions
    onto a copy through :meth:`junctions`.
    """

    def __init__(self, netlist: Netlist, gmin: float) -> None:
        self.netlist = netlist
        self.gmin = gmin
        self.node_index: Dict[str, int] = {}
        for node in netlist.nodes():
            if not _is_ground(node) and node not in self.node_index:
                self.node_index[node] = len(self.node_index)
        self.branch_elements: List[Element] = [
            e
            for e in netlist.elements()
            if isinstance(e, (VoltageSource, Ammeter, Inductor))
        ]
        self.branch_index: Dict[str, int] = {
            e.name: len(self.node_index) + i
            for i, e in enumerate(self.branch_elements)
        }
        self.size = len(self.node_index) + len(self.branch_elements)
        self.diodes: List[Diode] = [
            e for e in netlist.elements() if isinstance(e, Diode)
        ]
        self._parts: Optional[Tuple[_backends.Triplets, np.ndarray]] = None
        self._constant: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._constant_csc = None
        self._junctions: Optional[_Junctions] = None

    def _idx(self, node: str) -> Optional[int]:
        if _is_ground(node):
            return None
        return self.node_index[node]

    def _stamp_conductance(
        self, matrix: np.ndarray, n1: str, n2: str, conductance: float
    ) -> None:
        i, j = self._idx(n1), self._idx(n2)
        if i is not None:
            matrix[i, i] += conductance
        if j is not None:
            matrix[j, j] += conductance
        if i is not None and j is not None:
            matrix[i, j] -= conductance
            matrix[j, i] -= conductance

    def _stamp_current(
        self, rhs: np.ndarray, n_from: str, n_to: str, current: float
    ) -> None:
        """Current ``current`` flows out of ``n_from`` into ``n_to``."""
        i, j = self._idx(n_from), self._idx(n_to)
        if i is not None:
            rhs[i] -= current
        if j is not None:
            rhs[j] += current

    def _constant_parts(self) -> Tuple[_backends.Triplets, np.ndarray]:
        """Triplet stamps and RHS of the linear (non-diode) system.

        The stamps are emitted in exactly the historical sequential
        assembly order, so the dense materialisation (unbuffered
        ``np.add.at``) reproduces the old in-place assembly bit for bit,
        while the sparse backend builds its CSC matrix from the very same
        stream — both backends factorize the numerically identical system.
        """
        if self._parts is not None:
            return self._parts
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        rhs = np.zeros(self.size)

        def stamp(row: int, col: int, value: float) -> None:
            rows.append(row)
            cols.append(col)
            vals.append(value)

        def stamp_conductance(n1: str, n2: str, conductance: float) -> None:
            i, j = self._idx(n1), self._idx(n2)
            if i is not None:
                stamp(i, i, conductance)
            if j is not None:
                stamp(j, j, conductance)
            if i is not None and j is not None:
                stamp(i, j, -conductance)
                stamp(j, i, -conductance)

        for node_idx in self.node_index.values():
            stamp(node_idx, node_idx, self.gmin)

        for element in self.netlist.elements():
            if isinstance(element, Resistor):
                stamp_conductance(
                    element.node_pos, element.node_neg,
                    1.0 / element.resistance,
                )
            elif isinstance(element, Switch):
                resistance = (
                    element.on_resistance if element.closed else element.off_resistance
                )
                stamp_conductance(
                    element.node_pos, element.node_neg, 1.0 / resistance
                )
            elif isinstance(element, CurrentSource):
                self._stamp_current(
                    rhs, element.node_pos, element.node_neg, element.current
                )
            elif isinstance(element, Capacitor):
                continue  # open at DC
            elif isinstance(element, Diode):
                continue  # nonlinear: stamped per Newton iteration
            elif isinstance(element, (VoltageSource, Ammeter, Inductor)):
                k = self.branch_index[element.name]
                i, j = self._idx(element.node_pos), self._idx(element.node_neg)
                if i is not None:
                    stamp(i, k, 1.0)
                    stamp(k, i, 1.0)
                if j is not None:
                    stamp(j, k, -1.0)
                    stamp(k, j, -1.0)
                if isinstance(element, VoltageSource):
                    rhs[k] += element.voltage
                elif isinstance(element, Inductor):
                    # DC: v = i * R_series (0 V branch when R_series == 0)
                    stamp(k, k, -element.series_resistance)
            else:  # pragma: no cover - guarded by Netlist.add
                raise CircuitError(
                    f"unsupported element type {type(element).__name__}"
                )
        self._parts = ((rows, cols, vals), rhs)
        return self._parts

    def constant_rhs(self) -> np.ndarray:
        """The cached constant RHS (callers must not mutate it)."""
        return self._constant_parts()[1]

    def assemble_constant(self) -> Tuple[np.ndarray, np.ndarray]:
        """The linear stamps and RHS — everything except the diodes.

        Built once per system and cached; callers must not mutate the
        returned arrays (take a copy, as :meth:`assemble` does).
        """
        if self._constant is None:
            triplets, rhs = self._constant_parts()
            self._constant = (
                _backends.triplets_to_dense(self.size, triplets), rhs
            )
        return self._constant

    def assemble_constant_csc(self):
        """The constant matrix as CSC, for the sparse backend (cached)."""
        if self._constant_csc is None:
            triplets, _ = self._constant_parts()
            self._constant_csc = _backends.triplets_to_csc(
                self.size, triplets
            )
        return self._constant_csc

    def junctions(self) -> _Junctions:
        """All of this system's diodes as index arrays (built once)."""
        if self._junctions is None:
            self._junctions = _Junctions(self, self.diodes)
        return self._junctions

    def to_solution(self, vector: np.ndarray, iterations: int) -> DCSolution:
        return DCSolution(
            vector, self.node_index, self.branch_index, iterations
        )


def system_size(netlist: Netlist) -> int:
    """Number of MNA unknowns ``netlist`` solves for (0 for an empty one).

    Cheap (index assignment only, no assembly) — callers use it to pick
    solver backends and execution strategies before committing to a solve.
    """
    if len(netlist) == 0:
        return 0
    return _System(netlist, _DEFAULT_GMIN).size


def dc_operating_point(
    netlist: Netlist,
    gmin: float = _DEFAULT_GMIN,
    backend: Optional[str] = None,
    _retries_left: int = _MAX_GMIN_RETRIES,
) -> DCSolution:
    """Solve the DC operating point of ``netlist``.

    ``backend`` picks the linear-solver engine (see
    :mod:`repro.circuit.backends`): ``None`` uses the process default
    (``auto``: dense LAPACK below
    :data:`~repro.circuit.backends.SPARSE_AUTO_MIN_SIZE` unknowns, sparse
    SuperLU at or above it).

    Raises :class:`CircuitError` if Newton iteration fails to converge or the
    system matrix is singular even after retrying with a stronger ``gmin``
    (each retry multiplies the caller's ``gmin`` by 1e3, floored at 1e-9, so
    a large caller-supplied value is never silently weakened; the retry
    depth is capped).
    """
    if len(netlist) == 0:
        raise CircuitError("cannot solve an empty netlist")
    system = _System(netlist, gmin)
    if system.size == 0:
        raise CircuitError("netlist has no unknowns (everything grounded?)")
    resolved = _backends.resolve_backend(backend, system.size)
    junctions = system.junctions()
    base_rhs = system.constant_rhs()
    if resolved == "sparse":
        base_matrix = system.assemble_constant_csc()
    else:
        base_matrix = system.assemble_constant()[0]

    def linear(g: np.ndarray, ieq: np.ndarray) -> np.ndarray:
        rhs = base_rhs.copy()
        junctions.stamp_rhs(rhs, ieq)
        if resolved == "sparse":
            matrix = junctions.stamped_csc(base_matrix, g)
        else:
            matrix = base_matrix.copy()
            junctions.stamp_dense(matrix, g)
        return _backends.factorize(matrix, resolved).solve(rhs)

    with obs.span(
        "mna.newton",
        netlist=netlist.name,
        size=system.size,
        **{"solver.backend": resolved},
    ) as sp:
        try:
            result = _newton(
                junctions, np.full(junctions.count, _COLD_BIAS), linear
            )
        except _backends.FactorizationError:
            # Retry (a bounded number of times) with a stronger gmin.
            stronger = max(gmin * 1e3, 1e-9)
            if _retries_left > 0 and stronger > gmin:
                return dc_operating_point(
                    netlist, gmin=stronger, backend=backend,
                    _retries_left=_retries_left - 1,
                )
            raise CircuitError(
                f"singular MNA matrix for netlist {netlist.name!r}"
            ) from None
        if result is None:
            raise CircuitError(
                f"Newton iteration did not converge for netlist {netlist.name!r}"
            )
        solution, iterations = result
        sp.set(iterations=iterations)

    return system.to_solution(solution, iterations)


# ---------------------------------------------------------------------------
# Compiled systems: factorization reuse + low-rank fault updates
# ---------------------------------------------------------------------------


@dataclass
class SolveStats:
    """Counters a :class:`CompiledSystem` keeps about its solve mix."""

    solves: int = 0  # DC solutions produced
    newton_iterations: int = 0
    factorization_reuses: int = 0  # linear solves against the cached factors
    smw_solves: int = 0  # solutions via Sherman–Morrison–Woodbury updates
    full_rebuilds: int = 0  # fault solves that fell back to full assembly
    baseline_reuses: int = 0  # faults electrically identical to the baseline
    direct_solves: int = 0  # small-system faults solved by direct delta-stamp
    batched_columns: int = 0  # RHS columns solved through multi-RHS blocks

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


class _SmwFallback(Exception):
    """Internal: the low-rank path declined; use full assembly instead."""


@dataclass(frozen=True)
class _UpdatePlan:
    """A fault expressed against the baseline system.

    ``conductance`` carries ``(node_pos, node_neg, delta_g)`` rank-one
    terms; ``rhs_current`` carries ``(node_from, node_to, delta_current)``
    independent-source changes; ``rhs_branch`` carries ``(branch_row,
    delta_voltage)`` source-value changes; ``branch_diag`` carries
    ``(branch_row, delta)`` diagonal updates (an inductor's series
    resistance changing).  ``diodes`` is the effective nonlinear set for
    the faulty circuit and ``removed`` names the element an *open* failure
    deleted (if any).
    """

    conductance: Tuple[Tuple[str, str, float], ...] = ()
    rhs_current: Tuple[Tuple[str, str, float], ...] = ()
    rhs_branch: Tuple[Tuple[int, float], ...] = ()
    branch_diag: Tuple[Tuple[int, float], ...] = ()
    diodes: Tuple[Diode, ...] = ()
    removed: Optional[str] = None


def _static_conductance(element: Element) -> Optional[float]:
    """The constant-matrix conductance of ``element`` (None: not that kind)."""
    if isinstance(element, Resistor):
        return 1.0 / element.resistance
    if isinstance(element, Switch):
        return 1.0 / (
            element.on_resistance if element.closed else element.off_resistance
        )
    if isinstance(element, Capacitor):
        return 0.0  # open at DC
    return None


def _holds(element: Element) -> bool:
    """Whether ``element`` holds its nodes at a definite potential: branch
    elements (an extra KVL row), resistors and closed switches do; diodes
    (possibly at cutoff), capacitors (open at DC), current sources and open
    switches (1e9 Ω, a thousand times gmin) do not."""
    if isinstance(element, Switch):
        return element.closed
    return isinstance(element, (Resistor, VoltageSource, Ammeter, Inductor))


def _find_bridges(
    vertices: int, edges: Sequence[Tuple[int, int]]
) -> List[int]:
    """Indices of the bridges of a multigraph on ``range(vertices)``.

    Iterative Tarjan: a DFS edge to ``v`` is a bridge when nothing below
    ``v`` reaches back above it.  The walk skips only the edge it arrived
    by, so a parallel edge counts as a way back.
    """
    adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(vertices)]
    for k, (a, b) in enumerate(edges):
        adjacency[a].append((b, k))
        adjacency[b].append((a, k))
    order = [-1] * vertices
    low = [0] * vertices
    found: List[int] = []
    visited = 0
    for root in range(vertices):
        if order[root] >= 0:
            continue
        order[root] = low[root] = visited
        visited += 1
        stack = [(root, -1, iter(adjacency[root]))]
        while stack:
            node, via, pending = stack[-1]
            for neighbour, k in pending:
                if k == via:
                    continue
                if order[neighbour] >= 0:
                    if order[neighbour] < low[node]:
                        low[node] = order[neighbour]
                else:
                    order[neighbour] = low[neighbour] = visited
                    visited += 1
                    stack.append((neighbour, k, iter(adjacency[neighbour])))
                    break
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                    if low[node] > order[parent]:
                        found.append(via)
    return found


class CompiledSystem:
    """A netlist compiled for repeated solves under single-element faults.

    The constant MNA matrix is assembled and LU-factored once.  The healthy
    operating point and any fault expressible as a same-node element
    replacement (shorts, resistive degradations, parameter drifts, opens
    that leave no node orphaned) are then solved through low-rank
    Sherman–Morrison–Woodbury updates of that factorization, with diode
    companion models folded into the update as additional rank-one terms
    per Newton iteration.  :meth:`solve_replacements` runs the Newton
    iterations of a whole batch of faults in lockstep as numpy blocks
    (columns = faults); a single fault is a batch of one.

    Whenever a fault changes the system topology (removing or retyping a
    branch element, orphaning a node), opens a bridge of the stiff-element
    graph (see :meth:`_bridges`) or its updated solve fails a check, it
    leaves the batch and :meth:`solve_replacement` re-assembles it exactly
    via :func:`dc_operating_point`, so results never depend on the fast
    path being applicable.  A fault a batch declined goes straight to that
    rebuild; it never runs through the lockstep twice.
    """

    def __init__(
        self,
        netlist: Netlist,
        gmin: float = _DEFAULT_GMIN,
        backend: Optional[str] = None,
    ) -> None:
        if len(netlist) == 0:
            raise CircuitError("cannot solve an empty netlist")
        self.netlist = netlist
        self.gmin = gmin
        self._system = _System(netlist, gmin)
        if self._system.size == 0:
            raise CircuitError("netlist has no unknowns (everything grounded?)")
        #: Concrete solver backend ('dense' | 'sparse') for this system.
        self.backend = _backends.resolve_backend(backend, self._system.size)
        self.stats = SolveStats()
        self._lu: Optional[_backends.Factorization] = None
        self._lu_failed = False
        self._baseline: Optional[DCSolution] = None
        self._warm_vd: Optional[Dict[str, float]] = None
        #: A0^{-1} u for update directions, keyed by (pos index, neg index).
        self._column_cache: Dict[Tuple[int, int], np.ndarray] = {}
        #: Faults a batch left unsolved: they go straight to the rebuild.
        self._declined: Set[Tuple[str, Optional[Element]]] = set()
        self._bridge_names: Optional[FrozenSet[str]] = None
        self._node_refs: Dict[str, int] = {}
        for element in netlist.elements():
            for node in element.nodes:
                if not _is_ground(node):
                    self._node_refs[node] = self._node_refs.get(node, 0) + 1

    # -- public API -------------------------------------------------------

    def solve(self) -> DCSolution:
        """The healthy (baseline) operating point, computed once and cached."""
        if self._baseline is None:
            plan = _UpdatePlan(diodes=tuple(self._system.diodes))
            solution = self._solve_plans([plan])[0]
            if solution is None:
                solution = self._rebuild(self.netlist)
            self._baseline = solution
        return self._baseline

    def solve_replacement(
        self, name: str, replacement: Optional[Element]
    ) -> DCSolution:
        """Operating point with element ``name`` replaced (``None``: removed).

        A batch of one: solves through the cached factorization when the
        replacement only re-weights existing stamps, and falls back to
        exact full re-assembly otherwise — at once for a fault an earlier
        :meth:`solve_replacements` batch already declined.
        """
        if (name, replacement) not in self._declined:
            solution = self.solve_replacements([(name, replacement)])[0]
            if solution is not None:
                return solution
        with obs.span("mna.full_rebuild", element=name):
            if replacement is None:
                fault = self.netlist.without(name)
            else:
                fault = self.netlist.with_replacement(name, replacement)
            return self._rebuild(fault)

    def _rebuild(self, netlist: Netlist) -> DCSolution:
        """Exact full re-assembly of ``netlist``, counted in the stats."""
        self.stats.full_rebuilds += 1
        solution = dc_operating_point(netlist, self.gmin, backend=self.backend)
        self.stats.solves += 1
        self.stats.newton_iterations += solution.iterations
        return solution

    def solve_replacements(
        self, faults: Sequence[Tuple[str, Optional[Element]]]
    ) -> List[Optional[DCSolution]]:
        """Operating points of many single-element replacements at once.

        Every fault is planned against the baseline: one electrically
        identical to it returns the cached baseline itself, and the others
        are solved together by :meth:`_solve_plans`.  ``None`` marks a fault
        that changes the topology or failed a check of the low-rank route;
        it needs full re-assembly, which :meth:`solve_replacement` then does
        without a second attempt.  Solved faults read straight off one
        solution block, column ``k`` for fault ``k``.
        """
        plans = [self._plan_update(name, repl) for name, repl in faults]
        solutions: List[Optional[DCSolution]] = [None] * len(plans)
        batch: List[int] = []
        for k, plan in enumerate(plans):
            if plan is not None and self._is_baseline_plan(plan):
                solutions[k] = self.solve()
                self.stats.baseline_reuses += 1
            elif plan is not None:
                batch.append(k)
        solved = self._solve_plans([plans[k] for k in batch])
        for k, solution in zip(batch, solved):
            solutions[k] = solution
        self._declined.update(
            fault for fault, solution in zip(faults, solutions)
            if solution is None
        )
        return solutions

    def _solve_plans(
        self, plans: Sequence[_UpdatePlan]
    ) -> List[Optional[DCSolution]]:
        """Small dense systems solve each plan directly (the Woodbury
        bookkeeping, and even the LU factorization, is pure overhead at
        that size); all others go through the lockstep low-rank route."""
        if not plans:
            return []
        if self.backend == "dense" and self._system.size <= _DIRECT_MAX_SIZE:
            return [self._solve_direct(plan) for plan in plans]
        try:
            block, iterations = self._solve_low_rank(plans)
        except _SmwFallback:
            return [None] * len(plans)  # no reusable factorization
        return [
            None if count is None
            else self._system.to_solution(block[:, k], count)
            for k, count in enumerate(iterations)
        ]

    # -- update planning --------------------------------------------------

    def _is_baseline_plan(self, plan: _UpdatePlan) -> bool:
        return (
            not plan.conductance
            and not plan.rhs_current
            and not plan.rhs_branch
            and not plan.branch_diag
            and list(plan.diodes) == list(self._system.diodes)
        )

    def _plan_update(
        self, name: str, replacement: Optional[Element]
    ) -> Optional[_UpdatePlan]:
        """Express the fault as a low-rank update, or ``None`` if it changes
        the topology (the caller then re-assembles from scratch)."""
        original = self.netlist.element(name)
        system = self._system
        if name in self._bridges() and (
            replacement is None or not _holds(replacement)
        ):
            # Opening a bridge of the stiff-element graph (removing it, or
            # replacing it by an open switch, a diode or a capacitor)
            # strands an island held only by diodes, capacitors, open
            # switches and gmin.  Its update cancels ~12 digits against the
            # 1e12-stiff baseline (and the lockstep can oscillate to its
            # cap), while the naive path computes the island directly.
            return None

        # Branch elements own an extra unknown: only value tweaks that keep
        # the exact same stamps stay low-rank — a source voltage change, or
        # an inductor's series resistance moving (its branch row reads
        # ``v_p - v_n - R i = 0``, so *short* re-weights R to the failed
        # resistance and *open* grows R to ``_OPEN_RESISTANCE``, pinching
        # the branch current off at the gmin floor instead of re-shaping
        # the unknown vector).
        if isinstance(original, (VoltageSource, Ammeter, Inductor)):
            if (
                isinstance(original, VoltageSource)
                and isinstance(replacement, VoltageSource)
                and replacement.nodes == original.nodes
            ):
                row = system.branch_index[name]
                delta = replacement.voltage - original.voltage
                return _UpdatePlan(
                    rhs_branch=((row, delta),) if delta != 0.0 else (),
                    diodes=tuple(system.diodes),
                )
            if isinstance(original, Inductor):
                if replacement is None:
                    new_resistance = _OPEN_RESISTANCE
                elif (
                    isinstance(replacement, Resistor)
                    and set(replacement.nodes) == set(original.nodes)
                ):
                    new_resistance = replacement.resistance
                else:
                    return None
                row = system.branch_index[name]
                delta = original.series_resistance - new_resistance
                return _UpdatePlan(
                    branch_diag=((row, delta),) if delta != 0.0 else (),
                    diodes=tuple(system.diodes),
                )
            return None

        if replacement is None:
            # Removal must not orphan a node: the naive path would drop it
            # from the unknown vector, changing the system layout.
            if any(
                self._node_refs.get(node, 0) <= 1
                for node in original.nodes if not _is_ground(node)
            ):
                return None
        elif set(replacement.nodes) != set(original.nodes):
            return None  # rewired: stamps touch different unknowns

        conductance: List[Tuple[str, str, float]] = []
        rhs_current: List[Tuple[str, str, float]] = []
        diodes = list(system.diodes)

        # Remove the original element's contribution.
        if isinstance(original, Diode):
            diodes = [d for d in diodes if d.name != name]
        elif isinstance(original, CurrentSource):
            if original.current != 0.0:
                rhs_current.append(
                    (original.node_pos, original.node_neg, -original.current)
                )
        else:
            old_g = _static_conductance(original)
            if old_g is None:
                return None
            if old_g != 0.0:
                conductance.append(
                    (original.node_pos, original.node_neg, -old_g)
                )

        # Add the replacement's contribution.
        if replacement is None:
            pass
        elif isinstance(replacement, Diode):
            diodes.append(replacement)
        elif isinstance(replacement, CurrentSource):
            if replacement.current != 0.0:
                rhs_current.append(
                    (replacement.node_pos, replacement.node_neg,
                     replacement.current)
                )
        else:
            new_g = _static_conductance(replacement)
            if new_g is None:
                return None
            if new_g != 0.0:
                conductance.append(
                    (replacement.node_pos, replacement.node_neg, new_g)
                )

        if len(conductance) > 1:
            # Net out contributions on the same node pair at plan time, so
            # an equal-valued replacement degenerates to the baseline plan
            # (sign of the direction is irrelevant: g·uuᵀ == g·(−u)(−u)ᵀ).
            merged: Dict[Tuple[int, int], List[object]] = {}
            for n_pos, n_neg, delta_g in conductance:
                i, j = self._direction(n_pos, n_neg)
                key = (i, j) if i <= j else (j, i)
                entry = merged.get(key)
                if entry is None:
                    merged[key] = [n_pos, n_neg, delta_g]
                else:
                    entry[2] += delta_g
            conductance = [
                (n_pos, n_neg, delta_g)
                for n_pos, n_neg, delta_g in merged.values()
                if delta_g != 0.0
            ]

        return _UpdatePlan(
            conductance=tuple(conductance),
            rhs_current=tuple(rhs_current),
            diodes=tuple(diodes),
            removed=name if replacement is None else None,
        )

    def _bridges(self) -> FrozenSet[str]:
        """Elements whose opening strands a gmin island (computed once).

        The stiff-element graph has the circuit's nodes (ground as one
        vertex) as vertices and, as edges, every element that holds its
        nodes at a definite potential (:func:`_holds`).  Opening a bridge
        of that graph leaves a component with no stiff path to ground — a
        ``switch → fuse → ORing diode`` stub, say — and Tarjan's algorithm
        finds all bridges in one O(V + E) pass.
        """
        if self._bridge_names is None:
            system = self._system
            ground = system.size  # one vertex past the node indices
            names: List[str] = []
            edges: List[Tuple[int, int]] = []
            for element in self.netlist.elements():
                if not _holds(element):
                    continue
                i = system._idx(element.node_pos)
                j = system._idx(element.node_neg)
                names.append(element.name)
                edges.append(
                    (ground if i is None else i, ground if j is None else j)
                )
            self._bridge_names = frozenset(
                names[k] for k in _find_bridges(ground + 1, edges)
            )
        return self._bridge_names

    # -- the incremental solver -------------------------------------------

    def _ensure_lu(self) -> _backends.Factorization:
        """The cached factorization of the constant matrix (either backend).

        A constant matrix that does not factorize (exactly singular)
        latches "no reusable factorization": every solve then takes the
        full-assembly path.
        """
        if self._lu_failed:
            raise _SmwFallback
        if self._lu is None:
            system = self._system
            matrix = (
                system.assemble_constant_csc() if self.backend == "sparse"
                else system.assemble_constant()[0]
            )
            with obs.span(
                "mna.factorize",
                size=system.size,
                **{"solver.backend": self.backend},
            ):
                try:
                    self._lu = _backends.factorize(matrix, self.backend)
                except _backends.FactorizationError as exc:
                    self._factorization_failed(exc)
                    raise _SmwFallback from None
        return self._lu

    def _factorization_failed(self, exc: BaseException) -> None:
        """Latch the no-reusable-factorization state and count it."""
        self._lu_failed = True
        if obs.enabled():
            obs.counter("mna_lu_failures").inc()
            with obs.span(
                "mna.lu_failure",
                size=self._system.size,
                error=type(exc).__name__,
            ):
                pass

    def _base_solve(self, block: np.ndarray) -> np.ndarray:
        """``A0⁻¹ block`` (a column per right-hand side) through the cached
        factorization.  SuperLU solves the block in one call.  The dense
        backend solves it column by column: a multi-column LAPACK ``getrs``
        wakes every thread of the BLAS pool, which on a small shared host
        costs more than the level-2 solves it saves (System B campaign,
        2-core host: ~215 ms with block ``getrs``, ~120 ms per column).
        """
        try:
            factorization = self._ensure_lu()
            if self.backend == "sparse":
                return factorization.solve(block)
            return np.column_stack(
                [factorization.solve(col) for col in block.T]
            )
        except _backends.FactorizationError:
            raise _SmwFallback from None

    def _direction(self, n_pos: str, n_neg: str) -> Tuple[int, int]:
        """Index pair of an update direction u = e_i - e_j (-1: ground)."""
        i = self._system._idx(n_pos)
        j = self._system._idx(n_neg)
        return (-1 if i is None else i, -1 if j is None else j)

    def _warm_diode_voltages(self) -> Dict[str, float]:
        """Converged diode biases of the baseline, for Newton warm starts.

        Diode operating points barely move under most single faults; since
        Newton converges quadratically to the circuit's unique operating
        point, starting at the baseline bias instead of the generic 0.6 V
        reaches the same answer (to well under the convergence tolerance) in
        a fraction of the iterations.
        """
        if self._warm_vd is None:
            if self._baseline is None:
                return {}
            warm: Dict[str, float] = {}
            for diode in self._system.diodes:
                try:
                    warm[diode.name] = self._baseline.voltage_across(
                        diode.node_pos, diode.node_neg
                    )
                except CircuitError:
                    warm[diode.name] = 0.6
            self._warm_vd = warm
        return self._warm_vd

    # -- the direct small-system solver -----------------------------------

    def _solve_direct(self, plan: _UpdatePlan) -> Optional[DCSolution]:
        with obs.span(
            "mna.direct_solve",
            removed=plan.removed,
            size=self._system.size,
            **{"solver.backend": self.backend},
        ) as sp:
            solution = self._solve_direct_impl(plan)
            if solution is not None:
                sp.set(iterations=solution.iterations)
            return solution

    def _solve_direct_impl(self, plan: _UpdatePlan) -> Optional[DCSolution]:
        """Delta-stamp the cached constant matrix and solve densely.

        For systems of at most :data:`_DIRECT_MAX_SIZE` unknowns the
        Woodbury bookkeeping (capacitance system, residual check,
        refinement passes) costs more Python time than one tiny LAPACK
        solve per Newton iteration.  The plan's deltas are applied to a
        copy of the cached assembly once; each Newton iteration (the shared
        policy, warm-started at the baseline biases) then stamps the diode
        companions through the plan's precomputed index arrays and calls
        ``getrf``/``getrs`` — no netlist rebuild, while exactness still
        comes from solving the fully-assembled faulty system.
        """
        system = self._system
        base_matrix, base_rhs = system.assemble_constant()
        matrix_static = base_matrix.copy()
        rhs_static = base_rhs.copy()
        for n_pos, n_neg, delta_g in plan.conductance:
            system._stamp_conductance(matrix_static, n_pos, n_neg, delta_g)
        for n_from, n_to, delta_i in plan.rhs_current:
            system._stamp_current(rhs_static, n_from, n_to, delta_i)
        for row, delta_v in plan.rhs_branch:
            rhs_static[row] += delta_v
        for row, delta in plan.branch_diag:
            matrix_static[row, row] += delta

        if list(plan.diodes) == system.diodes:
            junctions = system.junctions()
        else:  # a diode fault: the plan's own diode set
            junctions = _Junctions(system, plan.diodes)
        warm = self._warm_diode_voltages()
        bias = np.array([warm.get(d.name, _COLD_BIAS) for d in plan.diodes])

        def linear(g: np.ndarray, ieq: np.ndarray) -> Optional[np.ndarray]:
            matrix = matrix_static.copy()
            rhs = rhs_static.copy()
            junctions.stamp_dense(matrix, g)
            junctions.stamp_rhs(rhs, ieq)
            try:
                x = _backends.DenseFactorization(matrix, overwrite=True).solve(
                    rhs
                )
            except _backends.FactorizationError:
                return None
            return x if np.isfinite(x).all() else None

        # Non-convergence: the full path would not converge either, but let
        # it make that call (and raise its canonical error) itself.
        result = _newton(junctions, bias, linear)
        if result is None:
            return None
        vector, iterations = result
        self.stats.solves += 1
        self.stats.newton_iterations += iterations
        self.stats.direct_solves += 1
        return system.to_solution(vector, iterations)

    # -- the batched low-rank solver ----------------------------------------

    def _solve_low_rank(
        self, plans: Sequence[_UpdatePlan]
    ) -> Tuple[np.ndarray, List[Optional[int]]]:
        """Newton–Woodbury for every plan in lockstep (columns = plans).

        Plan ``f``'s matrix is ``A0 + U_f diag(g_f) U_fᵀ``: its static
        conductance changes plus one diode companion gain per Newton pass,
        along unit-difference directions ``u = e_i - e_j``.  With
        ``Z = A0⁻¹ U`` cached over the batch's D distinct directions and the
        Gram matrix ``G = Uᵀ Z``, a pass costs one stacked solve of the
        small capacitance systems ``G[slots, slots] + diag(1/g)``, a few
        slot-wise gathers of ``Z`` and sparse residual products through the
        cached CSC matrix — the same work for every column at once.

        Each column keeps the per-fault checks: the baseline warm start,
        the shared Newton policy (``pnjlim`` junction limiting, the step
        test and the iteration cap), finite solutions, the residual against
        the true modified system, up to ``_MAX_SMW_REFINEMENTS`` refinement
        passes (only on the columns still above target) and rejection above
        ``_SMW_RESIDUAL_TOL``.  A column failing any of them leaves the
        batch with ``None`` iterations and never holds the others back.
        Returns the solution block and each plan's Newton iteration count.
        """
        with obs.span(
            "mna.batch_solve",
            faults=len(plans),
            size=self._system.size,
            **{"solver.backend": self.backend},
        ) as sp, np.errstate(all="ignore"):
            out, iterations, passes, smw_used = self._lockstep(plans)
            solved = [f for f, count in enumerate(iterations) if count]
            sp.set(passes=passes, fallbacks=len(plans) - len(solved))
        self.stats.solves += len(solved)
        self.stats.newton_iterations += sum(iterations[f] for f in solved)
        self.stats.smw_solves += int(np.count_nonzero(smw_used[solved]))
        return out, iterations

    def _lockstep(
        self, plans: Sequence[_UpdatePlan]
    ) -> Tuple[np.ndarray, List[Optional[int]], int, np.ndarray]:
        """:meth:`_solve_low_rank`'s loop: the solution block, iterations
        per plan, passes run, and which plans used a low-rank term."""
        from scipy.sparse import csr_matrix

        system = self._system
        size, count = system.size, len(plans)
        matrix = system.assemble_constant_csc()
        warm = self._warm_diode_voltages()

        # Each plan's slots are its distinct update directions (indices
        # into the batch-wide list); a diode's companion gain joins its
        # direction's slot.  Plans are padded to K slots and M diodes: a
        # padded slot points at direction D (a zero basis column).
        index: Dict[Tuple[int, int], int] = {}
        rhs_static = np.repeat(system.constant_rhs()[:, None], count, axis=1)
        layouts = []
        for f, plan in enumerate(plans):
            for n_from, n_to, delta_i in plan.rhs_current:
                system._stamp_current(rhs_static[:, f], n_from, n_to, delta_i)
            for row, delta_v in plan.rhs_branch:
                rhs_static[row, f] += delta_v
            where: Dict[int, int] = {}
            static: List[float] = []

            def slot(pair: Tuple[int, int]) -> int:
                d = index.setdefault(pair, len(index))
                if d not in where:
                    where[d] = len(static)
                    static.append(0.0)
                return where[d]

            for n_pos, n_neg, delta_g in plan.conductance:
                static[slot(self._direction(n_pos, n_neg))] += delta_g
            for row, delta in plan.branch_diag:
                static[slot((row, -1))] += delta
            diodes = [
                (slot(self._direction(d.node_pos, d.node_neg)),
                 d.saturation_current, d.ideality * d.thermal_voltage,
                 warm.get(d.name, 0.6))
                for d in plan.diodes
            ]
            layouts.append((list(where), static, diodes))
        directions = list(index)
        n_dir = len(directions)
        n_slots = max([1] + [len(layout[1]) for layout in layouts])
        n_diodes = max(len(layout[2]) for layout in layouts)
        dirs = np.full((count, n_slots), n_dir)
        static_gain = np.zeros((count, n_slots))
        d_slot = np.full((count, n_diodes), n_slots)
        d_par = np.zeros((3, count, n_diodes))  # I_s, n·V_T, bias
        d_par[1] = 1.0
        for f, (slot_dirs, static, diodes) in enumerate(layouts):
            dirs[f, : len(static)] = slot_dirs
            static_gain[f, : len(static)] = static
            for m, (k, *params) in enumerate(diodes):
                d_slot[f, m] = k
                d_par[:, f, m] = params
        valid = d_slot < n_slots
        d_dir = np.where(valid, np.take_along_axis(
            dirs, np.minimum(d_slot, n_slots - 1), axis=1), n_dir)
        bias = d_par[2]
        v_crit = _critical_voltage(d_par[0], d_par[1])  # padded: inf

        # U and Z = A0⁻¹ U as dense n×(D+1) bases whose last column is zero
        # (padded slots).  Directions no earlier batch cached are solved as
        # one multi-RHS block.
        u = np.zeros((size, n_dir + 1))
        for d, (i, j) in enumerate(directions):
            if i >= 0:
                u[i, d] = 1.0
            if j >= 0:
                u[j, d] -= 1.0
        missing = [d for d, pair in enumerate(directions)
                   if pair not in self._column_cache]
        if missing:
            solved = self._base_solve(u[:, missing])
            for col, d in enumerate(missing):
                self._column_cache[directions[d]] = solved[:, col]
            self.stats.factorization_reuses += len(missing)
            self.stats.batched_columns += len(missing)
            if obs.enabled():
                obs.counter("mna_batched_rhs_columns").inc(len(missing))
        z = np.zeros_like(u)
        for d, pair in enumerate(directions):
            z[:, d] = self._column_cache[pair]
        ut = csr_matrix(u[:, :n_dir].T)
        gram = np.zeros((n_dir + 1, n_dir + 1))
        gram[:n_dir, :n_dir] = ut @ z[:, :n_dir]

        def along(block: np.ndarray, slot_dirs: np.ndarray) -> np.ndarray:
            """``uᵀ x`` per column's slots (F×K; 0 on padded slots)."""
            projected = np.zeros((n_dir + 1, block.shape[1]))
            projected[:n_dir] = ut @ block
            return projected[slot_dirs, np.arange(len(slot_dirs))[:, None]]

        def combine(basis: np.ndarray, values: np.ndarray,
                    slot_dirs: np.ndarray) -> np.ndarray:
            """``Σ_k values[:, k]·basis[:, dir_k]`` per column (n×F): K
            gathers, where a dense (n×D)·(D×F) BLAS product would wake
            every thread of the BLAS pool for a tiny product."""
            out = np.zeros((size, len(values)))
            for k in range(values.shape[1]):
                gathered = basis[:, slot_dirs[:, k]]
                gathered *= values[:, k]
                out += gathered
            return out

        y_static = self._base_solve(rhs_static)
        self.stats.factorization_reuses += count
        out = np.zeros((size, count))
        iterations: List[Optional[int]] = [None] * count
        smw_used = np.zeros(count, dtype=bool)
        active = np.arange(count)
        passes = 0
        for passes in range(1, _MAX_NEWTON_ITERATIONS + 1):
            n_act = len(active)
            at = np.arange(n_act)[:, None]
            a_dirs, a_ddir = dirs[active], d_dir[active]
            a_valid = valid[active]
            # Diode companion models at each column's current bias.
            n_vt = d_par[1, active]
            g, ieq = _companions(bias[active], d_par[0, active], n_vt)
            g *= a_valid
            ieq *= a_valid
            gain = np.zeros((n_act, n_slots + 1))
            gain[:, :n_slots] = static_gain[active]
            np.add.at(gain, (np.broadcast_to(at, g.shape), d_slot[active]), g)
            gain = gain[:, :n_slots]
            live = np.abs(gain) >= 1e-18
            gain[~live] = 0.0
            smw_used[active] |= live.any(axis=1)
            # Stamping -ieq·u on the RHS moves A0⁻¹ rhs by -ieq·z.
            rhs = rhs_static[:, active]
            rhs -= combine(u, ieq, a_ddir)
            y = y_static[:, active]
            y -= combine(z, ieq, a_ddir)
            capacitance = gram[a_dirs[:, :, None], a_dirs[:, None, :]]
            capacitance[~live] = 0.0
            capacitance.transpose(0, 2, 1)[~live] = 0.0
            diagonal = np.arange(n_slots)
            capacitance[:, diagonal, diagonal] += np.where(
                live, 1.0 / np.where(live, gain, 1.0), 1.0
            )

            def woodbury(y_block: np.ndarray, sel: np.ndarray) -> np.ndarray:
                """``y_block`` (``A0⁻¹ rhs``) corrected in place."""
                b = np.where(live[sel], along(y_block, a_dirs[sel]), 0.0)
                weights = _solve_stacked(capacitance[sel], b)
                y_block -= combine(z, weights, a_dirs[sel])
                return y_block

            x = woodbury(y, np.arange(n_act))
            scale = 1.0 + np.max(np.abs(rhs), axis=0)
            error = np.full(n_act, np.inf)
            todo = np.arange(n_act)
            for attempt in range(_MAX_SMW_REFINEMENTS + 1):
                finite = np.isfinite(x[:, todo]).all(axis=0)
                error[todo[~finite]] = np.inf
                todo = todo[finite]
                if not todo.size:
                    break
                x_todo = x[:, todo]
                terms = gain[todo] * along(x_todo, a_dirs[todo])
                residual = rhs[:, todo]
                residual -= matrix @ x_todo
                residual -= combine(u, terms, a_dirs[todo])
                error[todo] = np.max(np.abs(residual), axis=0)
                more = error[todo] > 1e-12 * scale[todo]
                if attempt == _MAX_SMW_REFINEMENTS or not more.any():
                    break
                todo = todo[more]
                corrections = self._base_solve(residual[:, more])
                self.stats.factorization_reuses += todo.size
                x[:, todo] += woodbury(corrections, todo)
            ok = error <= _SMW_RESIDUAL_TOL * scale  # NaN fails too
            bias[active], converged = _limit_junctions(
                bias[active], along(x, a_ddir), n_vt, v_crit[active]
            )
            finished = ok & converged
            out[:, active[finished]] = x[:, finished]
            for f in active[finished]:
                iterations[f] = passes
            active = active[ok & ~converged]
            if not active.size:
                break
        return out, iterations, passes, smw_used

def _solve_stacked(matrices: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the stacked small systems ``matrices[f] w = rhs[f]`` at once.

    A singular system yields NaN weights, so its column fails the finite
    check alone instead of failing the whole stack.  The right-hand sides
    go in as ``(F, K, 1)``: numpy 2 broadcasts a stacked 1-D ``b``
    differently from numpy 1.
    """
    try:
        return np.linalg.solve(matrices, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        weights = np.full(rhs.shape, np.nan)
        for f in range(len(rhs)):
            try:
                weights[f] = np.linalg.solve(matrices[f], rhs[f])
            except np.linalg.LinAlgError:
                pass
        return weights
