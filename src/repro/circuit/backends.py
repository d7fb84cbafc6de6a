"""Pluggable linear-solver backends for the MNA engine.

The solver core used to be welded to dense LAPACK LU.  That is the right
call for the paper's case studies (tens of unknowns) but inverts the
scaling story on generated 1k–10k-element grids, where the MNA matrix is
overwhelmingly sparse.  This module makes the factorization engine a
pluggable *backend*:

- ``dense`` — LAPACK LU (``getrf``/``getrs``), single-threaded;
- ``sparse`` — ``scipy.sparse`` CSC assembly + SuperLU (``splu``), with
  multi-RHS solves: one factorization, a matrix whose columns are the
  right-hand sides, solved in a single call.

Both factorizations expose the same two-method surface (:meth:`solve` for a
vector or a column block), so :class:`repro.circuit.mna.CompiledSystem`,
:func:`repro.circuit.transient.transient` and
:func:`repro.circuit.ac.ac_analysis` can share one code path.

Selection is explicit (``backend="dense"`` / ``"sparse"``) or automatic
(``"auto"``: sparse at or above :data:`SPARSE_AUTO_MIN_SIZE` unknowns,
dense below — the measured crossover where SuperLU's setup cost is repaid
by O(nnz) solves).  The process-wide default is ``"auto"``, overridable via
:func:`set_default_backend` or the ``REPRO_SOLVER_BACKEND`` environment
variable (the ``--solver-backend`` CLI flag sets the former).

Observability: every factorization increments ``mna_dense_factorizations``
or ``mna_sparse_factorizations``; batched multi-RHS solves add their column
count to ``mna_batched_rhs_columns``; cache hits in a
:class:`FactorizationCache` increment ``mna_factorization_cache_hits``.
All counters are no-ops while ``repro.obs`` is disabled.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple, Union

import numpy as np
from scipy.linalg import get_lapack_funcs as _get_lapack_funcs

from repro import obs
from repro.circuit.netlist import CircuitError

__all__ = [
    "BACKENDS",
    "SPARSE_AUTO_MIN_SIZE",
    "FactorizationError",
    "Factorization",
    "DenseFactorization",
    "SparseFactorization",
    "FactorizationCache",
    "factorize",
    "factorize_triplets",
    "triplets_to_dense",
    "triplets_to_csc",
    "resolve_backend",
    "default_backend",
    "set_default_backend",
]

#: Recognised backend names (``auto`` resolves to one of the others).
BACKENDS = ("auto", "dense", "sparse")

#: ``auto`` switches from dense LAPACK to sparse SuperLU at this many MNA
#: unknowns.  Calibration (see docs/performance.md): below ~200 unknowns a
#: dense ``getrf`` beats SuperLU's symbolic analysis + permutation setup;
#: above it the O(nnz) triangular solves win by a growing margin (≈19x
#: factorization / ≈8x campaign wall on a 2.4k-unknown generated grid).
SPARSE_AUTO_MIN_SIZE = 192

#: Environment override for the process-wide default backend.
_ENV_VAR = "REPRO_SOLVER_BACKEND"

_DEFAULT_BACKEND: Optional[str] = None  # None: env var, else "auto"


class FactorizationError(CircuitError):
    """The matrix could not be factorized (singular or non-finite)."""


def _check_backend(name: str) -> str:
    if name not in BACKENDS:
        raise CircuitError(
            f"unknown solver backend {name!r} (choose from {BACKENDS})"
        )
    return name


def default_backend() -> str:
    """The process-wide default backend spec (``auto`` unless overridden)."""
    if _DEFAULT_BACKEND is not None:
        return _DEFAULT_BACKEND
    env = os.environ.get(_ENV_VAR, "").strip().lower()
    if env:
        return _check_backend(env)
    return "auto"


def set_default_backend(name: Optional[str]) -> None:
    """Override the process-wide default backend (``None``: back to env/auto)."""
    global _DEFAULT_BACKEND
    _DEFAULT_BACKEND = None if name is None else _check_backend(name)


def resolve_backend(spec: Optional[str], size: int) -> str:
    """Concrete backend (``dense``/``sparse``) for a system of ``size``.

    ``spec`` may be ``None`` (use the process default), ``"auto"``, or an
    explicit backend name.
    """
    name = default_backend() if spec is None else _check_backend(spec)
    if name == "auto":
        return "sparse" if size >= SPARSE_AUTO_MIN_SIZE else "dense"
    return name


# -- factorizations ----------------------------------------------------------


class Factorization:
    """Interface: a factorized system matrix supporting repeated solves.

    ``solve`` accepts a 1-D right-hand side or a 2-D column block (the
    multi-RHS form: one factorization, many solutions in a single call).
    """

    backend: str = ""
    size: int = 0

    def solve(self, rhs: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


#: ``getrf``/``getrs`` bound once for the MNA dtypes (real DC/transient,
#: complex AC): ``get_lapack_funcs`` costs more than a small solve.
_LAPACK = {
    np.dtype(dtype).char: _get_lapack_funcs(("getrf", "getrs"), dtype=dtype)
    for dtype in (float, complex)
}


class DenseFactorization(Factorization):
    """LAPACK LU (``getrf``/``getrs``), bound directly.

    ``np.linalg.solve`` (``gesv``) wakes the BLAS thread pool from about
    100 unknowns, and that pool keeps a second core spinning after the
    call returns; ``scipy.linalg.lu_factor`` only *warns* on an exactly
    singular matrix and ``lu_solve`` pays tens of microseconds of wrapper
    per call.  This binds the two LAPACK routines once and calls them
    single-threaded.  The row-major matrix is handed to ``getrf`` as its
    column-major transpose (no copy) and solved with ``trans=1``.

    Raises :class:`FactorizationError` on a nonzero LAPACK ``info`` (an
    exactly zero pivot), as SuperLU does.  ``overwrite=True`` lets the
    factorization reuse ``matrix``'s storage (the caller's matrix is then
    garbage).
    """

    __slots__ = ("_lu", "_piv", "_getrs", "size")

    backend = "dense"

    def __init__(self, matrix: np.ndarray, overwrite: bool = False) -> None:
        self.size = int(matrix.shape[0])
        getrf, self._getrs = _LAPACK.get(matrix.dtype.char) or (
            _get_lapack_funcs(("getrf", "getrs"), dtype=matrix.dtype)
        )
        self._lu, self._piv, info = getrf(matrix.T, overwrite_a=overwrite)
        if info != 0:
            raise FactorizationError(f"singular matrix (getrf info={info})")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x, info = self._getrs(self._lu, self._piv, rhs, trans=1)
        if info != 0:
            raise FactorizationError(f"getrs failed (info={info})")
        return x


class SparseFactorization(Factorization):
    """SuperLU over a CSC matrix — O(nnz) triangular solves, multi-RHS."""

    __slots__ = ("_splu", "size")

    backend = "sparse"

    def __init__(self, matrix) -> None:
        from scipy.sparse import csc_matrix, issparse
        from scipy.sparse.linalg import splu

        if not issparse(matrix):
            matrix = csc_matrix(np.asarray(matrix))
        self.size = int(matrix.shape[0])
        try:
            self._splu = splu(matrix.tocsc())
        except (RuntimeError, ValueError, ArithmeticError) as exc:
            # SuperLU raises RuntimeError on exact singularity; ValueError
            # on malformed/non-finite input.
            raise FactorizationError(str(exc)) from None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        out = self._splu.solve(np.asarray(rhs))
        if not np.all(np.isfinite(out)):
            raise FactorizationError("sparse solve produced non-finite values")
        return out


# -- triplet assembly --------------------------------------------------------
# The MNA assembler emits (row, col, value) stamps; both matrix
# representations are materialised from the same triplet stream, so the two
# backends factorize the numerically identical matrix.

Triplets = Tuple[List[int], List[int], List[float]]


def triplets_to_dense(
    size: int, triplets: Triplets, dtype=float
) -> np.ndarray:
    rows, cols, vals = triplets
    matrix = np.zeros((size, size), dtype=dtype)
    np.add.at(matrix, (rows, cols), vals)
    return matrix


def triplets_to_csc(size: int, triplets: Triplets, dtype=float):
    from scipy.sparse import coo_matrix

    rows, cols, vals = triplets
    return coo_matrix(
        (np.asarray(vals, dtype=dtype), (rows, cols)), shape=(size, size)
    ).tocsc()


def factorize(matrix, backend: str) -> Factorization:
    """Factorize ``matrix`` (dense array or scipy sparse) with ``backend``.

    Publishes the ``mna_{dense,sparse}_factorizations`` counter (no-op when
    observability is disabled).  Raises :class:`FactorizationError` when the
    matrix is singular or non-finite.
    """
    if backend == "sparse":
        factorization: Factorization = SparseFactorization(matrix)
    elif backend == "dense":
        # A scipy sparse matrix has ``toarray``; testing for it keeps dense
        # solves from importing scipy.sparse.
        if hasattr(matrix, "toarray"):
            matrix = matrix.toarray()
        factorization = DenseFactorization(np.asarray(matrix))
    else:
        raise CircuitError(
            f"factorize needs a concrete backend, got {backend!r}"
        )
    if obs.enabled():
        obs.counter(f"mna_{backend}_factorizations").inc()
    return factorization


def factorize_triplets(
    size: int, triplets: Triplets, backend: str, dtype=float
) -> Factorization:
    """Materialise + factorize a triplet-assembled matrix with ``backend``."""
    if backend == "sparse":
        return factorize(triplets_to_csc(size, triplets, dtype), backend)
    return factorize(triplets_to_dense(size, triplets, dtype), backend)


# -- factorization cache -----------------------------------------------------


class FactorizationCache:
    """A small keyed LRU of factorizations.

    The transient integrator's step matrix depends only on the diode bias
    vector (the companion conductances of C/L are fixed for a fixed ``dt``),
    so once the circuit settles, every further step re-solves the *same*
    matrix — this cache turns those re-factorizations into lookups.  AC
    sweeps that revisit a frequency hit it the same way.
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[object, Factorization]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: object) -> Optional[Factorization]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if obs.enabled():
            obs.counter("mna_factorization_cache_hits").inc()
        return entry

    def put(self, key: object, factorization: Factorization) -> None:
        self._entries[key] = factorization
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def solve(
        self, key: object, matrix_factory, rhs: np.ndarray, backend: str
    ) -> np.ndarray:
        """Solve against the cached factorization for ``key``, factorizing
        ``matrix_factory()`` on a miss."""
        factorization = self.get(key)
        if factorization is None:
            factorization = factorize(matrix_factory(), backend)
            self.put(key, factorization)
        return factorization.solve(rhs)
