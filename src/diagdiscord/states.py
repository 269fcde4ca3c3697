"""Density-matrix construction, subsystem calculus, and random-state samplers.

Includes the 15 SU(4) generators used by the generalized Bloch
representation of symmetric two-qubit X-states, and the plain-text state
serialization format (header ``dims d_A d_B ...`` followed by rows of
``re im`` pairs at 17 significant digits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidBasis,
    InvalidDistribution,
    InvalidRank,
    NotDensityMatrix,
    NotPositiveSemidefinite,
    OutOfDomain,
    OutOfRange,
    ParseError,
)
from .linalg import (
    DEGENERACY_TOL,
    SpectralDecomposition,
    density_eigenvalues,
    hermitian_eig,
    spectrum_entropy,
)

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_SQRT6 = math.sqrt(6.0)


def _sym(j: int, k: int) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[j, k] = m[k, j] = 1.0
    return m


def _antisym(j: int, k: int) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[j, k] = -1.0j
    m[k, j] = 1.0j
    return m


def _build_su4_generators() -> tuple[np.ndarray, ...]:
    gens = (
        _sym(0, 1),
        _antisym(0, 1),
        np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex),
        _sym(0, 2),
        _antisym(0, 2),
        _sym(1, 2),
        _antisym(1, 2),
        np.diag([1.0, 1.0, -2.0, 0.0]).astype(complex) / _SQRT3,
        _sym(0, 3),
        _antisym(0, 3),
        _sym(1, 3),
        _antisym(1, 3),
        _sym(2, 3),
        _antisym(2, 3),
        np.diag([1.0, 1.0, 1.0, -3.0]).astype(complex) / _SQRT6,
    )
    for g in gens:
        g.setflags(write=False)
    return gens


#: Traceless Hermitian SU(4) generators; SU4_GENERATORS[i] is Lambda_{i+1}.
SU4_GENERATORS: tuple[np.ndarray, ...] = _build_su4_generators()

# the five generators entering the symmetric X-state Bloch form
L3, L6, L8, L9, L15 = (SU4_GENERATORS[i - 1] for i in (3, 6, 8, 9, 15))


class _ValidatedDensity:
    """Keeps the spectrum found by the density check, ascending and unclamped."""

    rho: np.ndarray
    spectrum: np.ndarray

    def _validate(self, rho: np.ndarray) -> None:
        spectrum = density_eigenvalues(rho)
        rho.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def entropy(self) -> float:
        """S(rho) in bits from the kept spectrum; equals von_neumann_entropy(rho)."""
        return max(spectrum_entropy(self.spectrum), 0.0)


@dataclass(frozen=True)
class BipartiteState(_ValidatedDensity):
    """A density matrix on A x B, tagged with the subsystem dimensions."""

    rho: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise DimensionMismatch(f"state matrix shape {rho.shape} not square")
        if self.dim_a < 1 or self.dim_b < 1:
            raise DimensionMismatch("subsystem dimensions must be positive")
        if rho.shape[0] != self.dim_a * self.dim_b:
            raise DimensionMismatch(
                f"matrix dimension {rho.shape[0]} != {self.dim_a}*{self.dim_b}"
            )
        self._validate(rho)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @cached_property
    def marginal_eig(self) -> SpectralDecomposition:
        """Spectral decomposition of rho_A, computed on first use and kept."""
        return hermitian_eig(ptrace_b(self.rho, self.dim_a, self.dim_b))


@dataclass(frozen=True)
class MultipartiteState(_ValidatedDensity):
    """A density matrix over subsystems A_1 ... A_n."""

    rho: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise DimensionMismatch("dims must be a non-empty tuple of positive ints")
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise DimensionMismatch(f"state matrix shape {rho.shape} not square")
        if rho.shape[0] != math.prod(dims):
            raise DimensionMismatch(
                f"matrix dimension {rho.shape[0]} != prod{dims}"
            )
        self._validate(rho)
        object.__setattr__(self, "dims", dims)


@dataclass(frozen=True)
class XStateParams:
    """The four free Bloch coordinates of a symmetric two-qubit X-state."""

    r6: float
    r8: float
    r9: float
    r15: float

    def __post_init__(self):
        for name in ("r6", "r8", "r9", "r15"):
            v = getattr(self, name)
            if not -1.0 <= v <= 1.0:
                raise OutOfRange(f"{name} = {v} outside [-1, 1]")
        if self.radius_sq() > 1.0 + 1e-12:
            raise OutOfRange(
                f"r6^2 + 4 r8^2 + r9^2 + r15^2 = {self.radius_sq()} > 1"
            )

    def radius_sq(self) -> float:
        return self.r6**2 + 4.0 * self.r8**2 + self.r9**2 + self.r15**2


def ptrace_b(rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """tr_B on a raw (d_a*d_b) x (d_a*d_b) matrix."""
    if rho.shape != (d_a * d_b, d_a * d_b):
        raise DimensionMismatch(f"shape {rho.shape} incompatible with ({d_a},{d_b})")
    return np.einsum("ibjb->ij", rho.reshape(d_a, d_b, d_a, d_b))


def ptrace_a(rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """tr_A on a raw (d_a*d_b) x (d_a*d_b) matrix."""
    if rho.shape != (d_a * d_b, d_a * d_b):
        raise DimensionMismatch(f"shape {rho.shape} incompatible with ({d_a},{d_b})")
    return np.einsum("aiaj->ij", rho.reshape(d_a, d_b, d_a, d_b))


def blocks_a(rho: np.ndarray, d_a: int, d_b: int, basis: np.ndarray) -> np.ndarray:
    """Conditional blocks <v_i| rho |v_i> for the basis columns v_i, shape (k, d_b, d_b)."""
    t = rho.reshape(d_a, d_b, d_a, d_b)
    return np.einsum("ia,abcd,ic->ibd", basis.T.conj(), t, basis.T)


def from_blocks_a(basis: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """sum_i |v_i><v_i| (x) blocks[i] for the basis columns v_i."""
    d = basis.shape[0] * blocks.shape[-1]
    return np.einsum("ai,ibd,ci->abcd", basis, blocks, basis.conj()).reshape(d, d)


def conjugate_a(op: np.ndarray, rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """(op (x) I) rho (op (x) I)^dag for an operator on A, by two reshaped matmuls."""
    d = d_a * d_b
    left = (op @ rho.reshape(d_a, d_b * d)).reshape(d, d_a, d_b)
    return (op.conj() @ left).reshape(d, d)


def partial_trace_b(state: BipartiteState) -> np.ndarray:
    """rho_A = tr_B rho_AB."""
    return ptrace_b(state.rho, state.dim_a, state.dim_b)


def partial_trace_a(state: BipartiteState) -> np.ndarray:
    """rho_B = tr_A rho_AB."""
    return ptrace_a(state.rho, state.dim_a, state.dim_b)


def x_state_matrix(params: XStateParams) -> np.ndarray:
    """Raw 4x4 matrix of the symmetric X-state Bloch form (may be non-PSD)."""
    m = (
        np.eye(4, dtype=complex)
        + _SQRT6
        * (
            _SQRT3 * params.r8 * L3
            + params.r6 * L6
            + params.r8 * L8
            + params.r9 * L9
            + params.r15 * L15
        )
    ) / 4.0
    return m


def x_state_from_params(params: XStateParams) -> BipartiteState:
    """Symmetric two-qubit X-state with Bloch coordinates (r6, r8, r9, r15)."""
    try:
        return BipartiteState(x_state_matrix(params), 2, 2)
    except NotDensityMatrix as exc:  # the matrix is Hermitian with unit trace
        raise NotPositiveSemidefinite(f"X-state matrix is not PSD: {exc}") from exc


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Generalized Bloch coordinates r_i = (sqrt6 / 3) tr(rho Lambda_i)."""
    if rho.shape != (4, 4):
        raise DimensionMismatch("Bloch extraction requires a 4x4 matrix")
    return np.array(
        [float(np.trace(rho @ g).real) * _SQRT6 / 3.0 for g in SU4_GENERATORS]
    )


def _x_candidate_ok(r6: float, r8: float, r9: float, r15: float) -> bool:
    # inside the generalized Bloch ball, then PSD via the two 2x2 blocks
    if r6 * r6 + 4.0 * r8 * r8 + r9 * r9 + r15 * r15 > 1.0:
        return False
    a = (1.0 + 4.0 * _SQRT2 * r8 + r15) / 4.0
    b = (1.0 - 2.0 * _SQRT2 * r8 + r15) / 4.0
    d = (1.0 - 3.0 * r15) / 4.0
    w = _SQRT6 * r9 / 4.0
    z = _SQRT6 * r6 / 4.0
    return b >= abs(z) and a >= 0.0 and d >= 0.0 and a * d >= w * w


#: uniform draws in [-1, 1]^4 sample_x_params makes before giving up. 1.03%
#: of draws are valid X-states (at most 922 draws per sample over 10^4
#: samples), so running out by chance has probability about e^-103.
X_PARAMS_BUDGET = 10_000


def sample_x_params(rng: np.random.Generator, return_attempts: bool = False):
    """Rejection-sample uniform Bloch coordinates of a valid symmetric X-state."""
    for attempts in range(1, X_PARAMS_BUDGET + 1):
        r6, r8, r9, r15 = rng.uniform(-1.0, 1.0, size=4)
        if _x_candidate_ok(r6, r8, r9, r15):
            params = XStateParams(r6, r8, r9, r15)
            if return_attempts:
                return params, attempts
            return params
    raise OutOfDomain(
        f"0 of {X_PARAMS_BUDGET} uniform draws of (r6, r8, r9, r15) in [-1, 1]^4 "
        "gave a valid X-state; the expected acceptance rate is 1.03%"
    )


def sample_x_state(rng: np.random.Generator) -> BipartiteState:
    """Random symmetric two-qubit X-state, uniform on the Bloch geometry."""
    return x_state_from_params(sample_x_params(rng))


def sample_random_bipartite(
    rng: np.random.Generator, d_a: int, d_b: int, rank: int | None = None
) -> BipartiteState:
    """rho = G G^dag / tr(G G^dag) with G a (d_a d_b) x rank complex Ginibre.

    Full rank gives the Hilbert-Schmidt-induced measure.
    """
    d = d_a * d_b
    if rank is None:
        rank = d
    if not 1 <= rank <= d:
        raise InvalidRank(f"rank {rank} outside 1..{d}")
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    rho = (rho + rho.conj().T) / 2.0
    return BipartiteState(rho, d_a, d_b)


#: consecutive draws sample_nondegenerate makes before giving up. A full-rank
#: Hilbert-Schmidt state has a degenerate A-marginal with probability zero
#: (none in 10^4 draws at each of 2x2 ... 4x4), so running out means the
#: requested rank forces a degenerate marginal.
NONDEGENERATE_BUDGET = 1000


def sample_nondegenerate(
    rng: np.random.Generator, d_a: int, d_b: int, rank: int | None = None
) -> tuple[BipartiteState, int]:
    """Random state whose A-marginal is nondegenerate, and the draws rejected.

    The marginal decomposition used by the test stays cached on the state.
    """
    for rejected in range(NONDEGENERATE_BUDGET):
        state = sample_random_bipartite(rng, d_a, d_b, rank)
        if not state.marginal_eig.degenerate:
            return state, rejected
    raise OutOfDomain(
        f"all {NONDEGENERATE_BUDGET} sampled ({d_a},{d_b}) states of rank "
        f"{rank or d_a * d_b} had a degenerate A-marginal (acceptance rate 0; "
        f"gap below {DEGENERACY_TOL}); choose a larger rank"
    )


def classical_quantum_state(probs, basis, sigmas) -> BipartiteState:
    """sum_i p_i |i><i| (x) sigma_i over an orthonormal A-basis."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or len(probs) == 0:
        raise InvalidDistribution("probs must be a non-empty vector")
    if np.any(probs < -1e-12) or abs(probs.sum() - 1.0) > 1e-10:
        raise InvalidDistribution(f"probs {probs} is not a distribution")
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 2 or basis.shape[1] != len(probs):
        raise DimensionMismatch(
            "basis must hold one column per probability entry"
        )
    gram = basis.conj().T @ basis
    if np.max(np.abs(gram - np.eye(len(probs)))) > 1e-10:
        raise InvalidBasis("basis columns are not orthonormal")
    sigmas = [np.asarray(s, dtype=complex) for s in sigmas]
    if len(sigmas) != len(probs):
        raise DimensionMismatch("need one sigma per probability entry")
    d_b = sigmas[0].shape[0]
    for sigma in sigmas:
        if sigma.shape != (d_b, d_b):
            raise DimensionMismatch("sigma blocks have inconsistent dimensions")
        density_eigenvalues(sigma, "sigma")
    rho = from_blocks_a(basis, probs[:, None, None] * np.stack(sigmas))
    return BipartiteState(rho, basis.shape[0], d_b)


# --- plain-text serialization ------------------------------------------------

def _format_matrix_rows(m: np.ndarray) -> list[str]:
    rows = []
    for row in m:
        rows.append(" ".join(f"{v.real:.17g} {v.imag:.17g}" for v in row))
    return rows


def _parse_matrix_rows(lines: list[str], n: int, what: str) -> np.ndarray:
    if len(lines) < n:
        raise ParseError(f"{what}: expected {n} matrix rows, got {len(lines)}")
    m = np.empty((n, n), dtype=complex)
    for i in range(n):
        parts = lines[i].split()
        if len(parts) != 2 * n:
            raise ParseError(
                f"{what}: row {i} has {len(parts)} fields, expected {2 * n}"
            )
        try:
            nums = [float(p) for p in parts]
        except ValueError as exc:
            raise ParseError(f"{what}: row {i}: {exc}") from exc
        m[i] = [complex(nums[2 * j], nums[2 * j + 1]) for j in range(n)]
    return m


def state_to_text(state: BipartiteState | MultipartiteState) -> str:
    dims = (
        (state.dim_a, state.dim_b)
        if isinstance(state, BipartiteState)
        else state.dims
    )
    lines = ["dims " + " ".join(str(d) for d in dims)]
    lines.extend(_format_matrix_rows(state.rho))
    return "\n".join(lines) + "\n"


def state_from_text(text: str) -> BipartiteState | MultipartiteState:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("dims"):
        raise ParseError("missing 'dims' header line")
    try:
        dims = tuple(int(tok) for tok in lines[0].split()[1:])
    except ValueError as exc:
        raise ParseError(f"bad dims header: {exc}") from exc
    if len(dims) < 2:
        raise ParseError("need at least two subsystem dimensions")
    n = math.prod(dims)
    m = _parse_matrix_rows(lines[1:], n, "state")
    if len(dims) == 2:
        return BipartiteState(m, dims[0], dims[1])
    return MultipartiteState(m, dims)


def save_state(state: BipartiteState | MultipartiteState, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(state_to_text(state))


def load_state(path) -> BipartiteState | MultipartiteState:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file: {exc}") from exc
    return state_from_text(text)
