"""Density-matrix construction, subsystem calculus, and random-state samplers.

Includes the 15 SU(4) generators used by the generalized Bloch
representation of symmetric two-qubit X-states, and the plain-text state
serialization format (header ``dims d_A d_B ...`` followed by rows of
``re im`` pairs at 17 significant digits).
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, InitVar, dataclass
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
    SpectralDecomposition,
    check_density_matrix,
    check_density_spectrum,
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
    """Generalized Gell-Mann matrices: for k = 1..3, sym/antisym (j, k) for j < k, then diag."""
    gens = []
    for k in range(1, 4):
        for j in range(k):
            gens += [_sym(j, k), _antisym(j, k)]
        diag = np.diag([1.0] * k + [-k] + [0.0] * (3 - k)).astype(complex)
        gens.append(diag / math.sqrt(k * (k + 1) / 2))
    for g in gens:
        g.setflags(write=False)
    return tuple(gens)


#: Traceless Hermitian SU(4) generators; SU4_GENERATORS[i] is Lambda_{i+1}.
SU4_GENERATORS: tuple[np.ndarray, ...] = _build_su4_generators()

# the five generators entering the symmetric X-state Bloch form
L3, L6, L8, L9, L15 = (SU4_GENERATORS[i - 1] for i in (3, 6, 8, 9, 15))


class _ValidatedDensity:
    """Keeps the spectrum found by the density check, ascending and unclamped.

    ``rho`` may be one matrix or a stack (..., d, d); ``spectrum`` and
    ``entropy`` then hold one row per matrix. The dephasing maps hand in the
    spectrum of their output, the union of its conditional blocks' spectra
    (``linalg.block_spectrum``), as ``_spectrum``; the matrix is then still
    checked to be finite and Hermitian, and that spectrum to have no
    eigenvalue below the floor and unit trace, but no eigensolve runs.
    """

    rho: np.ndarray
    spectrum: np.ndarray

    def _validate(self, rho: np.ndarray, spectrum: np.ndarray | None) -> None:
        if spectrum is None:
            spectrum = density_eigenvalues(rho)
        else:
            check_density_matrix(rho)
            if spectrum.shape != rho.shape[:-1]:
                raise DimensionMismatch(f"spectrum {spectrum.shape} of a state {rho.shape}")
            check_density_spectrum(spectrum)
        rho.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def entropy(self):
        """S(rho) in bits from the kept spectrum.

        It equals von_neumann_entropy(rho) bit for bit, except for a dephased
        state, whose spectrum comes from its blocks: there the two agree
        within round-off.
        """
        return np.maximum(spectrum_entropy(self.spectrum), 0.0)


@dataclass(frozen=True)
class BipartiteState(_ValidatedDensity):
    """A density matrix on A x B, tagged with the subsystem dimensions.

    ``rho`` may be a stack (..., d, d) of states; the one density check then
    validates every row at once and names the first bad row.
    """

    rho: np.ndarray
    dim_a: int
    dim_b: int
    _: KW_ONLY
    _spectrum: InitVar[np.ndarray | None] = None

    def __post_init__(self, _spectrum):
        rho = np.array(self.rho, dtype=complex)
        if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
            raise DimensionMismatch(f"state matrix shape {rho.shape} not square")
        if self.dim_a < 1 or self.dim_b < 1:
            raise DimensionMismatch("subsystem dimensions must be positive")
        if rho.shape[-1] != self.dim_a * self.dim_b:
            raise DimensionMismatch(
                f"matrix dimension {rho.shape[-1]} != {self.dim_a}*{self.dim_b}"
            )
        self._validate(rho, _spectrum)

    def __len__(self) -> int:
        """Number of states in a stack; a single state, like a 0-d array, has no len()."""
        if self.rho.ndim == 2:
            raise TypeError("a single BipartiteState has no len()")
        return len(self.rho)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    @cached_property
    def marginal_eig(self) -> SpectralDecomposition:
        """Spectral decomposition of rho_A (of each row), computed on first use and kept."""
        return hermitian_eig(ptrace_b(self.rho, self.dim_a, self.dim_b))


@dataclass(frozen=True)
class MultipartiteState(_ValidatedDensity):
    """A density matrix over subsystems A_1 ... A_n."""

    rho: np.ndarray
    dims: tuple[int, ...]
    _: KW_ONLY
    _spectrum: InitVar[np.ndarray | None] = None

    def __post_init__(self, _spectrum):
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
        self._validate(rho, _spectrum)
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

    def as_row(self) -> tuple[float, float, float, float]:
        """(r6, r8, r9, r15), the row order of ``x_state_matrix`` stacks."""
        return (self.r6, self.r8, self.r9, self.r15)


# The A-side kernels below act on one (d_a*d_b) x (d_a*d_b) matrix or on a
# stack (..., d_a*d_b, d_a*d_b); a basis or superoperator on A may be one
# matrix for every row or a stack of its own. Row i of a stack equals the
# kernel applied to that row alone.

def _split(rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """A raw matrix (stack) viewed with axes (..., a, b, a', b')."""
    if rho.shape[-2:] != (d_a * d_b, d_a * d_b):
        raise DimensionMismatch(f"shape {rho.shape} incompatible with ({d_a},{d_b})")
    return rho.reshape(rho.shape[:-2] + (d_a, d_b, d_a, d_b))


def ptrace_b(rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """tr_B on a raw (d_a*d_b) x (d_a*d_b) matrix."""
    return np.einsum("...ibjb->...ij", _split(rho, d_a, d_b))


def ptrace_a(rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """tr_A on a raw (d_a*d_b) x (d_a*d_b) matrix."""
    return np.einsum("...aiaj->...ij", _split(rho, d_a, d_b))


def pairs_a(rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """rho regrouped as (..., d_a^2, d_b^2): rows (a, a'), columns (b, b')."""
    pairs = rho.reshape(rho.shape[:-2] + (d_a, d_b, d_a, d_b)).swapaxes(-3, -2)
    return pairs.reshape(rho.shape[:-2] + (d_a * d_a, d_b * d_b))


def from_pairs_a(pairs: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """The (..., d_a*d_b, d_a*d_b) matrix that ``pairs_a`` regroups as ``pairs``."""
    out = pairs.reshape(pairs.shape[:-2] + (d_a, d_a, d_b, d_b)).swapaxes(-3, -2)
    return out.reshape(out.shape[:-4] + (d_a * d_b, d_a * d_b))


def superop_a(superop: np.ndarray, rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """(S (x) id_B)(rho) for a d_a^2 x d_a^2 superoperator S[(a, a'), (c, c')] on A.

    K rho K^dag has S = K (x) conj(K). rho is regrouped by ``pairs_a`` for one
    broadcast matmul by S (or a stack of S): one gemm per row, never one wide
    GEMM, whose BLAS path could differ.
    """
    d = d_a * d_b
    if superop.shape[-2:] != (d_a * d_a, d_a * d_a) or rho.shape[-2:] != (d, d):
        raise DimensionMismatch(
            f"superoperator {superop.shape[-2:]} and matrix {rho.shape[-2:]} do not "
            f"fit (d_A, d_B) = ({d_a}, {d_b})"
        )
    return from_pairs_a(superop @ pairs_a(rho, d_a, d_b), d_a, d_b)


def blocks_a(rho: np.ndarray, d_a: int, d_b: int, basis: np.ndarray) -> np.ndarray:
    """Conditional blocks <v_i| rho |v_i> for the basis columns v_i, shape (..., k, d_b, d_b)."""
    return np.einsum(
        "...ia,...abcd,...ic->...ibd",
        basis.conj().swapaxes(-1, -2),
        _split(rho, d_a, d_b),
        basis.swapaxes(-1, -2),
    )


def from_blocks_a(basis: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """sum_i |v_i><v_i| (x) blocks[i] for the basis columns v_i."""
    out = np.einsum("...ai,...ibd,...ci->...abcd", basis, blocks, basis.conj())
    d = basis.shape[-2] * blocks.shape[-1]
    return out.reshape(out.shape[:-4] + (d, d))


def partial_trace_b(state: BipartiteState) -> np.ndarray:
    """rho_A = tr_B rho_AB."""
    return ptrace_b(state.rho, state.dim_a, state.dim_b)


def partial_trace_a(state: BipartiteState) -> np.ndarray:
    """rho_B = tr_A rho_AB."""
    return ptrace_a(state.rho, state.dim_a, state.dim_b)


def x_state_matrix(params) -> np.ndarray:
    """Raw 4x4 matrix of the symmetric X-state Bloch form (may be non-PSD).

    ``params`` is an XStateParams or an array (..., 4) of (r6, r8, r9, r15)
    rows, which gives a stack (..., 4, 4); row i equals the matrix of
    ``XStateParams(*params[i])`` bit for bit.
    """
    if isinstance(params, XStateParams):
        params = params.as_row()
    r6, r8, r9, r15 = np.moveaxis(np.asarray(params, dtype=float), -1, 0)[..., None, None]
    return (
        np.eye(4, dtype=complex)
        + _SQRT6 * (_SQRT3 * r8 * L3 + r6 * L6 + r8 * L8 + r9 * L9 + r15 * L15)
    ) / 4.0


def x_state_from_params(params) -> BipartiteState:
    """Symmetric two-qubit X-state with Bloch coordinates (r6, r8, r9, r15).

    An array (N, 4) of coordinate rows gives a stack of N states, built and
    validated at once (see ``x_state_matrix``).
    """
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


def _x_candidate_ok(r: np.ndarray) -> np.ndarray:
    """Which candidate rows (r6, r8, r9, r15) of r are valid X-states."""
    r6, r8, r9, r15 = r.T
    # inside the generalized Bloch ball (about 15% of rows), then PSD via the two 2x2 blocks
    ok = r6 * r6 + 4.0 * r8 * r8 + r9 * r9 + r15 * r15 <= 1.0
    inside = np.flatnonzero(ok)
    r6, r8, r9, r15 = r[inside].T
    a = (1.0 + 4.0 * _SQRT2 * r8 + r15) / 4.0
    b = (1.0 - 2.0 * _SQRT2 * r8 + r15) / 4.0
    d = (1.0 - 3.0 * r15) / 4.0
    w = _SQRT6 * r9 / 4.0
    z = _SQRT6 * r6 / 4.0
    ok[inside] = (b >= np.abs(z)) & (a >= 0.0) & (d >= 0.0) & (a * d >= w * w)
    return ok


#: uniform draws in [-1, 1]^4 sample_x_params makes per sample before giving
#: up. 1.03% of draws are valid X-states (at most 922 draws per sample over
#: 10^4 samples), so running out by chance has probability about e^-103.
X_PARAMS_BUDGET = 10_000
#: candidates sample_x_params draws per sample and block; about 1.3 accepted per block
_X_PARAMS_BLOCK = 128
#: samples whose candidate blocks sample_x_params tests at once; 4 MB of candidates
_X_PARAMS_STACK = 1024


def sample_x_params(rng, return_attempts: bool = False):
    """Rejection-sample uniform Bloch coordinates of a valid symmetric X-state.

    ``rng`` is one generator, which gives an XStateParams, or a sequence of
    generators, which gives an (N, 4) array of (r6, r8, r9, r15) rows, row i
    being what generator i gives alone. Each sample still open draws a block
    of candidate 4-vectors, and the blocks of all open samples are tested at
    once. Once a sample's block holds an accepted row j, its generator is
    stepped back by a negative ``advance`` (PCG64 steps mod 2^128) to just
    past row j, 4 draws each, so the result, the attempt count and the
    generator's final state are those of drawing one candidate at a time
    (except that ``advance`` drops a buffered 32-bit half-draw, which no
    caller leaves).
    """
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    params = np.empty((len(rngs), 4))
    attempts = np.zeros(len(rngs), dtype=int)
    for first in range(0, len(rngs), _X_PARAMS_STACK):
        part = slice(first, first + _X_PARAMS_STACK)
        _sample_x_stack(rngs[part], params[part], attempts[part])
    if single:
        params, attempts = XStateParams(*params[0]), int(attempts[0])
    return (params, attempts) if return_attempts else params


def _sample_x_stack(rngs, params: np.ndarray, attempts: np.ndarray) -> None:
    """sample_x_params on a stack of generators, written into params and attempts."""
    open_rows = np.arange(len(rngs))
    buffer = np.empty(len(rngs) * _X_PARAMS_BLOCK * 4)
    tried = 0
    while tried < X_PARAMS_BUDGET:
        n = min(_X_PARAMS_BLOCK, X_PARAMS_BUDGET - tried)
        candidates = buffer[: len(open_rows) * n * 4].reshape(len(open_rows), n, 4)
        for k, i in enumerate(open_rows):
            rngs[i].random(out=candidates[k])
        # uniform(-1, 1) draws low + (high - low) u: the same bits
        candidates *= 2.0
        candidates -= 1.0
        ok = _x_candidate_ok(candidates.reshape(-1, 4)).reshape(len(open_rows), n)
        hit = ok.any(axis=1)
        first = ok.argmax(axis=1)
        for k in np.flatnonzero(hit):
            i = open_rows[k]
            params[i] = candidates[k, first[k]]
            attempts[i] = tried + first[k] + 1
            # back from the block's end to just past row first[k]
            rngs[i].bit_generator.advance(4 * (int(first[k]) + 1 - n))
        open_rows = open_rows[~hit]
        if not len(open_rows):
            return
        tried += n
    raise OutOfDomain(
        f"0 of {X_PARAMS_BUDGET} uniform draws of (r6, r8, r9, r15) in [-1, 1]^4 "
        "gave a valid X-state; the expected acceptance rate is 1.03%"
    )


def sample_x_state(rng: np.random.Generator) -> BipartiteState:
    """Random symmetric two-qubit X-state, uniform on the Bloch geometry."""
    return x_state_from_params(sample_x_params(rng))


def check_rank(d: int, rank: int | None) -> int:
    """The rank of a d x rank Ginibre matrix, d when None; InvalidRank outside 1..d."""
    if rank is None:
        return d
    if not 1 <= rank <= d:
        raise InvalidRank(f"rank {rank} outside 1..{d}")
    return rank


def ginibre(
    rng: np.random.Generator, d: int, rank: int | None = None, size: int | None = None
) -> np.ndarray:
    """A d x rank complex Ginibre matrix: real, then imaginary parts, standard normal.

    With ``size`` it is a stack of that many, drawn as one (size, 2, d, rank)
    block: the generator gives the same numbers and ends in the same state as
    ``size`` calls without it.
    """
    rank = check_rank(d, rank)
    if size is None:
        return rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    z = rng.normal(size=(size, 2, d, rank))
    return z[:, 0] + 1j * z[:, 1]


def ginibre_density(g: np.ndarray) -> np.ndarray:
    """G G^dag / tr(G G^dag), Hermitian-symmetrized, for G (..., d, rank)."""
    rho = g @ g.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    return (rho + rho.conj().swapaxes(-1, -2)) / 2.0


def sample_random_bipartite(
    rng: np.random.Generator,
    d_a: int,
    d_b: int,
    rank: int | None = None,
    size: int | None = None,
) -> BipartiteState:
    """rho = G G^dag / tr(G G^dag) with G a (d_a d_b) x rank complex Ginibre.

    Full rank gives the Hilbert-Schmidt-induced measure. With ``size`` the
    state is a stack of that many rows, drawn and validated at once; row i is
    the state the (i+1)-th of ``size`` calls without it would return.
    """
    if d_a < 1 or d_b < 1:
        raise OutOfRange(f"subsystem dimensions ({d_a}, {d_b}) must be >= 1")
    return BipartiteState(ginibre_density(ginibre(rng, d_a * d_b, rank, size)), d_a, d_b)


#: consecutive draws sample_nondegenerate makes for one state before giving
#: up. A full-rank Hilbert-Schmidt state has a degenerate A-marginal with
#: probability zero (none in 10^4 draws at each of 2x2 ... 4x4), so running
#: out means the requested rank forces a degenerate marginal.
NONDEGENERATE_BUDGET = 1000


def sample_nondegenerate(
    rng: np.random.Generator,
    d_a: int,
    d_b: int,
    rank: int | None = None,
    size: int | None = None,
) -> tuple[BipartiteState, int]:
    """Random state whose A-marginal is nondegenerate, and the draws rejected.

    The marginal decomposition used by the test stays cached on the state.
    With ``size`` the state is a stack of that many rows, equal to those of
    ``size`` calls without it, and the generator ends in the same state.
    Each block keeps its nondegenerate rows in draw order, and the next
    block draws the rows still missing. A block holds at most as many rows
    as are missing, and no more than the budget the current state has left,
    so it never draws a row the one-at-a-time loop would not.
    """
    parts, rejected, streak = [], 0, 0
    missing = 1 if size is None else size
    while True:
        n = min(missing, NONDEGENERATE_BUDGET - streak)
        state = sample_random_bipartite(rng, d_a, d_b, rank, None if size is None else n)
        kept = np.flatnonzero(~np.atleast_1d(state.marginal_eig.degenerate))
        if len(kept) == missing:
            break
        rejected += n - len(kept)
        # the draws spent on the state still open: the degenerate rows after the last kept one
        streak = streak + n if not len(kept) else n - 1 - int(kept[-1])
        if streak >= NONDEGENERATE_BUDGET:
            raise OutOfDomain(
                f"all {NONDEGENERATE_BUDGET} sampled ({d_a},{d_b}) states of rank "
                f"{rank or d_a * d_b} had a degenerate A-marginal (acceptance rate 0); "
                "choose a larger rank"
            )
        if len(kept):
            parts.append(state.rho[kept])
        missing -= len(kept)
    if parts:
        state = BipartiteState(np.concatenate([*parts, state.rho]), d_a, d_b)
    return state, rejected


def _check_distribution(probs) -> np.ndarray:
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or len(probs) == 0:
        raise InvalidDistribution("probs must be a non-empty vector")
    # written so that a NaN entry fails it
    if not (np.all(probs >= -1e-12) and abs(probs.sum() - 1.0) <= 1e-10):
        raise InvalidDistribution(f"probs {probs} is not a distribution")
    return probs


def classical_quantum_state(probs, basis, sigmas) -> BipartiteState:
    """sum_i p_i |i><i| (x) sigma_i over an orthonormal A-basis."""
    probs = _check_distribution(probs)
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


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file: {exc}") from exc


def save_state(state: BipartiteState | MultipartiteState, path) -> None:
    _write_text(path, state_to_text(state))


def load_state(path) -> BipartiteState | MultipartiteState:
    return state_from_text(_read_text(path))
