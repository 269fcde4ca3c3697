"""Eigenbasis-dephasing maps and the discord measures built on them.

The one-sided map dephases subsystem A in an eigenbasis of rho_A. It is
idempotent, preserves both marginals, and fixes exactly the
classical-quantum states. Diagonal discord is the entropy it adds, which
also equals the relative entropy from the input to its dephased image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import (
    DegenerateMarginal,
    DimensionMismatch,
    InvalidP,
    OutOfDomain,
    OutOfRange,
)
from .linalg import (
    SpectralDecomposition,
    binary_entropy,
    hermitian_eig,
    relative_entropy,
    schatten_norm,
    spectrum_entropy,
    von_neumann_entropy,
)
from .states import BipartiteState, MultipartiteState, ptrace_a, ptrace_b

_LN2 = math.log(2.0)


class DistanceMeasure:
    """Marker base for the distance used by generalized discord."""


@dataclass(frozen=True)
class RelativeEntropy(DistanceMeasure):
    """Quantum relative entropy (contractive under channels)."""


@dataclass(frozen=True)
class SchattenNorm(DistanceMeasure):
    """Schatten p-norm distance; p=1 is contractive, p=2 is Frobenius."""

    p: float = 2.0

    def __post_init__(self):
        if not (self.p == math.inf or self.p >= 1.0):
            raise InvalidP(f"p must be >= 1 or inf, got {self.p}")


@dataclass(frozen=True)
class PiResult:
    """Outcome of dephasing subsystem A in an eigenbasis of rho_A.

    ``value`` is the diagonal discord S(dephased) - S(rho), floored at zero.
    """

    dephased: BipartiteState
    basis_used: np.ndarray
    degenerate: bool
    optimized_over_degeneracy: bool
    value: float


def entropy_gain(state, dephased) -> float:
    """S(dephased) - S(state) in bits, floored at zero, from the kept spectra."""
    return max(dephased.entropy - state.entropy, 0.0)


def in_a_basis(rho: np.ndarray, d_a: int, d_b: int, basis: np.ndarray, act) -> np.ndarray:
    """Rotate A into the basis columns, apply ``act``, and rotate back.

    ``act`` maps the (d_a, d_b, d_a, d_b) tensor of the rotated rho.
    """
    rot = np.kron(basis.conj().T, np.eye(d_b))
    t = act((rot @ rho @ rot.conj().T).reshape(d_a, d_b, d_a, d_b))
    rot_back = np.kron(basis, np.eye(d_b))
    return rot_back @ t.reshape(d_a * d_b, d_a * d_b) @ rot_back.conj().T


def _a_diagonal(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    for i in range(t.shape[0]):
        out[i, :, i, :] = t[i, :, i, :]
    return out


def dephase_a(rho: np.ndarray, d_a: int, d_b: int, basis: np.ndarray) -> np.ndarray:
    """sum_i (|v_i><v_i| (x) I) rho (|v_i><v_i| (x) I) for basis columns v_i."""
    return in_a_basis(rho, d_a, d_b, basis, _a_diagonal)


def _conditional_blocks(rho: np.ndarray, d_a: int, d_b: int, basis: np.ndarray) -> np.ndarray:
    """Stacked blocks <v_i| rho |v_i> of shape (d_a, d_b, d_b)."""
    t = rho.reshape(d_a, d_b, d_a, d_b)
    return np.einsum("ia,abcd,ic->ibd", basis.T.conj(), t, basis.T)


def _blocks_entropy(blocks: np.ndarray) -> float:
    """S of the block-diagonal matrix with the given PSD blocks (bits)."""
    return spectrum_entropy(np.clip(np.linalg.eigvalsh(blocks).ravel(), 0.0, None))


def _rotate_blocks(basis: np.ndarray, blocks: tuple[tuple[int, int], ...], angles) -> np.ndarray:
    """Apply a 2-angle rotation inside each degenerate 2-dim block."""
    out = basis.copy()
    for k, (start, _stop) in enumerate(blocks):
        theta, phi = angles[2 * k], angles[2 * k + 1]
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        e = complex(math.cos(phi), math.sin(phi))
        vi = basis[:, start]
        vj = basis[:, start + 1]
        out[:, start] = c * vi + e * s * vj
        out[:, start + 1] = -np.conj(e) * s * vi + c * vj
    return out


_BLOCK_GRID_THETA = 48
_BLOCK_GRID_PHI = 24


def _optimize_degenerate_basis(dec: SpectralDecomposition, objective) -> np.ndarray:
    """Minimize `objective(basis)` over eigenbases of the degenerate blocks.

    Each 2-dim block is parameterized by two angles on a coarse grid, then
    all block angles are refined jointly with Nelder-Mead. Blocks of
    dimension >= 3 are rejected.
    """
    for start, stop in dec.degenerate_blocks:
        if stop - start > 2:
            raise DegenerateMarginal(
                f"degenerate block of dimension {stop - start} >= 3 is not "
                "supported by the eigenbasis optimization",
                blocks=dec.degenerate_blocks,
            )
    blocks = dec.degenerate_blocks
    thetas = np.linspace(0.0, math.pi, _BLOCK_GRID_THETA)
    phis = np.linspace(0.0, 2.0 * math.pi, _BLOCK_GRID_PHI, endpoint=False)
    angles = [0.0, 0.0] * len(blocks)
    for k in range(len(blocks)):
        best = math.inf
        best_pair = (0.0, 0.0)
        for th in thetas:
            for ph in phis:
                angles[2 * k], angles[2 * k + 1] = th, ph
                val = objective(_rotate_blocks(dec.eigenvectors, blocks, angles))
                if val < best:
                    best = val
                    best_pair = (th, ph)
        angles[2 * k], angles[2 * k + 1] = best_pair

    res = minimize(
        lambda x: objective(_rotate_blocks(dec.eigenvectors, blocks, x)),
        np.array(angles),
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 2000},
    )
    if res.fun <= objective(_rotate_blocks(dec.eigenvectors, blocks, angles)):
        angles = list(res.x)
    return _rotate_blocks(dec.eigenvectors, blocks, angles)


def _eigenbasis(state: BipartiteState, optimize_degenerate: bool, objective) -> np.ndarray:
    """Eigenbasis of rho_A that the A-side dephasing uses.

    A nondegenerate marginal fixes it up to phases. A degenerate one raises
    DegenerateMarginal unless ``optimize_degenerate`` is set; then
    ``objective(basis)`` is minimized over the degenerate blocks.
    """
    dec = state.marginal_eig
    if not dec.degenerate:
        return dec.eigenvectors
    if not optimize_degenerate:
        raise DegenerateMarginal(
            f"rho_A is degenerate (min gap {dec.min_gap:.3e}); blocks "
            f"{dec.degenerate_blocks}",
            blocks=dec.degenerate_blocks,
        )
    return _optimize_degenerate_basis(dec, objective)


def pi_a(state: BipartiteState, optimize_degenerate: bool = False) -> PiResult:
    """Dephase A in an eigenbasis of rho_A.

    With a nondegenerate marginal the eigenbasis is unique up to phases and
    the result is deterministic. A degenerate marginal raises
    DegenerateMarginal unless ``optimize_degenerate`` is set, in which case
    the entropy of the dephased state is minimized over the eigenbases
    spanning each degenerate block.
    """
    d_a, d_b = state.dim_a, state.dim_b
    basis = _eigenbasis(
        state,
        optimize_degenerate,
        lambda b: _blocks_entropy(_conditional_blocks(state.rho, d_a, d_b, b)),
    )
    dephased = dephase_a(state.rho, d_a, d_b, basis)
    dephased = BipartiteState((dephased + dephased.conj().T) / 2.0, d_a, d_b)
    degenerate = state.marginal_eig.degenerate
    return PiResult(
        dephased=dephased,
        basis_used=basis,
        degenerate=degenerate,
        optimized_over_degeneracy=degenerate,
        value=entropy_gain(state, dephased),
    )


def diagonal_discord(state: BipartiteState, optimize_degenerate: bool = False) -> float:
    """S(pi_A(rho)) - S(rho) in bits, minimized over degenerate eigenbases."""
    return pi_a(state, optimize_degenerate).value


def mutual_information(state: BipartiteState) -> float:
    """I(A:B) = S(rho_A) + S(rho_B) - S(rho_AB) in bits."""
    val = (
        von_neumann_entropy(ptrace_b(state.rho, state.dim_a, state.dim_b))
        + von_neumann_entropy(ptrace_a(state.rho, state.dim_a, state.dim_b))
        - state.entropy
    )
    return max(val, 0.0)


def diagonal_discord_via_mi(
    state: BipartiteState, optimize_degenerate: bool = False
) -> float:
    """I(rho) - I(pi_A(rho)); equals diagonal_discord since pi_A keeps marginals."""
    res = pi_a(state, optimize_degenerate)
    val = mutual_information(state) - mutual_information(res.dephased)
    return max(val, 0.0)


def generalized_discord(
    state: BipartiteState,
    delta: DistanceMeasure,
    optimize_degenerate: bool = False,
) -> float:
    """delta(rho, pi_A(rho)) for the chosen distance measure.

    In degenerate-optimizing mode the distance itself is minimized over the
    eigenbases of the degenerate blocks.
    """
    if isinstance(delta, RelativeEntropy):
        res = pi_a(state, optimize_degenerate)
        return relative_entropy(state.rho, res.dephased.rho)
    if not isinstance(delta, SchattenNorm):
        raise TypeError(f"unsupported distance measure {delta!r}")
    d_a, d_b = state.dim_a, state.dim_b

    def distance(basis: np.ndarray) -> float:
        return schatten_norm(state.rho - dephase_a(state.rho, d_a, d_b, basis), delta.p)

    return distance(_eigenbasis(state, optimize_degenerate, distance))


def pi_multi(state: MultipartiteState, parties) -> MultipartiteState:
    """Dephase every listed party in an eigenbasis of its marginal.

    Each party is permuted to the front and dephased by ``dephase_a``. The
    map is idempotent and preserves all measured marginals; measuring an
    empty party set is the identity.
    """
    parties = sorted(set(int(p) for p in parties))
    dims = state.dims
    n = len(dims)
    for k in parties:
        if not 0 <= k < n:
            raise DimensionMismatch(f"party index {k} outside 0..{n - 1}")
    rho = state.rho
    size = rho.shape[0]
    for k in parties:
        order = [k, *(j for j in range(n) if j != k)]
        axes = order + [n + j for j in order]
        front = rho.reshape(dims * 2).transpose(axes).reshape(size, size)
        d_k, rest = dims[k], size // dims[k]
        dec = hermitian_eig(ptrace_b(front, d_k, rest))
        if dec.degenerate:
            raise DegenerateMarginal(
                f"marginal of party {k} is degenerate (min gap {dec.min_gap:.3e})",
                blocks=dec.degenerate_blocks,
                party=k,
            )
        front = dephase_a(front, d_k, rest, dec.eigenvectors)
        permuted = tuple(dims[j] for j in order) * 2
        rho = front.reshape(permuted).transpose(np.argsort(axes)).reshape(size, size)
    rho = (rho + rho.conj().T) / 2.0
    return MultipartiteState(rho, dims)


# --- two-qubit optimized (projective) discord --------------------------------

_GRID_THETA = 64
_GRID_PHI = 32
_TH, _PH = np.meshgrid(
    np.linspace(0.0, math.pi, _GRID_THETA),
    np.linspace(0.0, 2.0 * math.pi, _GRID_PHI, endpoint=False),
    indexing="ij",
)
_THF = _TH.ravel()
_PHF = _PH.ravel()
_W00 = np.cos(_THF / 2.0) ** 2
_W01 = np.cos(_THF / 2.0) * np.sin(_THF / 2.0) * np.exp(1j * _PHF)
_W11 = np.sin(_THF / 2.0) ** 2


def _h_arr(w: np.ndarray) -> np.ndarray:
    out = np.zeros_like(w)
    nz = w > 1e-300
    out[nz] = -w[nz] * np.log(w[nz]) / _LN2
    return out


def _h_scalar(x: float) -> float:
    return -x * math.log(x) / _LN2 if x > 1e-300 else 0.0


def _post_measurement_entropy_grid(b00, b01, b10, b11, rho_b):
    """sum_k p_k S(rho_B|k) on the whole measurement-direction grid."""
    m0 = (
        _W00[:, None, None] * b00
        + _W01[:, None, None] * b01
        + _W01.conj()[:, None, None] * b10
        + _W11[:, None, None] * b11
    )
    total = np.zeros(len(_W00))
    for m in (m0, rho_b[None, :, :] - m0):
        t = np.real(m[:, 0, 0] + m[:, 1, 1])
        det = np.real(m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0])
        root = np.sqrt(np.clip(t * t - 4.0 * det, 0.0, None))
        total += (
            _h_arr(np.clip((t + root) / 2.0, 0.0, None))
            + _h_arr(np.clip((t - root) / 2.0, 0.0, None))
            - _h_arr(np.clip(t, 0.0, None))
        )
    return total


def _post_measurement_entropy_at(b00, b01, b10, b11, rho_b, theta, phi):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    w01 = c * s * complex(math.cos(phi), math.sin(phi))
    m0 = c * c * b00 + w01 * b01 + w01.conjugate() * b10 + s * s * b11
    total = 0.0
    for m in (m0, rho_b - m0):
        t = (m[0, 0] + m[1, 1]).real
        det = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
        root = math.sqrt(max(t * t - 4.0 * det, 0.0))
        total += (
            _h_scalar(max((t + root) / 2.0, 0.0))
            + _h_scalar(max((t - root) / 2.0, 0.0))
            - _h_scalar(max(t, 0.0))
        )
    return total


@dataclass(frozen=True)
class OptimizedDiscordResult:
    value: float
    theta: float
    phi: float


def optimized_discord_2q(state: BipartiteState) -> OptimizedDiscordResult:
    """Ollivier-Zurek discord of a two-qubit state, measured on A.

    D_A = S(rho_A) - S(rho_AB) + min over projective bases of
    sum_k p_k S(rho_B|k). The minimization runs a 64x32 (theta, phi) grid,
    refines the best grid point with Nelder-Mead to 1e-8 angle tolerance,
    and additionally evaluates the exact marginal eigenbasis so that the
    result never exceeds diagonal discord.
    """
    if state.dim_a != 2 or state.dim_b != 2:
        raise DimensionMismatch("optimized_discord_2q requires d_A = d_B = 2")
    t = state.rho.reshape(2, 2, 2, 2)
    b00, b01, b10, b11 = t[0, :, 0, :], t[0, :, 1, :], t[1, :, 0, :], t[1, :, 1, :]
    rho_b = b00 + b11
    rho_a = np.array(
        [[np.trace(b00), np.trace(b01)], [np.trace(b10), np.trace(b11)]]
    )
    base = von_neumann_entropy(rho_a) - state.entropy

    grid = _post_measurement_entropy_grid(b00, b01, b10, b11, rho_b)
    g = int(np.argmin(grid))
    candidates = [(float(grid[g]), float(_THF[g]), float(_PHF[g]))]

    res = minimize(
        lambda x: _post_measurement_entropy_at(b00, b01, b10, b11, rho_b, x[0], x[1]),
        np.array([_THF[g], _PHF[g]]),
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 400},
    )
    candidates.append((float(res.fun), float(res.x[0]), float(res.x[1])))

    dec = hermitian_eig(rho_a)
    if not dec.degenerate:
        v = dec.eigenvectors[:, 0]
        theta_e = 2.0 * math.atan2(abs(v[1]), abs(v[0]))
        phi_e = float(np.angle(v[1]) - np.angle(v[0])) if abs(v[1]) > 0 and abs(v[0]) > 0 else 0.0
        candidates.append(
            (
                _post_measurement_entropy_at(b00, b01, b10, b11, rho_b, theta_e, phi_e),
                theta_e,
                phi_e,
            )
        )

    best_val, best_theta, best_phi = min(candidates, key=lambda c: c[0])
    return OptimizedDiscordResult(
        value=max(base + best_val, 0.0), theta=best_theta, phi=best_phi
    )


# --- continuity bounds --------------------------------------------------------

def continuity_bound(d_a: int, d_b: int, gap: float, eps: float) -> float:
    """Fannes-type bound on |change of diagonal discord| in bits.

    (sqrt(2 d_A^3 d_B^3)/gap + 1) eps log2(d_A d_B - 1)
      + H[(2 sqrt(2 d_A^3 d_B^3)/gap + 1) eps / 2] + H(eps / 2),
    valid while both binary-entropy arguments stay in [0, 1].
    """
    if d_a < 1 or d_b < 1 or d_a * d_b < 2:
        raise OutOfDomain("need d_A * d_B >= 2")
    if gap <= 0.0:
        raise OutOfDomain(f"gap must be positive, got {gap}")
    if eps < 0.0:
        raise OutOfDomain(f"eps must be nonnegative, got {eps}")
    c = math.sqrt(2.0 * d_a**3 * d_b**3)
    arg1 = 0.5 * (2.0 * c / gap + 1.0) * eps
    arg2 = 0.5 * eps
    if arg1 > 1.0 or arg2 > 1.0:
        raise OutOfDomain(
            f"binary-entropy argument {max(arg1, arg2):.3e} exceeds 1; "
            "eps too large for this gap"
        )
    try:
        h1 = binary_entropy(arg1)
        h2 = binary_entropy(arg2)
    except OutOfRange as exc:  # pragma: no cover - guarded above
        raise OutOfDomain(str(exc)) from exc
    return (c / gap + 1.0) * eps * math.log2(d_a * d_b - 1.0) + h1 + h2


def schatten_continuity_bound(d_a: int, d_b: int, gap: float, eps: float) -> float:
    """Linear continuity bound 2 (1 + sqrt(2 d_A^3 d_B^3)/gap) eps."""
    if gap <= 0.0:
        raise OutOfDomain(f"gap must be positive, got {gap}")
    if eps < 0.0:
        raise OutOfDomain(f"eps must be nonnegative, got {eps}")
    return 2.0 * (1.0 + math.sqrt(2.0 * d_a**3 * d_b**3) / gap) * eps
