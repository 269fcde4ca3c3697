"""Eigenbasis-dephasing maps and the discord measures built on them.

The one-sided map dephases subsystem A in an eigenbasis of rho_A. It is
idempotent, preserves both marginals, and fixes exactly the
classical-quantum states. Diagonal discord is the entropy it adds, which
also equals the relative entropy from the input to its dephased image.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
from .states import (
    BipartiteState,
    MultipartiteState,
    blocks_a,
    from_blocks_a,
    ptrace_a,
    ptrace_b,
)

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
    value: float


def entropy_gain(state, dephased) -> float:
    """S(dephased) - S(state) in bits, floored at zero, from the kept spectra."""
    return max(dephased.entropy - state.entropy, 0.0)


def dephase_a(rho: np.ndarray, d_a: int, d_b: int, basis: np.ndarray) -> np.ndarray:
    """sum_i (|v_i><v_i| (x) I) rho (|v_i><v_i| (x) I) for basis columns v_i."""
    return from_blocks_a(basis, blocks_a(rho, d_a, d_b, basis))


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
        lambda b: spectrum_entropy(np.linalg.eigvalsh(blocks_a(state.rho, d_a, d_b, b))),
    )
    dephased = dephase_a(state.rho, d_a, d_b, basis)
    dephased = BipartiteState((dephased + dephased.conj().T) / 2.0, d_a, d_b)
    return PiResult(
        dephased=dephased,
        basis_used=basis,
        degenerate=state.marginal_eig.degenerate,
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

def _grid_directions(n_theta: int, n_phi: int) -> np.ndarray:
    """Unit vectors n(theta, phi) on a (theta, phi) grid, one per row."""
    th, ph = np.meshgrid(
        np.linspace(0.0, math.pi, n_theta),
        np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False),
        indexing="ij",
    )
    return np.stack(
        [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1
    ).reshape(-1, 3)


_GRID_N = _grid_directions(64, 32)
#: I, sigma_x, sigma_y, sigma_z
_PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
)
#: a Newton step stops a state once its tangent gradient is this small
_NEWTON_GTOL = 1e-13
_NEWTON_MAX_STEPS = 50
_BACKTRACK_HALVINGS = 40


@dataclass(frozen=True)
class OptimizedDiscordResult:
    """Optimized discord and the measurement direction n(theta, phi) on A."""

    value: float
    theta: float
    phi: float


def _bloch_form(rhos: np.ndarray):
    """(a, b, T) of rho = (I + a.s (x) I + I (x) b.s + sum T_ij s_i (x) s_j) / 4."""
    m = np.einsum("nabcd,ica,jdb->nij", rhos.reshape(-1, 2, 2, 2, 2), _PAULI, _PAULI).real
    return m[:, 1:, 0], m[:, 0, 1:], m[:, 1:, 1:]


def _h(x: np.ndarray) -> np.ndarray:
    """-x log2 x, with 0 for x <= 0."""
    pos = x > 0.0
    return np.where(pos, -x * np.log(np.where(pos, x, 1.0)), 0.0) / _LN2


def _conditional_entropy(u: np.ndarray, tn: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_+- [h(lam_+-,+) + h(lam_+-,-) - h(p_+-)] for u = a.n and tn = T^T n.

    p_+- = (1 +- u)/2 and lam_+-,+- = ((1 +- u) +- |b +- T^T n|)/4 are the
    outcome probabilities and the unnormalized conditional spectra of B.
    """
    q = 1.0 + np.stack([u, -u])
    w = b + np.stack([tn, -tn])
    r = np.sqrt(np.einsum("...i,...i->...", w, w))
    h = _h(np.stack([(q + r) / 4.0, (q - r) / 4.0, q / 2.0]))
    return (h[0] + h[1] - h[2]).sum(axis=0)


def _objective(n: np.ndarray, a, b, t) -> np.ndarray:
    """Conditional entropy of every state in the stack at its direction n."""
    return _conditional_entropy(
        np.einsum("ki,ki->k", a, n), np.einsum("kij,ki->kj", t, n), b
    )


def _gradient_hessian(n: np.ndarray, a, b, t):
    """Euclidean gradient (k, 3) and Hessian (k, 3, 3) of the objective at n.

    The six terms h(x) of ``_conditional_entropy`` are stacked as (3, 2, k):
    x = (q + r)/4, (q - r)/4, q/2 for q = 1 +- a.n and r = |b +- T^T n|. A
    term whose argument is not positive (a pure conditional state, where its
    gradient vanishes) contributes nothing.
    """
    sign = np.array([1.0, -1.0])[:, None, None]
    w = b + sign * np.einsum("kij,ki->kj", t, n)
    r = np.sqrt(np.einsum("ski,ski->sk", w, w))
    q = 1.0 + sign[:, :, 0] * np.einsum("ki,ki->k", a, n)
    dq = sign * a
    dr = sign * np.einsum("kij,skj->ski", t, w) / np.where(r > 0.0, r, 1.0)[..., None]
    d2r = np.einsum("kij,klj->kil", t, t) - dr[..., :, None] * dr[..., None, :]
    d2r /= np.where(r > 0.0, r, 1.0)[..., None, None]
    x = np.stack([(q + r) / 4.0, (q - r) / 4.0, q / 2.0])
    dx = np.stack([(dq + dr) / 4.0, (dq - dr) / 4.0, np.broadcast_to(dq / 2.0, dr.shape)])
    pos = x > 0.0
    xs = np.where(pos, x, 1.0)
    coef = np.array([1.0, 1.0, -1.0])[:, None, None] / _LN2
    dh = np.where(pos, -(np.log(xs) + 1.0), 0.0) * coef
    d2h = np.where(pos, -1.0 / xs, 0.0) * coef
    grad = np.einsum("jsk,jski->ki", dh, dx)
    hess = np.einsum("jsk,jski,jskl->kil", d2h, dx, dx)
    hess += np.einsum("sk,skil->kil", (dh[0] - dh[1]) / 4.0, d2r)
    return grad, hess


def _tangent_basis(n: np.ndarray) -> np.ndarray:
    """(k, 2, 3) orthonormal vectors spanning the tangent plane at each n."""
    axis = np.where(np.abs(n[:, :1]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
    e1 = np.cross(n, axis)
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    return np.stack([e1, np.cross(n, e1)], axis=1)


def _newton_refine(n, f, a, b, t):
    """Projected Newton on the unit sphere from n, for every state at once.

    Each step solves the 2x2 tangent Newton system (the gradient step where
    the tangent Hessian is not positive definite), retracts by normalizing,
    and halves the step until the objective strictly decreases. A state
    stops once its tangent gradient is below _NEWTON_GTOL or no halving
    decreases it.
    """
    n, f = n.copy(), f.copy()
    active = np.arange(len(n))
    for _ in range(_NEWTON_MAX_STEPS):
        if not len(active):
            break
        x = n[active]
        grad, hess = _gradient_hessian(x, a[active], b[active], t[active])
        e = _tangent_basis(x)
        g = np.einsum("kpi,ki->kp", e, grad)
        h = np.einsum("kpi,kij,kqj->kpq", e, hess, e)
        h -= np.einsum("ki,ki->k", x, grad)[:, None, None] * np.eye(2)
        moving = np.linalg.norm(g, axis=-1) >= _NEWTON_GTOL
        det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
        convex = (h[:, 0, 0] > 0.0) & (det > 0.0)
        dsafe = np.where(convex, det, 1.0)
        newton = -np.stack(
            [h[:, 1, 1] * g[:, 0] - h[:, 0, 1] * g[:, 1],
             h[:, 0, 0] * g[:, 1] - h[:, 1, 0] * g[:, 0]],
            axis=-1,
        ) / dsafe[:, None]
        step = np.einsum("kp,kpi->ki", np.where(convex[:, None], newton, -g), e)
        active, x, step = active[moving], x[moving], step[moving]
        improved = np.zeros(len(active), dtype=bool)
        scale = 1.0
        for _ in range(_BACKTRACK_HALVINGS):
            todo = ~improved
            if not todo.any():
                break
            idx = active[todo]
            trial = x[todo] + scale * step[todo]
            trial /= np.linalg.norm(trial, axis=-1, keepdims=True)
            ft = _objective(trial, a[idx], b[idx], t[idx])
            better = ft < f[idx]
            n[idx[better]], f[idx[better]] = trial[better], ft[better]
            improved[np.flatnonzero(todo)[better]] = True
            scale /= 2.0
        active = active[improved]
    return n, f


def optimized_discord_2q(states: Sequence[BipartiteState]) -> list[OptimizedDiscordResult]:
    """Ollivier-Zurek discord of each two-qubit state, measured on A.

    D_A = S(rho_A) - S(rho_AB) + min over unit vectors n of
    sum_k p_k S(rho_B|k), the conditional entropy after measuring A in the
    basis (I +- n.sigma)/2. With the Bloch form of Luo (PRA 77, 042303
    (2008)) it is a smooth function of n (see ``_conditional_entropy``).
    Each state is evaluated on a 64x32 (theta, phi) direction grid, one
    (2048, 3) @ (3, 3) product per state; then every state's best grid
    point is refined at once by projected Newton with the analytic gradient
    and Hessian. The value is the least of the grid point, the Newton point
    and the marginal eigenbasis n_e = v^dag sigma v, so it never exceeds
    the grid value, nor the diagonal discord beyond rounding (the two
    evaluate the eigenbasis by different formulas). theta and phi are the
    polar angles of the winning n.
    """
    states = list(states)
    for state in states:
        if state.dim_a != 2 or state.dim_b != 2:
            raise DimensionMismatch("optimized_discord_2q requires d_A = d_B = 2")
    if not states:
        return []
    a, b, t = _bloch_form(np.stack([s.rho for s in states]))
    n_grid = np.empty_like(a)
    f_grid = np.empty(len(states))
    for k in range(len(states)):
        values = _conditional_entropy(_GRID_N @ a[k], _GRID_N @ t[k], b[k])
        g = int(np.argmin(values))
        n_grid[k], f_grid[k] = _GRID_N[g], values[g]
    n_newton, f_newton = _newton_refine(n_grid, f_grid, a, b, t)
    v = np.stack([s.marginal_eig.eigenvectors[:, 0] for s in states])
    n_eig = np.einsum("ka,iab,kb->ki", v.conj(), _PAULI[1:], v).real
    f_eig = _objective(n_eig, a, b, t)
    best_n = np.where((f_eig < f_newton)[:, None], n_eig, n_newton)
    best_f = np.minimum(f_eig, f_newton)
    theta = np.arccos(np.clip(best_n[:, 2], -1.0, 1.0))
    phi = np.arctan2(best_n[:, 1], best_n[:, 0]) % (2.0 * math.pi)
    return [
        OptimizedDiscordResult(
            value=max(spectrum_entropy(s.marginal_eig.eigenvalues) - s.entropy + f, 0.0),
            theta=float(th),
            phi=float(ph),
        )
        for s, f, th, ph in zip(states, best_f.tolist(), theta, phi)
    ]


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
