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
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import DegenerateMarginal, DimensionMismatch, OutOfDomain
from .linalg import (
    _LN2,
    SpectralDecomposition,
    binary_entropy,
    block_spectrum,
    check_density_spectrum,
    check_schatten_p,
    first_bad_row,
    hermitian_eig,
    schatten_norm,
    spectrum_entropy,
    von_neumann_entropy,
    xlogx,
)
from .states import (
    BipartiteState,
    MultipartiteState,
    _dephasing_factor,
    _factor_blocks_a,
    blocks_a,
    from_blocks_a,
    from_pairs_a,
    ptrace_a,
    ptrace_b,
)

@dataclass(frozen=True)
class PiResult:
    """Outcome of dephasing subsystem A in an eigenbasis of rho_A.

    ``value`` is the diagonal discord S(dephased) - S(rho), floored at zero,
    from the checked ``spectrum`` of the dephased state, that of its
    ``blocks``. ``dephased`` is built on first read, when its matrix is
    checked. For a stack of states ``value`` and ``degenerate`` hold one
    entry per row.
    """

    basis_used: np.ndarray
    blocks: np.ndarray
    spectrum: np.ndarray
    degenerate: bool
    value: float

    @cached_property
    def dephased(self) -> BipartiteState:
        """The dephased state, built from the blocks on first read and kept."""
        rho = from_blocks_a(self.basis_used, self.blocks)
        rho = (rho + rho.conj().swapaxes(-1, -2)) / 2.0
        d_a, d_b = self.basis_used.shape[-1], self.blocks.shape[-1]
        return BipartiteState(rho, d_a, d_b, _spectrum=self.spectrum)


def entropy_gain(state, dephased):
    """S(dephased) - S(state) in bits, floored at zero, from the kept spectra."""
    return np.maximum(dephased.entropy - state.entropy, 0.0)


def dephasing_superop(basis: np.ndarray) -> np.ndarray:
    """D = sum_k P_k (x) conj(P_k), P_k = v_k v_k^dag, for the basis columns v_k.

    It is C C^dag for the factor C of ``states._dephasing_factor``, one D per basis of a stack.
    """
    c = _dephasing_factor(basis)
    return c @ c.conj().swapaxes(-1, -2)


def dephase_a(rho: np.ndarray, d_a: int, d_b: int, basis: np.ndarray) -> np.ndarray:
    """sum_i (|v_i><v_i| (x) I) rho (|v_i><v_i| (x) I) for basis columns v_i.

    A stack of bases gives one per row of rho, or many for one matrix.
    """
    c, pairs = _factor_blocks_a(rho, d_a, d_b, basis)
    return from_pairs_a(c @ pairs, d_a, d_b)


def _angle_grid(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """(theta, phi) of an n_theta x n_phi grid on [0, pi] x [0, 2 pi), theta-major."""
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    return np.repeat(thetas, n_phi), np.tile(phis, n_theta)


def _rotate_pairs(basis: np.ndarray, pairs: tuple[tuple[int, int], ...], angles) -> np.ndarray:
    """Rotate each column pair (i, j) in turn by its angle pair (theta, phi),
    acting on the columns as already rotated: one basis (..., d, d) for each
    row of ``angles`` (..., 2 len(pairs))."""
    out = np.broadcast_to(basis, angles.shape[:-1] + basis.shape).copy()
    for k, (i, j) in enumerate(pairs):
        theta, phi = angles[..., 2 * k, None], angles[..., 2 * k + 1, None]
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        e = np.cos(phi) + 1j * np.sin(phi)
        vi, vj = out[..., :, i], out[..., :, j]
        out[..., :, i], out[..., :, j] = c * vi + e * s * vj, -np.conj(e) * s * vi + c * vj
    return out


_BLOCK_GRID = np.stack(_angle_grid(48, 24), axis=-1)


def _check_optimizable(dec: SpectralDecomposition, p: float) -> None:
    """Raise DegenerateMarginal if a flagged row has a degenerate block of 3+ columns.

    Only the p = 1 and p = inf searches refuse them: on rho_A = I/3 their
    repeated pair passes stayed up to 2.1e-5 (p = 1) and 1.1e-6 (p = inf)
    above the best of 20 Nelder-Mead runs over U(3), against 5.6e-8 for
    entropy and p = 2 at 4 columns. Every flagged row is checked before any
    is optimized.
    """
    for idx in np.argwhere(dec.degenerate):
        blocks = dec[tuple(idx)].degenerate_blocks
        for start, stop in blocks:
            if stop - start > 2:
                raise DegenerateMarginal(
                    f"degenerate block of dimension {stop - start} >= 3 is not "
                    f"supported by the eigenbasis optimization at p = {p}",
                    blocks=blocks,
                )


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first call: scipy is most of the import cost."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def _optimize_degenerate_basis(dec: SpectralDecomposition, objective) -> np.ndarray:
    """Minimize ``objective(bases)`` over eigenbases of the degenerate blocks.

    The unit is a column pair (i < j) of a block, rotated by an angle pair
    (theta, phi) (Jacobi rotations, as in Cardoso and Souloumiac, SIAM J.
    Matrix Anal. Appl. 17, 161 (1996)). A pass scans each pair in turn on
    the (theta, phi) grid as one stack of bases, the earlier pairs at their
    best (first least) grid point; then all pair angles are refined jointly
    with Nelder-Mead. With 2-column blocks the pairs are the blocks and one
    pass is made. With a block of 3+ columns the pass is repeated from its
    own result until it gains no more than _ROUNDOFF max(|f|, 1), and the
    earlier basis is kept then.
    """
    blocks = dec.degenerate_blocks
    pairs = tuple(ij for start, stop in blocks for ij in combinations(range(start, stop), 2))

    def one_pass(basis: np.ndarray):
        grid = np.zeros((len(_BLOCK_GRID), 2 * len(pairs)))
        for k in range(len(pairs)):
            grid[:, 2 * k : 2 * k + 2] = _BLOCK_GRID
            values = objective(_rotate_pairs(basis, pairs, grid))
            g = int(np.argmin(values))
            grid[:, 2 * k : 2 * k + 2] = _BLOCK_GRID[g]
            best = values[g]
        res = minimize(
            lambda x: objective(_rotate_pairs(basis, pairs, x)),
            grid[0],
            method="Nelder-Mead",
            options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 2000},
        )
        if res.fun <= best:
            return _rotate_pairs(basis, pairs, res.x), res.fun
        return _rotate_pairs(basis, pairs, grid[0]), best

    basis, f = one_pass(dec.eigenvectors)
    while any(stop - start > 2 for start, stop in blocks):
        again, f_again = one_pass(basis)
        if f - f_again <= _ROUNDOFF * max(abs(f), 1.0):
            break
        basis, f = again, f_again
    return basis


def _eigenbasis(state: BipartiteState, optimize_degenerate: bool, objective) -> np.ndarray:
    """Eigenbasis of rho_A (of each row of a stack) that the A-side dephasing uses.

    A nondegenerate marginal fixes it up to phases. A degenerate one raises
    DegenerateMarginal unless ``optimize_degenerate`` is set; then
    ``objective(rho, bases)``, one value per basis of a stack, is minimized
    over the eigenbases of the degenerate blocks, of any size, one flagged
    row at a time (``_optimize_degenerate_basis``).
    """
    dec = state.marginal_eig
    if not dec.degenerate.any():
        return dec.eigenvectors
    if not optimize_degenerate:
        label, idx = first_bad_row("rho_A", dec.degenerate)
        row = dec[idx]
        raise DegenerateMarginal(
            f"{label} is degenerate (min gap {row.min_gap:.3e}); blocks "
            f"{row.degenerate_blocks}",
            blocks=row.degenerate_blocks,
        )
    basis = dec.eigenvectors.copy()
    for idx in map(tuple, np.argwhere(dec.degenerate)):
        basis[idx] = _optimize_degenerate_basis(dec[idx], lambda b: objective(state.rho[idx], b))
    return basis


def pi_a(state: BipartiteState, optimize_degenerate: bool = False) -> PiResult:
    """Dephase A in an eigenbasis of rho_A.

    With a nondegenerate marginal the eigenbasis is unique up to phases and
    the result is deterministic. A degenerate marginal raises
    DegenerateMarginal unless ``optimize_degenerate`` is set, in which case
    the entropy of the dephased state, bit for bit as reported, is minimized
    over the eigenbases spanning each degenerate block, of any size, by
    column-pair passes (``_optimize_degenerate_basis``). A stack of states is
    dephased as one stack; only its degenerate rows are optimized one by
    one. The dephased state's spectrum is that of its conditional blocks
    (``block_spectrum``), with no eigensolve of the whole matrix; it is
    checked and gives ``value`` at once, and the matrix is built on first read.
    """
    d_a, d_b = state.dim_a, state.dim_b
    basis = _eigenbasis(
        state,
        optimize_degenerate,
        lambda rho, b: spectrum_entropy(block_spectrum(blocks_a(rho, d_a, d_b, b))),
    )
    blocks = blocks_a(state.rho, d_a, d_b, basis)
    spectrum = check_density_spectrum(block_spectrum(blocks))
    return PiResult(
        basis_used=basis,
        blocks=blocks,
        spectrum=spectrum,
        degenerate=state.marginal_eig.degenerate,
        value=np.maximum(np.maximum(spectrum_entropy(spectrum), 0.0) - state.entropy, 0.0),
    )


def diagonal_discord(state: BipartiteState, optimize_degenerate: bool = False) -> float:
    """S(pi_A(rho)) - S(rho) in bits, minimized over degenerate eigenbases.

    It builds and checks pi_A(rho) as a state and reads the gain from it,
    bit for bit ``pi_a(state).value``, which the stacked experiments read
    without building the dephased matrix.
    """
    res = pi_a(state, optimize_degenerate)
    return entropy_gain(state, res.dephased)


def _marginal_entropies(state: BipartiteState) -> float:
    """S(rho_A) + S(rho_B), S(rho_A) from the kept marginal decomposition."""
    s_a = np.maximum(spectrum_entropy(state.marginal_eig.eigenvalues), 0.0)
    return s_a + von_neumann_entropy(ptrace_a(state.rho, state.dim_a, state.dim_b))


def mutual_information(state: BipartiteState) -> float:
    """I(A:B) = S(rho_A) + S(rho_B) - S(rho_AB) in bits, one per row of a stack."""
    return np.maximum(_marginal_entropies(state) - state.entropy, 0.0)


def diagonal_discord_via_mi(
    state: BipartiteState, optimize_degenerate: bool = False
) -> float:
    """I(rho) - I(pi_A(rho)); equals diagonal_discord since pi_A keeps marginals.

    Both marginals are the same before and after pi_A, so their entropies
    are computed once, S(rho_A) from the marginal decomposition pi_A uses.
    S(pi_A(rho)) comes from the kept spectrum; no dephased matrix is built.
    """
    res = pi_a(state, optimize_degenerate)
    marginals = _marginal_entropies(state)
    before = np.maximum(marginals - state.entropy, 0.0)
    after = np.maximum(marginals - np.maximum(spectrum_entropy(res.spectrum), 0.0), 0.0)
    return np.maximum(before - after, 0.0)


def generalized_discord(
    state: BipartiteState, p: float = 2.0, optimize_degenerate: bool = False
) -> float:
    """Schatten p-distance ||rho - pi_A(rho)||_p, one per row of a stack.

    The difference is Hermitian; ``schatten_norm`` takes it from |eigvalsh|. p >= 1
    or inf: p = 1 is contractive, p = 2 (Frobenius) is not (Piani, PRA 86, 034101
    (2012)). p is checked before the marginal, so a bad p raises InvalidP
    even on a degenerate state. In degenerate-optimizing mode the distance
    itself is minimized over the eigenbases of the degenerate blocks by
    column-pair passes. At p = 1 and p = inf a block of 3+ columns raises
    DegenerateMarginal (``_check_optimizable``), and the search on 2-column
    blocks is local and depends on the phases of the solver's eigenvectors:
    random rephasings moved p = 1 by up to 6.7e-3 and p = inf by up to 2.4e-4
    (seeded states at 2x2, 3x2, 2x3 and 4x2). The
    relative-entropy member, S(rho || pi_A(rho)), is the diagonal discord.
    """
    check_schatten_p(p)
    if optimize_degenerate and p in (1.0, math.inf):
        _check_optimizable(state.marginal_eig, p)
    d_a, d_b = state.dim_a, state.dim_b

    def distance(rho: np.ndarray, basis: np.ndarray):
        return schatten_norm(rho - dephase_a(rho, d_a, d_b, basis), p)

    return distance(state.rho, _eigenbasis(state, optimize_degenerate, distance))


def pi_multi(state: MultipartiteState, parties) -> MultipartiteState:
    """Dephase every listed party in an eigenbasis of its marginal.

    Each party is permuted to the front and dephased through its blocks;
    the output's spectrum is that of the last party's blocks. The
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
    spectrum = None  # the dephased output's, from the last party's blocks
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
        c, pairs = _factor_blocks_a(front, d_k, rest, dec.eigenvectors)
        front = from_pairs_a(c @ pairs, d_k, rest)
        spectrum = block_spectrum(pairs.reshape(pairs.shape[:-1] + (rest, rest)))
        permuted = tuple(dims[j] for j in order) * 2
        rho = front.reshape(permuted).transpose(np.argsort(axes)).reshape(size, size)
    rho = (rho + rho.conj().T) / 2.0
    return MultipartiteState(rho, dims, _spectrum=spectrum)


# --- two-qubit optimized (projective) discord --------------------------------

def _grid_directions(n_theta: int, n_phi: int) -> np.ndarray:
    """Unit vectors n(theta, phi) on a (theta, phi) grid, one per row."""
    th, ph = _angle_grid(n_theta, n_phi)
    return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)


# n and -n are one measurement, so the theta <= pi/2 half of a 64x32 grid
# (theta_0 .. theta_31 at every phi) holds one of each antipodal pair.
_HALF_GRID = _grid_directions(64, 32)[: 32 * 32]
_HALF_THETAS = np.linspace(0.0, math.pi, 64)[:32]
#: states scored on the half grid at once: 4 to 12 cost about the same per
#: state, 16 over twice as much, once a chunk's terms outgrow the cache
_GRID_CHUNK = 8
# glibc raises its mmap threshold to the largest mmapped block freed so far.
# Freeing this 2 MiB one keeps arrays of 128 KiB (the default) to 2 MiB on the heap,
# mapped across calls, such as monotonicity's 600 x 4x4 complex stacks. Else they
# fault in again: 18 700 minor faults against 38 in 8 monotonicity rounds of 3 x 600
# (getrusage in-process). xstate does not depend on it: 15 rounds of 300 states
# take about 10 minor faults with or without it.
np.empty(1 << 18)
#: I, sigma_x, sigma_y, sigma_z
_PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
)
#: a Newton step stops a state once its tangent gradient is this small
_NEWTON_GTOL = 1e-13
#: a convex Newton step stops a state once its model decrease is at most this
#: many ulps of max(|f|, 1): round-off in f would swamp anything it could gain
_ROUNDOFF = 4.0 * np.finfo(float).eps
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


def _x_shaped(a, b, t) -> np.ndarray:
    """Rows whose Bloch form is exactly an X-state's: a, b along z and T diagonal."""
    off = t.reshape(-1, 9)[:, [1, 2, 3, 5, 6, 7]]
    return ~(a[:, :2].any(axis=1) | b[:, :2].any(axis=1) | off.any(axis=1))


def _conditional_entropy(u: np.ndarray, tn: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_+- [h(lam_+-,+) + h(lam_+-,-) - h(p_+-)] for u = a.n and tn = T^T n.

    Here h(x) = -x log2 x, and p_+- = (1 +- u)/2 and lam_+-,+- =
    ((1 +- u) +- |b +- T^T n|)/4 are the outcome probabilities and the
    unnormalized conditional spectra of B.
    """
    q = 1.0 + np.stack([u, -u])
    w = b + np.stack([tn, -tn])
    r = np.sqrt(np.einsum("...i,...i->...", w, w))
    h = -xlogx(np.stack([(q + r) / 4.0, (q - r) / 4.0, q / 2.0])) / _LN2
    return (h[0] + h[1] - h[2]).sum(axis=0)


def _objective(n: np.ndarray, a, b, t) -> np.ndarray:
    """Conditional entropy of every state in the stack at its direction n."""
    return _conditional_entropy(
        np.einsum("ki,ki->k", a, n), np.einsum("kij,ki->kj", t, n), b
    )


def _grid_minimizers(a, b, t) -> np.ndarray:
    """Each state's least direction (k, 3) on the theta <= pi/2 half grid.

    ``_conditional_entropy`` scores each chunk of _GRID_CHUNK states at
    every grid direction; a row's products are its own, so its bits do not
    depend on the stack or its chunk.
    """
    best = np.empty(len(a), dtype=np.intp)
    for start in range(0, len(a), _GRID_CHUNK):
        chunk = slice(start, start + _GRID_CHUNK)
        u = (_HALF_GRID @ a[chunk, :, None])[..., 0]
        g = _conditional_entropy(u, _HALF_GRID @ t[chunk], b[chunk, None])
        best[chunk] = np.argmin(g, axis=-1)
    return _HALF_GRID[best]


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


def _newton(x, f, model, value):
    """Newton with step halving from points x with values f, every state at once.

    ``model(idx, x)`` gives states idx at x their step (Newton where the Hessian
    is positive definite, else gradient), gradient norm and model decrease -g.d/2
    (inf for a gradient step); ``value(idx, x)`` maps trial points onto the domain
    and scores them. Steps halve until f strictly decreases. A state stops once
    its gradient is below _NEWTON_GTOL, no halving decreases f, or the model
    decrease is at most _ROUNDOFF max(|f|, 1): round-off, where up to 40 halvings
    in each of 50 steps could only move f in its last bits.
    """
    x, f = x.copy(), f.copy()
    active = np.arange(len(x))
    for _ in range(_NEWTON_MAX_STEPS):
        if not len(active):
            break
        start = x[active]
        step, gnorm, gain = model(active, start)
        moving = (gnorm >= _NEWTON_GTOL) & (gain > _ROUNDOFF * np.maximum(np.abs(f[active]), 1.0))
        active, start, step = active[moving], start[moving], step[moving]
        improved = np.zeros(len(active), dtype=bool)
        scale = 1.0
        for _ in range(_BACKTRACK_HALVINGS):
            todo = ~improved
            if not todo.any():
                break
            idx = active[todo]
            trial, ft = value(idx, start[todo] + scale * step[todo])
            better = ft < f[idx]
            x[idx[better]], f[idx[better]] = trial[better], ft[better]
            improved[np.flatnonzero(todo)[better]] = True
            scale /= 2.0
        active = active[improved]
    return x, f


def _newton_refine(n, f, a, b, t):
    """``_newton`` on the unit sphere from n: 2x2 tangent systems, retraction by normalizing."""

    def model(idx, x):
        grad, hess = _gradient_hessian(x, a[idx], b[idx], t[idx])
        e = _tangent_basis(x)
        g = np.einsum("kpi,ki->kp", e, grad)
        h = np.einsum("kpi,kij,kqj->kpq", e, hess, e)
        h -= np.einsum("ki,ki->k", x, grad)[:, None, None] * np.eye(2)
        det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
        convex = (h[:, 0, 0] > 0.0) & (det > 0.0)
        dsafe = np.where(convex, det, 1.0)
        newton = -np.stack(
            [h[:, 1, 1] * g[:, 0] - h[:, 0, 1] * g[:, 1],
             h[:, 0, 0] * g[:, 1] - h[:, 1, 0] * g[:, 0]],
            axis=-1,
        ) / dsafe[:, None]
        gain = np.where(convex, -0.5 * np.einsum("kp,kp->k", g, newton), np.inf)
        step = np.einsum("kp,kpi->ki", np.where(convex[:, None], newton, -g), e)
        return step, np.linalg.norm(g, axis=-1), gain

    def value(idx, trial):
        trial /= np.linalg.norm(trial, axis=-1, keepdims=True)
        return trial, _objective(trial, a[idx], b[idx], t[idx])

    return _newton(n, f, model, value)


def _meridian_objective(theta, a_z, b_z, t_p, t_z):
    """An X-state's objective at theta on the meridian where T's in-plane entry is t_p.

    ln 2 times it is sum_+- x ln x(q/2) - x ln x((q + r)/4) - x ln x((q - r)/4) for
    q = 1 +- a_z cos th and r^2 = t_p^2 sin^2 th + (b_z +- t_z cos th)^2.
    """
    c, s = np.cos(theta), np.sin(theta)
    q = np.stack([1.0 + a_z * c, 1.0 - a_z * c])
    z = np.stack([b_z + t_z * c, b_z - t_z * c])
    r = np.sqrt((t_p * s) ** 2 + z * z)
    h = xlogx(q / 2.0) - xlogx((q + r) / 4.0) - xlogx((q - r) / 4.0)
    return (h[0] + h[1]) / _LN2


def _x_minimizers(a, b, t):
    """Each X-state's least direction (k, 3) and objective (k,), found in theta alone.

    With a, b along z and T = diag(t_x, t_y, t_z), the objective depends on phi
    only through r_+-^2 = (b_z +- t_z cos th)^2 + t_x^2 n_x^2 + t_y^2 n_y^2,
    linear in cos^2 ph. Each subtracted pair x ln x((q +- r)/4) has derivative
    artanh(r/q) / (4 r) in r^2, increasing in r, so the objective is concave
    in cos^2 ph and least on the ph = 0 or pi/2 meridian (Lu et al., PRA 83,
    012327 (2011)). The first least point of both at the half grid's thetas
    is refined by ``_newton`` in theta, with the analytic slope and curvature;
    theta needs no bounds, since the objective is even about 0 and pi/2. All
    is elementwise, so a row's bits do not depend on the stack.
    """
    rows = np.arange(len(a))
    a_z, b_z, t_z = a[:, 2], b[:, 2], t[:, 2, 2]
    t_p = np.stack([t[:, 0, 0], t[:, 1, 1]])
    theta = _HALF_THETAS[None, :, None]
    g = _meridian_objective(theta, a_z, b_z, t_p[:, None], t_z).reshape(64, -1)
    best = np.argmin(g, axis=0)
    args = (a_z, b_z, t_p[best // 32, rows], t_z)
    sign = np.array([[1.0], [-1.0]])
    weight = np.array([1.0, -1.0, -1.0])[:, None, None] / _LN2

    def model(idx, theta):
        a_z, b_z, t_p, t_z = (x[idx] for x in args)
        c, s = np.cos(theta), np.sin(theta)
        q, dq, d2q = 1.0 + sign * (a_z * c), -sign * (a_z * s), -sign * (a_z * c)
        z, dz, d2z = b_z + sign * (t_z * c), -sign * (t_z * s), -sign * (t_z * c)
        r = np.sqrt((t_p * s) ** 2 + z * z)
        rs = np.where(r > 0.0, r, 1.0)
        dr = (t_p * t_p * s * c + z * dz) / rs
        d2r = (t_p * t_p * (c * c - s * s) + dz * dz + z * d2z - dr * dr) / rs
        # y = q/2, (q + r)/4, (q - r)/4, whose weighted (x ln x)' = ln x + 1 sum drops the 1
        pairs = ((q, r), (dq, dr), (d2q, d2r))
        y, dy, d2y = (np.stack([u + u, u + v, u - v]) / 4.0 for u, v in pairs)
        w, ys = np.where(y > 0.0, weight, 0.0), np.where(y > 0.0, y, 1.0)
        log = np.log(ys)
        slope = (w * log * dy).sum(axis=(0, 1))
        curvature = (w * (dy * dy / ys + log * d2y)).sum(axis=(0, 1))
        convex = curvature > 0.0
        step = -slope / np.where(convex, curvature, 1.0)
        return step, np.abs(slope), np.where(convex, -0.5 * slope * step, np.inf)

    def value(idx, theta):
        return theta, _meridian_objective(theta, *(x[idx] for x in args))

    theta, f = _newton(_HALF_THETAS[best % 32], g[best, rows], model, value)
    n = np.zeros((len(a), 3))
    n[rows, best // 32], n[:, 2] = np.sin(theta), np.cos(theta)
    return n, f


def optimized_discord_2q(
    states: BipartiteState | Sequence[BipartiteState],
) -> list[OptimizedDiscordResult]:
    """Ollivier-Zurek discord of each two-qubit state, measured on A.

    D_A = S(rho_A) - S(rho_AB) + min over unit vectors n of
    sum_k p_k S(rho_B|k), the conditional entropy after measuring A in the
    basis (I +- n.sigma)/2. With the Bloch form of Luo (PRA 77, 042303
    (2008)) it is a smooth function of n (see ``_conditional_entropy``).
    A row whose Bloch form is exactly an X-state's (``_x_shaped``) is
    minimized in theta alone, on the phi = 0 and pi/2 meridians
    (``_x_minimizers``). Every other row is evaluated, _GRID_CHUNK states at
    a time, on the theta <= pi/2 half of a 64x32 (theta, phi) direction grid
    (``_grid_minimizers``); its best grid point is scored by ``_objective``
    and refined by projected Newton with the analytic gradient and Hessian
    (``_newton_refine``). Both refiners stop a state once a convex Newton
    step can gain only round-off in the objective (``_newton``). The value
    is the least of the refined point and the marginal eigenbasis n_e =
    v^dag sigma v, so it never exceeds the grid value, nor the diagonal
    discord beyond rounding (the two evaluate the eigenbasis by different
    formulas).
    theta and phi are the polar angles of the winning n.

    ``states`` is a stack (N, 4, 4) of states, or a sequence of single
    states, which is stacked at entry; the result has one entry per state.
    """
    if not isinstance(states, BipartiteState):
        states = list(states)
        if any(s.dim_a != 2 or s.dim_b != 2 for s in states):
            raise DimensionMismatch("optimized_discord_2q requires d_A = d_B = 2")
        if not states:
            return []
        states = BipartiteState(np.stack([s.rho for s in states]), 2, 2)
    value, theta, phi = (x.tolist() for x in _optimized_2q(states))
    return [OptimizedDiscordResult(v, th, ph) for v, th, ph in zip(value, theta, phi)]


def _optimized_2q(states: BipartiteState):
    """``optimized_discord_2q`` of a stack as three arrays: value, theta and phi."""
    if states.dim_a != 2 or states.dim_b != 2 or states.rho.ndim != 3:
        raise DimensionMismatch(
            "optimized_discord_2q requires a stack (N, 4, 4) with d_A = d_B = 2"
        )
    a, b, t = _bloch_form(states.rho)
    n_newton, f_newton = np.empty_like(a), np.empty(len(a))
    x_rows = _x_shaped(a, b, t)
    if x_rows.any():
        n_newton[x_rows], f_newton[x_rows] = _x_minimizers(a[x_rows], b[x_rows], t[x_rows])
    if not x_rows.all():
        rest = (a[~x_rows], b[~x_rows], t[~x_rows])
        n_grid = _grid_minimizers(*rest)
        n_newton[~x_rows], f_newton[~x_rows] = _newton_refine(
            n_grid, _objective(n_grid, *rest), *rest
        )
    dec = states.marginal_eig
    v = dec.eigenvectors[:, :, 0]
    n_eig = np.einsum("ka,iab,kb->ki", v.conj(), _PAULI[1:], v).real
    f_eig = _objective(n_eig, a, b, t)
    best_n = np.where((f_eig < f_newton)[:, None], n_eig, n_newton)
    best_f = np.minimum(f_eig, f_newton)
    theta = np.arccos(np.clip(best_n[:, 2], -1.0, 1.0))
    phi = np.arctan2(best_n[:, 1], best_n[:, 0]) % (2.0 * math.pi)
    base = spectrum_entropy(dec.eigenvalues) - states.entropy
    return np.maximum(base + best_f, 0.0), theta, phi


# --- continuity bounds --------------------------------------------------------

def _check_bound_domain(d_a: int, d_b: int, gap: float, eps: float) -> None:
    """Raise OutOfDomain unless d_A, d_B >= 1, d_A d_B >= 2, gap > 0 and eps >= 0.

    Each test is written so that a NaN fails it.
    """
    if not (d_a >= 1 and d_b >= 1 and d_a * d_b >= 2):
        raise OutOfDomain(f"need d_A, d_B >= 1 and d_A * d_B >= 2, got ({d_a}, {d_b})")
    if not gap > 0.0:
        raise OutOfDomain(f"gap must be positive, got {gap}")
    if not eps >= 0.0:
        raise OutOfDomain(f"eps must be nonnegative, got {eps}")


def continuity_bound(d_a: int, d_b: int, gap: float, eps: float) -> float:
    """Fannes-type bound on |change of diagonal discord| in bits.

    (sqrt(2 d_A^3 d_B^3)/gap + 1) eps log2(d_A d_B - 1)
      + H[(2 sqrt(2 d_A^3 d_B^3)/gap + 1) eps / 2] + H(eps / 2),
    valid while both binary-entropy arguments stay in [0, 1]. A NaN argument
    (eps = 0 at a gap so small that c / gap overflows) is outside it too.
    """
    _check_bound_domain(d_a, d_b, gap, eps)
    c = math.sqrt(2.0 * d_a**3 * d_b**3)
    arg1 = 0.5 * (2.0 * c / gap + 1.0) * eps
    arg2 = 0.5 * eps
    if not (arg1 <= 1.0 and arg2 <= 1.0):
        raise OutOfDomain(
            f"binary-entropy argument {max(arg1, arg2):.3e} is not in [0, 1]; "
            "eps too large for this gap"
        )
    h1 = binary_entropy(arg1)
    h2 = binary_entropy(arg2)
    return (c / gap + 1.0) * eps * math.log2(d_a * d_b - 1.0) + h1 + h2


def schatten_continuity_bound(d_a: int, d_b: int, gap: float, eps: float) -> float:
    """Linear continuity bound 2 (1 + sqrt(2 d_A^3 d_B^3)/gap) eps."""
    _check_bound_domain(d_a, d_b, gap, eps)
    return 2.0 * (1.0 + math.sqrt(2.0 * d_a**3 * d_b**3) / gap) * eps
