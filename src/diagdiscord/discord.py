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

from .errors import DegenerateMarginal, DimensionMismatch, OutOfDomain
from .linalg import (
    _LN2,
    SpectralDecomposition,
    binary_entropy,
    block_spectrum,
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
    blocks_a,
    from_pairs_a,
    pairs_a,
    ptrace_a,
    ptrace_b,
    superop_a,
)

@dataclass(frozen=True)
class PiResult:
    """Outcome of dephasing subsystem A in an eigenbasis of rho_A.

    ``value`` is the diagonal discord S(dephased) - S(rho), floored at zero.
    For a stack of states ``value`` and ``degenerate`` hold one entry per row.
    """

    dephased: BipartiteState
    basis_used: np.ndarray
    degenerate: bool
    value: float


def entropy_gain(state, dephased):
    """S(dephased) - S(state) in bits, floored at zero, from the kept spectra."""
    return np.maximum(dephased.entropy - state.entropy, 0.0)


def _dephasing_factor(basis: np.ndarray) -> np.ndarray:
    """C[..., (a, a'), k] = v_k[a] conj(v_k[a']) for the basis columns v_k, one per basis of a stack."""
    d = basis.shape[-2]
    cols = basis[..., :, None, :] * basis.conj()[..., None, :, :]
    return cols.reshape(cols.shape[:-3] + (d * d, cols.shape[-1]))


def dephasing_superop(basis: np.ndarray) -> np.ndarray:
    """D = sum_k P_k (x) conj(P_k), P_k = v_k v_k^dag, for the basis columns v_k.

    It is C C^dag for the factor C of ``_dephasing_factor``, one D per basis of a stack.
    """
    c = _dephasing_factor(basis)
    return c @ c.conj().swapaxes(-1, -2)


def dephase_blocks_a(rho: np.ndarray, d_a: int, d_b: int, basis: np.ndarray):
    """The dephased matrix and its conditional blocks, for the basis columns v_i.

    The matrix is sum_i (|v_i><v_i| (x) I) rho (|v_i><v_i| (x) I) and the
    blocks (..., k, d_b, d_b) are <v_i| rho |v_i>. With rho regrouped by
    ``pairs_a`` the blocks are C^dag pairs and the matrix is C blocks, so D =
    C C^dag acts in two matmuls through k inner columns. A stack of bases
    gives one per row of rho, or many for one matrix.
    """
    if basis.shape[-2] != d_a or rho.shape[-2:] != (d_a * d_b, d_a * d_b):
        raise DimensionMismatch(
            f"basis {basis.shape[-2:]} and matrix {rho.shape[-2:]} do not "
            f"fit (d_A, d_B) = ({d_a}, {d_b})"
        )
    c = _dephasing_factor(basis)
    blocks = c.conj().swapaxes(-1, -2) @ pairs_a(rho, d_a, d_b)
    return from_pairs_a(c @ blocks, d_a, d_b), blocks.reshape(blocks.shape[:-1] + (d_b, d_b))


def dephase_a(rho: np.ndarray, d_a: int, d_b: int, basis: np.ndarray) -> np.ndarray:
    """sum_i (|v_i><v_i| (x) I) rho (|v_i><v_i| (x) I) for basis columns v_i.

    One matmul by D = ``dephasing_superop(basis)``, not the two of
    ``dephase_blocks_a``: with those, the nongenerating scan's deviations of
    the classification sweep moved by up to 9.3e-14. A stack of bases gives
    one per row of rho, or many for one matrix.
    """
    return superop_a(dephasing_superop(basis), rho, d_a, d_b)


def _angle_grid(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """(theta, phi) of an n_theta x n_phi grid on [0, pi] x [0, 2 pi), theta-major."""
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    return np.repeat(thetas, n_phi), np.tile(phis, n_theta)


def _rotate_blocks(basis: np.ndarray, blocks: tuple[tuple[int, int], ...], angles) -> np.ndarray:
    """Rotate each degenerate 2-dim block by its angle pair (theta, phi): one
    basis (..., d, d) for each row of ``angles`` (..., 2 len(blocks))."""
    out = np.broadcast_to(basis, angles.shape[:-1] + basis.shape).copy()
    for k, (start, _stop) in enumerate(blocks):
        theta, phi = angles[..., 2 * k, None], angles[..., 2 * k + 1, None]
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        e = np.cos(phi) + 1j * np.sin(phi)
        vi, vj = basis[:, start], basis[:, start + 1]
        out[..., :, start] = c * vi + e * s * vj
        out[..., :, start + 1] = -np.conj(e) * s * vi + c * vj
    return out


_BLOCK_GRID = np.stack(_angle_grid(48, 24), axis=-1)


def _check_optimizable(dec: SpectralDecomposition) -> None:
    """Raise DegenerateMarginal if a degenerate block has dimension >= 3."""
    for start, stop in dec.degenerate_blocks:
        if stop - start > 2:
            raise DegenerateMarginal(
                f"degenerate block of dimension {stop - start} >= 3 is not "
                "supported by the eigenbasis optimization",
                blocks=dec.degenerate_blocks,
            )


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first call: scipy is most of the import cost."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def _optimize_degenerate_basis(dec: SpectralDecomposition, objective) -> np.ndarray:
    """Minimize ``objective(bases)`` over eigenbases of the degenerate 2-dim blocks.

    Each block in turn is scanned on the (theta, phi) grid as one stack of
    bases, the earlier blocks at their best (first least) grid point; then
    all block angles are refined jointly with Nelder-Mead.
    """
    blocks = dec.degenerate_blocks
    grid = np.zeros((len(_BLOCK_GRID), 2 * len(blocks)))
    for k in range(len(blocks)):
        grid[:, 2 * k : 2 * k + 2] = _BLOCK_GRID
        values = objective(_rotate_blocks(dec.eigenvectors, blocks, grid))
        g = int(np.argmin(values))
        grid[:, 2 * k : 2 * k + 2] = _BLOCK_GRID[g]
        best = values[g]
    res = minimize(
        lambda x: objective(_rotate_blocks(dec.eigenvectors, blocks, x)),
        grid[0],
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 2000},
    )
    return _rotate_blocks(dec.eigenvectors, blocks, res.x if res.fun <= best else grid[0])


def _eigenbasis(state: BipartiteState, optimize_degenerate: bool, objective) -> np.ndarray:
    """Eigenbasis of rho_A (of each row of a stack) that the A-side dephasing uses.

    A nondegenerate marginal fixes it up to phases. A degenerate one raises
    DegenerateMarginal unless ``optimize_degenerate`` is set; then
    ``objective(rho, bases)``, one value per basis of a stack, is minimized
    over the degenerate blocks, one flagged row at a time. Every flagged row
    is checked before any is optimized, so a block of dimension >= 3 raises
    before work is spent.
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
    flagged = [tuple(idx) for idx in np.argwhere(dec.degenerate)]
    for idx in flagged:
        _check_optimizable(dec[idx])
    basis = dec.eigenvectors.copy()
    for idx in flagged:
        basis[idx] = _optimize_degenerate_basis(dec[idx], lambda b: objective(state.rho[idx], b))
    return basis


def pi_a(state: BipartiteState, optimize_degenerate: bool = False) -> PiResult:
    """Dephase A in an eigenbasis of rho_A.

    With a nondegenerate marginal the eigenbasis is unique up to phases and
    the result is deterministic. A degenerate marginal raises
    DegenerateMarginal unless ``optimize_degenerate`` is set, in which case
    the entropy of the dephased state is minimized over the eigenbases
    spanning each degenerate block. A stack of states is dephased as one
    stack; only its degenerate rows are optimized one by one. The dephased
    state's spectrum is that of its conditional blocks (``block_spectrum``),
    with no eigensolve of the whole matrix.
    """
    d_a, d_b = state.dim_a, state.dim_b
    basis = _eigenbasis(
        state,
        optimize_degenerate,
        lambda rho, b: spectrum_entropy(
            np.linalg.eigvalsh(blocks_a(rho, d_a, d_b, b)).reshape(*b.shape[:-2], -1)
        ),
    )
    dephased, blocks = dephase_blocks_a(state.rho, d_a, d_b, basis)
    dephased = BipartiteState(
        (dephased + dephased.conj().swapaxes(-1, -2)) / 2.0, d_a, d_b,
        _spectrum=block_spectrum(blocks),
    )
    return PiResult(
        dephased=dephased,
        basis_used=basis,
        degenerate=state.marginal_eig.degenerate,
        value=entropy_gain(state, dephased),
    )


def diagonal_discord(state: BipartiteState, optimize_degenerate: bool = False) -> float:
    """S(pi_A(rho)) - S(rho) in bits, minimized over degenerate eigenbases."""
    return pi_a(state, optimize_degenerate).value


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
    """
    res = pi_a(state, optimize_degenerate)
    marginals = _marginal_entropies(state)
    before = np.maximum(marginals - state.entropy, 0.0)
    after = np.maximum(marginals - res.dephased.entropy, 0.0)
    return np.maximum(before - after, 0.0)


def generalized_discord(
    state: BipartiteState, p: float = 2.0, optimize_degenerate: bool = False
) -> float:
    """Schatten p-distance ||rho - pi_A(rho)||_p, one per row of a stack.

    p >= 1 or inf: p = 1 is contractive, p = 2 (Frobenius) is not
    (Piani, PRA 86, 034101 (2012)). p is checked before the marginal, so a bad p raises InvalidP
    even on a degenerate state. In degenerate-optimizing mode the distance
    itself is minimized over the eigenbases of the degenerate blocks. The
    relative-entropy member, S(rho || pi_A(rho)), is the diagonal discord.
    """
    check_schatten_p(p)
    d_a, d_b = state.dim_a, state.dim_b

    def distance(rho: np.ndarray, basis: np.ndarray):
        return schatten_norm(rho - dephase_a(rho, d_a, d_b, basis), p)

    return distance(state.rho, _eigenbasis(state, optimize_degenerate, distance))


def pi_multi(state: MultipartiteState, parties) -> MultipartiteState:
    """Dephase every listed party in an eigenbasis of its marginal.

    Each party is permuted to the front and dephased by ``dephase_blocks_a``;
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
        front, blocks = dephase_blocks_a(front, d_k, rest, dec.eigenvectors)
        spectrum = block_spectrum(blocks)
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
_THETA, _PHI = (g.reshape(64, 32) for g in _angle_grid(64, 32))
#: sin and cos of the half grid's thetas as columns (32, 1) and of its phis as
#: rows (32,): direction (theta_i, phi_j) is row 32 i + j of _HALF_GRID
_SIN_T, _COS_T = np.sin(_THETA[:32, :1]), np.cos(_THETA[:32, :1])
_SIN_P, _COS_P = np.sin(_PHI[0]), np.cos(_PHI[0])
_SIN2_T, _SINCOS_T = _SIN_T**2, _SIN_T * _COS_T
#: states evaluated on the half grid at once; the nine (16, 32, 32) buffers stay in cache
_GRID_CHUNK = 16
# glibc raises its mmap threshold to the largest mmapped block freed so far.
# Freeing this 2 MiB one keeps arrays of 128 KiB (the default) to 2 MiB on the heap,
# mapped across calls, such as monotonicity's 600 x 4x4 complex stacks. Else they
# fault in again: 18 700 minor faults against 38 in 8 monotonicity rounds of 3 x 600
# (getrusage in-process). xstate does not depend on it, since the grid writes into
# buffers made once per call: 15 rounds of 300 states take about 65 minor faults
# with or without it.
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
    """Each state's least direction (k, 3) on the half direction grid.

    With |b +- T^T n|^2 = |b|^2 +- 2 n.(Tb) + n^T M n, M = T T^T, ln 2 times
    the objective is sum_+- [x ln x (p_+-) - x ln x (lam_+-,+) - x ln x
    (lam_+-,-)]. At n = (sin th cos ph, sin th sin ph, cos th) each form
    separates into phi profiles and theta columns: a.n = sin th A + cos th a_z
    with A = a_x cos ph + a_y sin ph, 2 n.(Tb) alike, and n^T M n = sin^2 th P
    + 2 sin th cos th Q + cos^2 th M_zz with P = M_xx cos^2 ph + 2 M_xy cos ph
    sin ph + M_yy sin^2 ph and Q = M_xz cos ph + M_yz sin ph. The stack is
    evaluated _GRID_CHUNK states at a time, each chunk written by ``out=``
    ufuncs into buffers made once per call. Every product and sum is
    elementwise, with no BLAS, so a row's bits depend neither on the stack
    nor on its chunk.
    """
    tb = t[:, :, 0] * b[:, None, 0] + t[:, :, 1] * b[:, None, 1] + t[:, :, 2] * b[:, None, 2]
    m = t[:, :, None, 0] * t[:, None, :, 0] + t[:, :, None, 1] * t[:, None, :, 1]
    m += t[:, :, None, 2] * t[:, None, :, 2]
    bb = b[:, 0] * b[:, 0] + b[:, 1] * b[:, 1] + b[:, 2] * b[:, 2]
    a, tb, m = a[:, None, None], 2.0 * tb[:, None, None], m[:, None, None]
    # (N, 1, 32) phi profiles against (32, 1) theta columns
    u_phi, s_phi = (x[..., 0] * _COS_P + x[..., 1] * _SIN_P for x in (a, tb))
    p_phi = m[..., 0, 0] * _COS_P**2 + m[..., 0, 1] * (2.0 * _COS_P * _SIN_P)
    p_phi += m[..., 1, 1] * _SIN_P**2
    q_phi = m[..., 0, 2] * (2.0 * _COS_P) + m[..., 1, 2] * (2.0 * _SIN_P)
    u_theta, s_theta = _COS_T * a[..., 2], _COS_T * tb[..., 2]
    r_theta = _COS_T**2 * m[..., 2, 2] + bb[:, None, None]
    best = np.empty(len(a), dtype=np.intp)
    bufs = np.empty((9, min(len(a), _GRID_CHUNK), 32, 32))
    for start in range(0, len(a), _GRID_CHUNK):
        chunk = slice(start, start + _GRID_CHUNK)
        u, s, rr, q, r, x, h, term, g = bufs[:, : min(_GRID_CHUNK, len(a) - start)]
        np.add(np.multiply(_SIN_T, u_phi[chunk], out=u), u_theta[chunk], out=u)
        np.add(np.multiply(_SIN_T, s_phi[chunk], out=s), s_theta[chunk], out=s)
        np.multiply(_SIN2_T, p_phi[chunk], out=rr)
        rr += np.multiply(_SINCOS_T, q_phi[chunk], out=x)
        rr += r_theta[chunk]
        g.fill(0.0)
        for plus_minus in (np.add, np.subtract):
            plus_minus(1.0, u, out=q)
            np.sqrt(np.maximum(plus_minus(rr, s, out=r), 0.0, out=r), out=r)
            xlogx(np.multiply(0.5, q, out=x), out=term)
            term -= xlogx(np.multiply(0.25, np.add(q, r, out=x), out=x), out=h)
            term -= xlogx(np.multiply(0.25, np.subtract(q, r, out=x), out=x), out=h)
            g += term
        best[chunk] = np.argmin(g.reshape(len(g), -1), axis=-1)
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


def _newton_refine(n, f, a, b, t):
    """Projected Newton on the unit sphere from n, for every state at once.

    Each step solves the 2x2 tangent Newton system (the gradient step where
    the tangent Hessian is not positive definite), retracts by normalizing,
    and halves the step until the objective strictly decreases. A state
    stops once its tangent gradient is below _NEWTON_GTOL, no halving
    decreases it, or its step is the convex Newton step d and the model
    decrease -g.d/2 is at most _ROUNDOFF max(|f|, 1). That last stop is at
    round-off: further steps could only move f in its last bits, and a state
    there can take up to 40 halvings in each of 50 steps.
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
        # -g.d/2 is what the convex Newton step d gains on the quadratic model
        gain = -0.5 * np.einsum("kp,kp->k", g, newton)
        moving &= ~convex | (gain > _ROUNDOFF * np.maximum(np.abs(f[active]), 1.0))
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


def optimized_discord_2q(
    states: BipartiteState | Sequence[BipartiteState],
) -> list[OptimizedDiscordResult]:
    """Ollivier-Zurek discord of each two-qubit state, measured on A.

    D_A = S(rho_A) - S(rho_AB) + min over unit vectors n of
    sum_k p_k S(rho_B|k), the conditional entropy after measuring A in the
    basis (I +- n.sigma)/2. With the Bloch form of Luo (PRA 77, 042303
    (2008)) it is a smooth function of n (see ``_conditional_entropy``).
    The whole stack is evaluated, _GRID_CHUNK states at a time, on the
    theta <= pi/2 half of a 64x32 (theta, phi) direction grid by a closed
    form in the grid monomials (``_grid_minimizers``); each state's best
    grid point is scored by ``_objective`` and then all are refined at once
    by projected Newton with the analytic gradient and Hessian, which stops
    a state once a convex Newton step can gain only round-off in the
    objective (``_newton_refine``). The value is
    the least of the grid point, the Newton point and the marginal
    eigenbasis n_e = v^dag sigma v, so it never exceeds the grid value, nor
    the diagonal discord beyond rounding (the two evaluate the eigenbasis by
    different formulas). theta and phi are the polar angles of the winning n.

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
    if states.dim_a != 2 or states.dim_b != 2 or states.rho.ndim != 3:
        raise DimensionMismatch(
            "optimized_discord_2q requires a stack (N, 4, 4) with d_A = d_B = 2"
        )
    a, b, t = _bloch_form(states.rho)
    n_grid = _grid_minimizers(a, b, t)
    f_grid = _objective(n_grid, a, b, t)
    n_newton, f_newton = _newton_refine(n_grid, f_grid, a, b, t)
    dec = states.marginal_eig
    v = dec.eigenvectors[:, :, 0]
    n_eig = np.einsum("ka,iab,kb->ki", v.conj(), _PAULI[1:], v).real
    f_eig = _objective(n_eig, a, b, t)
    best_n = np.where((f_eig < f_newton)[:, None], n_eig, n_newton)
    best_f = np.minimum(f_eig, f_newton)
    theta = np.arccos(np.clip(best_n[:, 2], -1.0, 1.0))
    phi = np.arctan2(best_n[:, 1], best_n[:, 0]) % (2.0 * math.pi)
    base = spectrum_entropy(dec.eigenvalues) - states.entropy
    return [
        OptimizedDiscordResult(value=max(s + f, 0.0), theta=float(th), phi=float(ph))
        for s, f, th, ph in zip(base.tolist(), best_f.tolist(), theta, phi)
    ]


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
