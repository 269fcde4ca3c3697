"""Reference numerics for checking diagdiscord's experiment outputs.

Written from the definitions with numpy and scipy only; nothing here is
imported from the package under test. Every function accepts a leading batch
axis, so one call checks a whole experiment table. Entropies are in bits.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)


def gell_mann(d: int) -> list[np.ndarray]:
    """Generalized Gell-Mann matrices of SU(d) in the standard order.

    For each new index m = 1..d-1: the symmetric and antisymmetric pairs
    (j, m) for j < m, then the diagonal generator on the first m + 1 levels,
    each normalised to tr(L_i L_j) = 2 delta_ij.
    """
    out = []
    for m in range(1, d):
        for j in range(m):
            s = np.zeros((d, d), dtype=complex)
            s[j, m] = s[m, j] = 1.0
            a = np.zeros((d, d), dtype=complex)
            a[j, m], a[m, j] = -1j, 1j
            out += [s, a]
        diag = np.zeros(d)
        diag[:m] = 1.0
        diag[m] = -m
        out.append(np.diag(diag * math.sqrt(2.0 / (m * (m + 1)))).astype(complex))
    return out


_L = gell_mann(4)


def x_state(r6, r8, r9, r15) -> np.ndarray:
    """Symmetric two-qubit X-state (I + sqrt6 sum_i r_i L_i) / 4, with r3 = sqrt3 r8."""
    r6, r8, r9, r15 = np.broadcast_arrays(*(np.asarray(r, dtype=float) for r in (r6, r8, r9, r15)))
    coeff = {3: math.sqrt(3.0) * r8, 6: r6, 8: r8, 9: r9, 15: r15}
    rho = np.broadcast_to(np.eye(4, dtype=complex), r6.shape + (4, 4)).copy()
    for i, r in coeff.items():
        rho += math.sqrt(6.0) * r[..., None, None] * _L[i - 1]
    return rho / 4.0


def entropy(rho) -> np.ndarray:
    """von Neumann entropy -tr rho log2 rho, with 0 log 0 = 0."""
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    logs = np.log2(np.where(lam > 0.0, lam, 1.0))
    return -(lam * logs).sum(axis=-1)


def marginal_a(rho, d_a: int, d_b: int) -> np.ndarray:
    r = np.asarray(rho).reshape(rho.shape[:-2] + (d_a, d_b, d_a, d_b))
    return np.einsum("...abcb->...ac", r)


def dephase_a(rho, d_a: int, d_b: int, basis) -> np.ndarray:
    """sum_i (|v_i><v_i| x I) rho (|v_i><v_i| x I) for the columns v_i of basis."""
    r = np.asarray(rho).reshape(rho.shape[:-2] + (d_a, d_b, d_a, d_b))
    blocks = np.einsum("...ai,...abcd,...ci->...ibd", basis.conj(), r, basis)
    out = np.einsum("...ai,...ci,...ibd->...abcd", basis, basis.conj(), blocks)
    return out.reshape(rho.shape)


def marginal_basis(rho, d_a: int, d_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of rho_A."""
    return np.linalg.eigh(marginal_a(rho, d_a, d_b))


def diagonal_discord(rho, d_a: int, d_b: int, basis=None) -> np.ndarray:
    """S(pi_A(rho)) - S(rho), dephasing A in `basis` or in rho_A's eigenbasis."""
    if basis is None:
        basis = marginal_basis(rho, d_a, d_b)[1]
    return entropy(dephase_a(rho, d_a, d_b, basis)) - entropy(rho)


def conditional_entropy_grid(rho, thetas, phis) -> np.ndarray:
    """sum_k p_k S(rho_B|k) for the projective qubit measurement on A along (theta, phi).

    rho is one 4x4 two-qubit state; the result has shape (len(thetas), len(phis)).
    Outcome k = 0 projects on cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.
    """
    th, ph = np.meshgrid(thetas, phis, indexing="ij")
    up = np.stack([np.cos(th / 2.0), np.exp(1j * ph) * np.sin(th / 2.0)], axis=-1)
    down = np.stack([-np.exp(-1j * ph) * np.sin(th / 2.0), np.cos(th / 2.0)], axis=-1)
    blocks = rho.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)  # [a, c] -> <a|rho|c>_B
    total = np.zeros(th.shape)
    for v in (up, down):
        weights = v.conj()[..., :, None] * v[..., None, :]
        sigma = np.tensordot(weights, blocks, axes=2)
        a, d = sigma[..., 0, 0].real, sigma[..., 1, 1].real
        p = a + d
        half_split = 0.5 * np.hypot(a - d, 2.0 * np.abs(sigma[..., 0, 1]))
        for lam in (0.5 * p + half_split, np.clip(0.5 * p - half_split, 0.0, None)):
            total -= lam * np.log2(np.where(lam > 0.0, lam, 1.0))
        total += p * np.log2(np.where(p > 0.0, p, 1.0))
    return total


def optimized_discord_grid(rho, n_theta: int = 181, n_phi: int = 360) -> tuple[float, float]:
    """Two-qubit projective discord on A from a (theta, phi) grid.

    Returns (value, slack): value is S(rho_A) - S(rho) plus the smallest
    conditional entropy on the grid, so the true minimum lies at or below it;
    slack is the largest rise from the grid minimum to its eight neighbours,
    the amount by which the grid can miss a smooth minimum lying in a cell
    next to it.
    """
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    grid = conditional_entropy_grid(rho, thetas, phis)
    i, j = np.unravel_index(int(np.argmin(grid)), grid.shape)
    low = grid[i, j]
    rise = 0.0
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            ii = min(max(i + di, 0), n_theta - 1)
            rise = max(rise, grid[ii, (j + dj) % n_phi] - low)
    base = entropy(marginal_a(rho, 2, 2)) - entropy(rho)
    return float(base + low), float(rise)


def ginibre_states(rng: np.random.Generator, n: int, d: int, rank: int) -> np.ndarray:
    """n density matrices G G^dag / tr(G G^dag), G a d x rank complex Ginibre matrix."""
    g = rng.standard_normal((n, d, rank)) + 1j * rng.standard_normal((n, d, rank))
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def rotation(axis, angle: float) -> np.ndarray:
    """exp(-i angle (n . sigma) / 2) for the unit vector along `axis`."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    return expm(-0.5j * angle * sum(c * p for c, p in zip(n, PAULI)))


def lift_a(kraus, rho, d_a: int, d_b: int) -> np.ndarray:
    """(E x id)(rho) for the channel E with Kraus operators `kraus` acting on A."""
    r = np.asarray(rho).reshape(rho.shape[:-2] + (d_a, d_b, d_a, d_b))
    out = sum(np.einsum("ae,...ebfd,cf->...abcd", k, r, k.conj()) for k in kraus)
    return out.reshape(rho.shape)


def mixed_unitary(probs, unitaries) -> list[np.ndarray]:
    return [math.sqrt(p) * u for p, u in zip(probs, unitaries)]


#: Kraus operators of the paper's Fig. 2 qubit channels
FIG2 = {
    "fig2a": mixed_unitary((1 / 3, 2 / 3), (np.eye(2), HADAMARD)),
    "fig2b": mixed_unitary(
        (1 / 3, 2 / 3), (np.eye(2), rotation((1, 1, 1), math.pi / 2))
    ),
    "fig2c": mixed_unitary(
        (1 / 6, 1 / 3, 1 / 2),
        (np.eye(2), rotation((1, 0, 0), math.pi / 10), rotation((0, 0, 1), math.pi / 5)),
    ),
}


def binary_entropy(x: float) -> float:
    if x in (0.0, 1.0):
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))
