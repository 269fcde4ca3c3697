"""Shared builders for the test suite."""

import numpy as np

from diagdiscord.states import BipartiteState


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


def random_density(rng, d, rank=None):
    rank = d if rank is None else rank
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


def random_state(rng, d_a, d_b, rank=None):
    return BipartiteState(random_density(rng, d_a * d_b, rank), d_a, d_b)


def bell_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[0, 3] = rho[3, 0] = rho[3, 3] = 0.5
    return BipartiteState(rho, 2, 2)


def haar(rng, d):
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def _h(x):
    return -x * np.log2(x) if x > 1e-300 else 0.0


def _conditional_entropy_at(rho, theta, phi):
    """sum_k p_k S(rho_B|k) after measuring A along (theta, phi), by 2x2 blocks."""
    t = rho.reshape(2, 2, 2, 2)
    b00, b01, b10, b11 = t[0, :, 0, :], t[0, :, 1, :], t[1, :, 0, :], t[1, :, 1, :]
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    w01 = c * s * np.exp(1j * phi)
    m0 = c * c * b00 + w01 * b01 + np.conj(w01) * b10 + s * s * b11
    total = 0.0
    for m in (m0, b00 + b11 - m0):
        tr = (m[0, 0] + m[1, 1]).real
        det = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
        root = np.sqrt(max(tr * tr - 4.0 * det, 0.0))
        total += _h(max((tr + root) / 2.0, 0.0)) + _h(max((tr - root) / 2.0, 0.0))
        total -= _h(max(tr, 0.0))
    return total


def reference_optimized_discord_2q(state):
    """Two-qubit Ollivier-Zurek discord on A by a (theta, phi) grid and Nelder-Mead.

    Independent of the package's optimizer: a 64x32 angle grid, scipy's
    Nelder-Mead from the best grid point, and the marginal eigenbasis.
    """
    from scipy.optimize import minimize

    from diagdiscord.linalg import spectrum_entropy

    rho = state.rho
    thetas = np.linspace(0.0, np.pi, 64)
    phis = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    grid = [(_conditional_entropy_at(rho, th, ph), th, ph) for th in thetas for ph in phis]
    best, th0, ph0 = min(grid, key=lambda c: c[0])
    res = minimize(
        lambda x: _conditional_entropy_at(rho, x[0], x[1]),
        np.array([th0, ph0]),
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 400},
    )
    v = state.marginal_eig.eigenvectors[:, 0]
    theta_e = 2.0 * np.arctan2(abs(v[1]), abs(v[0]))
    phi_e = float(np.angle(v[1]) - np.angle(v[0]))
    best = min(best, float(res.fun), _conditional_entropy_at(rho, theta_e, phi_e))
    return max(spectrum_entropy(state.marginal_eig.eigenvalues) - state.entropy + best, 0.0)


def reference_sample_x_params(rng):
    """(params, attempts): one uniform candidate per draw, tested by scalar arithmetic.

    Written out independently of the package's block sampler, with the same
    candidate test and the same order of operations.
    """
    from diagdiscord.states import X_PARAMS_BUDGET, XStateParams

    s2, s6 = np.sqrt(2.0), np.sqrt(6.0)
    for attempts in range(1, X_PARAMS_BUDGET + 1):
        r6, r8, r9, r15 = rng.uniform(-1.0, 1.0, size=4)
        if r6 * r6 + 4.0 * r8 * r8 + r9 * r9 + r15 * r15 > 1.0:
            continue
        a = (1.0 + 4.0 * s2 * r8 + r15) / 4.0
        b = (1.0 - 2.0 * s2 * r8 + r15) / 4.0
        d = (1.0 - 3.0 * r15) / 4.0
        w = s6 * r9 / 4.0
        z = s6 * r6 / 4.0
        if b >= abs(z) and a >= 0.0 and d >= 0.0 and a * d >= w * w:
            return XStateParams(r6, r8, r9, r15), attempts
    raise AssertionError("no valid X-state within the budget")


def reference_monotonicity(channel, samples, seed, rank=4):
    """(rows, resampled, degenerate outputs) of the monotonicity scan, one sample at a time."""
    from diagdiscord import discord as dd
    from diagdiscord import experiments as ex
    from diagdiscord.states import sample_nondegenerate

    rows, resampled, degenerate = [], 0, 0
    for i in range(samples):
        state, rejected = sample_nondegenerate(ex.sample_rng(seed, i), 2, 2, rank)
        after = dd.pi_a(channel.apply_local_a(state), optimize_degenerate=True)
        rows.append((dd.diagonal_discord(state), after.value))
        resampled += rejected
        degenerate += bool(after.degenerate)
    return np.array(rows), resampled, degenerate
