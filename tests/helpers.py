"""Shared builders for the test suite."""

import math

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


def reference_hermitian_eig(m):
    """LAPACK's eigh of one Hermitian matrix, each column then rescaled in a loop
    so that its largest-magnitude entry is real and positive."""
    vals, vecs = np.linalg.eigh(m)
    for k in range(vecs.shape[-1]):
        col = vecs[:, k]
        pivot = col[int(np.argmax(np.abs(col)))]
        if abs(pivot) > 0.0:
            vecs[:, k] = col * (pivot.conjugate() / abs(pivot))
    return vals, vecs


# The A-side maps as the package wrote them before its superoperator kernel:
# one pair of reshaped matmuls per Kraus operator. The superoperator lifts
# must match them to round-off.

def conjugate_a(op, rho, d_a, d_b):
    """(op (x) I) rho (op (x) I)^dag for an operator on A, by two reshaped matmuls."""
    d = d_a * d_b
    batch = rho.shape[:-2]
    left = (op @ rho.reshape(batch + (d_a, d_b * d))).reshape(batch + (d, d_a, d_b))
    return (op.conj()[..., None, :, :] @ left).reshape(batch + (d, d))


def kraus_lift(ops, rho, d_a, d_b):
    """sum_k (K_k (x) I) rho (K_k (x) I)^dag."""
    return sum(conjugate_a(k, rho, d_a, d_b) for k in ops)


def reference_dephase_a(rho, d_a, d_b, basis):
    """sum_k (P_k (x) I) rho (P_k (x) I) for P_k = v_k v_k^dag on one basis's columns."""
    return kraus_lift([np.outer(v, v.conj()) for v in basis.T], rho, d_a, d_b)


def reference_lift_a(channel, rho, d_a, d_b):
    """channel.lift_a by Kraus sums, the isotropic closed form and the projector sum."""
    from diagdiscord import channels as ch

    if isinstance(channel, ch.SemiclassicalChannel):
        inner = reference_lift_a(channel.inner, rho, d_a, d_b)
        return reference_dephase_a(inner, d_a, d_b, channel.basis)
    if not isinstance(channel, ch.IsotropicChannel):
        return kraus_lift(channel.kraus_ops(), rho, d_a, d_b)
    # (1 - gamma) (W (x) I) core (W (x) I)^dag + gamma I/d_a (x) rho_B, the core
    # being rho or (B B^T (x) I) rho^{T_A} (B B^T (x) I)^dag
    split = rho.reshape(rho.shape[:-2] + (d_a, d_b, d_a, d_b))
    core = rho
    if channel.antiunitary:
        v = channel.transpose_basis
        core = conjugate_a(v @ v.T, split.swapaxes(-4, -2).reshape(rho.shape), d_a, d_b)
    out = (1.0 - channel.gamma) * conjugate_a(channel.w_unitary, core, d_a, d_b)
    rho_b = np.einsum("...aiaj->...ij", split)
    mixed = np.einsum("ac,...bd->...abcd", np.eye(d_a) / d_a, rho_b)
    return out + channel.gamma * mixed.reshape(out.shape)


def reference_qubit_mu_commuting_condition(channel, basis):
    """channels.qubit_mu_commuting_condition by the sums over the channel's (p_mu, U_mu).

    The package's formula before it applied the channel's superoperator:
    max_l |sum_mu p_mu <eta_l|U_mu|psi><psi_bar|U_mu^dag|eta_l>|, and the
    operator norm of sum_mu p_mu U_mu|psi><psi_bar|U_mu^dag when the output
    E(|psi><psi|) is maximally mixed.
    """
    from diagdiscord.errors import DegenerateOutput
    from diagdiscord.linalg import hermitian_eig

    psi, psi_bar = basis[:, 0], basis[:, 1]
    out = channel.apply(np.outer(psi, psi.conj()))
    dec = hermitian_eig(out)
    if dec.degenerate:
        if np.max(np.abs(out - np.eye(2) / 2.0)) <= 1e-10:
            a = sum(
                p * (u @ np.outer(psi, psi_bar.conj()) @ u.conj().T)
                for p, u in zip(channel.probs, channel.unitaries)
            )
            return float(np.linalg.norm(a, 2))
        raise DegenerateOutput("E(|psi><psi|) is degenerate")
    worst = 0.0
    for l in range(2):
        eta = dec.eigenvectors[:, l]
        total = 0.0j
        for p, u in zip(channel.probs, channel.unitaries):
            total += p * (eta.conj() @ u @ psi) * (psi_bar.conj() @ u.conj().T @ eta)
        worst = max(worst, abs(total))
    return worst


def degenerate_marginal_state(rng, d_a, d_b, rank=None):
    """Random state, locally filtered on A so rho_A has degenerate pairs.

    rho_A gets the spectrum (1, 1, 2, 2, ...) / sum in a Haar-random basis,
    with one nondegenerate eigenvalue left over when d_A is odd; at d_A = 2
    that is rho_A = I/2. The unfiltered rho_A must be invertible.
    """
    rho = random_density(rng, d_a * d_b, rank)
    vals, vecs = np.linalg.eigh(np.trace(rho.reshape(d_a, d_b, d_a, d_b), axis1=1, axis2=3))
    w = np.arange(d_a) // 2 + 1.0
    inv_sqrt = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
    f = np.kron(haar(rng, d_a) @ np.diag(np.sqrt(w / w.sum())) @ inv_sqrt, np.eye(d_b))
    rho = f @ rho @ f.conj().T
    return BipartiteState((rho + rho.conj().T) / 2.0 / np.trace(rho).real, d_a, d_b)


def reference_optimize_degenerate_basis(dec, objective):
    """discord._optimize_degenerate_basis with its former scalar grid loop.

    Every grid point is one objective call on one basis, rotated by scalar
    arithmetic; the package scans each block's grid as one stacked call and
    must return the same basis bit for bit.
    """
    from scipy.optimize import minimize

    def _rotate_blocks(basis, blocks, angles):
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

    blocks = dec.degenerate_blocks
    thetas = np.linspace(0.0, math.pi, 48)
    phis = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
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


def reference_grid_values(a, b, t):
    """The former grid of ``optimized_discord_2q``, one state at a time.

    Every state's conditional entropy at each of the 2048 directions of the
    full 64x32 (theta, phi) grid, one (2048, 3) @ (3, 3) product per state,
    as (values (k, 2048), grid (2048, 3)).
    """
    from diagdiscord.discord import _conditional_entropy, _grid_directions

    grid = _grid_directions(64, 32)
    values = np.stack(
        [_conditional_entropy(grid @ a[k], grid @ t[k], b[k]) for k in range(len(a))]
    )
    return values, grid


def reference_newton_refine(n, f, a, b, t):
    """Projected Newton on the unit sphere from n, for every state at once.

    Each step solves the 2x2 tangent Newton system (the gradient step where
    the tangent Hessian is not positive definite), retracts by normalizing,
    and halves the step until the objective strictly decreases. A state
    stops once its tangent gradient is below _NEWTON_GTOL or no halving
    decreases it.

    A verbatim copy of the refiner before it stopped at round-off: it keeps
    stepping while any halving lowers the objective by a last bit.
    """
    from diagdiscord.discord import (
        _BACKTRACK_HALVINGS,
        _NEWTON_GTOL,
        _NEWTON_MAX_STEPS,
        _gradient_hessian,
        _objective,
        _tangent_basis,
    )

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


def reference_x_candidate_ok(r6, r8, r9, r15) -> bool:
    """Whether one candidate (r6, r8, r9, r15) is a valid X-state, by scalar arithmetic.

    Inside the generalized Bloch ball, then PSD via the two 2x2 blocks, with
    the package's order of operations.
    """
    s2, s6 = np.sqrt(2.0), np.sqrt(6.0)
    if r6 * r6 + 4.0 * r8 * r8 + r9 * r9 + r15 * r15 > 1.0:
        return False
    a = (1.0 + 4.0 * s2 * r8 + r15) / 4.0
    b = (1.0 - 2.0 * s2 * r8 + r15) / 4.0
    d = (1.0 - 3.0 * r15) / 4.0
    w = s6 * r9 / 4.0
    z = s6 * r6 / 4.0
    return bool(b >= abs(z) and a >= 0.0 and d >= 0.0 and a * d >= w * w)


def reference_sample_x_params(rng):
    """(params, attempts): one uniform candidate per draw, tested by scalar arithmetic.

    Written out independently of the package's block sampler, with the same
    candidate test and the same order of operations.
    """
    from diagdiscord.states import X_PARAMS_BUDGET, XStateParams

    for attempts in range(1, X_PARAMS_BUDGET + 1):
        r6, r8, r9, r15 = rng.uniform(-1.0, 1.0, size=4)
        if reference_x_candidate_ok(r6, r8, r9, r15):
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


def reference_xstate_comparison(samples, seed):
    """experiments.run_xstate_comparison, one X-state per call.

    The package builds, validates and dephases the samples as one stack;
    this is the per-sample loop it must match bit for bit.
    """
    from diagdiscord import experiments as ex
    from diagdiscord.discord import diagonal_discord, optimized_discord_2q
    from diagdiscord.errors import InvariantViolation, OutOfDomain
    from diagdiscord.states import sample_x_params, x_state_from_params

    def draw(i: int):
        rng = ex.sample_rng(seed, i)
        for excluded in range(ex.XSTATE_DEGENERATE_BUDGET):
            params = sample_x_params(rng)
            state = x_state_from_params(params)
            if not state.marginal_eig.degenerate:
                return params, state, diagonal_discord(state), excluded
        raise OutOfDomain(
            f"0 of {ex.XSTATE_DEGENERATE_BUDGET} X-states drawn for sample {i} have "
            "a nondegenerate A-marginal; 1 of 10^6 X-states has a degenerate one"
        )

    draws = [draw(i) for i in range(samples)]
    optimized = optimized_discord_2q([state for _, state, _, _ in draws])
    rows = []
    for (params, _, dd, _), opt in zip(draws, optimized):
        if opt.value > dd + ex.UPPER_BOUND_TOL:
            raise InvariantViolation(
                f"optimized discord {opt.value} exceeds diagonal discord {dd}"
            )
        rows.append((params.r6, params.r8, params.r9, params.r15, opt.value, dd))
    rows = np.array(rows, dtype=float)
    return rows, float(sum(d[3] for d in draws))


# The three channel scans written as loops over trials, one state per call.
# The package runs each scan as one stack; these are the references it must
# match bit for bit, generator state included.

def reference_commutes_with_pi(channel, trials, rng, d_b=2):
    """channels.commutes_with_pi, one trial at a time."""
    from diagdiscord.channels import (
        COMMUTE_TOL,
        ChannelReport,
        _dephase_in_marginal_basis,
        apply_local_a_raw,
    )
    from diagdiscord.discord import dephase_a
    from diagdiscord.linalg import trace_norm
    from diagdiscord.states import sample_nondegenerate

    d_a = channel.dim
    max_dev = 0.0
    witness = None
    for _ in range(trials):
        state, _ = sample_nondegenerate(rng, d_a, d_b)
        out = apply_local_a_raw(channel, state.rho, d_a, d_b)
        lhs = _dephase_in_marginal_basis(out, d_a, d_b)
        cq = dephase_a(state.rho, d_a, d_b, state.marginal_eig.eigenvectors)
        rhs = apply_local_a_raw(channel, cq, d_a, d_b)
        dev = trace_norm(lhs - rhs)
        if dev > max_dev:
            max_dev = dev
            witness = state
    return ChannelReport(
        max_deviation=max_dev,
        witness=witness if max_dev > COMMUTE_TOL else None,
        trials=trials,
    )


def reference_is_discord_nongenerating(channel, trials, rng, d_b=2):
    """channels.is_discord_nongenerating, one trial at a time."""
    from diagdiscord.channels import (
        COMMUTE_TOL,
        ChannelReport,
        _dephase_in_marginal_basis,
        apply_local_a_raw,
    )
    from diagdiscord.discord import dephase_a
    from diagdiscord.linalg import trace_norm
    from diagdiscord.states import sample_nondegenerate

    d_a = channel.dim
    max_dev = 0.0
    witness = None
    for _ in range(trials):
        state, _ = sample_nondegenerate(rng, d_a, d_b)
        cq = dephase_a(state.rho, d_a, d_b, state.marginal_eig.eigenvectors)
        out = apply_local_a_raw(channel, cq, d_a, d_b)
        dev = trace_norm(_dephase_in_marginal_basis(out, d_a, d_b) - out)
        if dev > max_dev:
            max_dev = dev
            witness = BipartiteState((cq + cq.conj().T) / 2.0, d_a, d_b)
    return ChannelReport(
        max_deviation=max_dev,
        witness=witness if max_dev > COMMUTE_TOL else None,
        trials=trials,
    )


def reference_mono_max_increase(channel, trials, rng, d_b=2):
    """experiments._mono_max_increase, one state at a time.

    ``pi_a`` is read from ``experiments`` at call time, so a patched one
    acts on the reference and the package alike.
    """
    import math

    from diagdiscord import experiments as ex
    from diagdiscord.errors import DegenerateMarginal, OutOfDomain
    from diagdiscord.states import sample_random_bipartite

    pi_a = ex.pi_a
    worst = -math.inf
    done = 0
    attempts = trials + ex.MONO_DEGENERATE_BUDGET
    for _ in range(attempts):
        state = sample_random_bipartite(rng, channel.dim, d_b, channel.dim * d_b)
        try:
            before = pi_a(state, optimize_degenerate=True).value
            after = pi_a(channel.apply_local_a(state), optimize_degenerate=True).value
        except DegenerateMarginal:
            continue
        worst = max(worst, after - before)
        done += 1
        if done == trials:
            return worst
    raise OutOfDomain(
        f"only {done} of {attempts} sampled ({channel.dim},{d_b}) states kept a "
        f"marginal eigenbasis pi_a can optimize through the {type(channel).__name__} "
        f"(acceptance {done / attempts:.3g}); need trials = {trials}"
    )


#: channels the scan references are checked on: the four random classes of
#: the classification sweep, then two fixed qubit channels
SCAN_CHANNELS = ("mu", "iso_u", "iso_a", "sc", "hadamard", "damping")


def scan_channel(kind, d_a, rng):
    """One channel of kind ``kind`` (see SCAN_CHANNELS) on a d_a-dimensional A."""
    from diagdiscord import channels as ch

    return {
        "mu": lambda: ch.random_mixed_unitary(rng, d_a),
        "iso_u": lambda: ch.random_isotropic(rng, d_a),
        "iso_a": lambda: ch.random_isotropic(rng, d_a, antiunitary=True),
        "sc": lambda: ch.random_semiclassical(rng, d_a),
        "hadamard": ch.probabilistic_hadamard,
        "damping": lambda: ch.amplitude_damping(0.5),
    }[kind]()


def scan_cases(kinds=SCAN_CHANNELS):
    """(d_a, d_b, kind) for d_a in 2..4 and d_b in 1..3; the fixed channels only at d_a = 2."""
    return [
        (d_a, d_b, kind)
        for d_a in (2, 3, 4)
        for d_b in (1, 2, 3)
        for kind in kinds
        if d_a == 2 or kind not in ("hadamard", "damping")
    ]
