"""The A-side dephasing kernel and the two-qubit conditional entropy at 40 digits.

The float64 state and basis are taken as exact inputs. mpmath then
evaluates, at 40 significant digits, the conditional blocks <v_i| rho |v_i>,
their rebuild sum_i |v_i><v_i| (x) block_i, the blocks' spectra, and the
Schatten distances ||rho - rebuild||_p at p = 1, 2 and inf from the spectrum
of the difference. Every entry of a density matrix, of its blocks and of
their spectra has modulus at most 1, and each distance is at most 2, so
each float path is held to an absolute bound per entry, in units of
eps = 2^-52. The conditional entropy after measuring A, at most 1
bit, is held to an absolute bound in eps as well.
"""

import math

import mpmath
import numpy as np
import pytest

from diagdiscord import discord as dd
from diagdiscord import experiments as ex
from diagdiscord import states as st
from diagdiscord.linalg import DEGENERACY_TOL, block_spectrum, schatten_norm
from helpers import bell_state, haar, marginal_filtered_state, random_density

mp = mpmath.mp
EPS = np.finfo(float).eps

#: largest error per entry, in eps, of each float path against its 40-digit
#: value: about twice the largest seen. Over two seeds of 60 rows of each kind
#: at each shape, the largest were 1.27 (blocks), 0.64 (rebuild), 1.14
#: (dephase), 2.17 (spectrum of the given blocks) and 2.59 (spectrum from
#: rho). The earlier forms, einsum blocks and dephasing by one matmul with
#: D = C C^dag, reached 1.58, 0.54, 1.46, 3.48 and 3.24 on the same rows.
#: The distance ||rho - pi_A(rho)||_p from |eigvalsh| of the float difference
#: reached 3.79 (p = 1), 2.11 (p = 2) and 2.32 (p = inf) on seeds 2017 and
#: 2018, most on rank-deficient rows; each norm is at most 2.
BOUNDS = {
    "blocks": 3.0, "rebuild": 2.0, "dephase": 3.0, "spectrum": 7.0, "spectrum_from_rho": 7.0,
    "norm 1": 8.0, "norm 2": 5.0, "norm inf": 5.0,
}

KINDS = ["full rank", "rank deficient", "marginal gap near tolerance", "classical-quantum"]
SHAPES = [(d_a, d_b) for d_a in (2, 3, 4) for d_b in (1, 2, 3)]


def seeded_stack(kind: str, d_a: int, d_b: int, n: int, seed: int) -> st.BipartiteState:
    """n seeded states of one kind, stacked; an X-state stack is 2 x 2."""
    key = [*KINDS, "X-state"].index(kind)
    rng = np.random.default_rng([seed, key, d_a, d_b])
    d = d_a * d_b
    if kind == "full rank":
        return st.sample_random_bipartite(rng, d_a, d_b, size=n)
    if kind == "rank deficient":  # pure rows, then rank d - 1
        rhos = [random_density(rng, d, 1 if i % 2 == 0 else max(d - 1, 1)) for i in range(n)]
    elif kind == "marginal gap near tolerance":
        # rho_A's two least eigenvalues 1.5 DEGENERACY_TOL apart, the rest well apart
        w = np.arange(1.0, d_a + 1.0)
        w[1] = w[0]
        w /= w.sum()
        w[:2] += np.array([-0.75, 0.75]) * DEGENERACY_TOL
        rhos = [marginal_filtered_state(rng, d_a, d_b, w).rho for _ in range(n)]
    elif kind == "classical-quantum":
        rhos = [
            st.classical_quantum_state(
                rng.dirichlet(np.ones(d_a)), haar(rng, d_a),
                [random_density(rng, d_b) for _ in range(d_a)],
            ).rho
            for _ in range(n)
        ]
    else:
        rngs = [np.random.default_rng([seed, key, i]) for i in range(n)]
        return st.x_state_from_params(st.sample_x_params(rngs))
    return st.BipartiteState(np.stack(rhos), d_a, d_b)


def _mp(m: np.ndarray) -> list:
    """A float matrix as nested lists of mpmath complex numbers, exactly."""
    return [[mp.mpc(float(x.real), float(x.imag)) for x in row] for row in m]


def _exact_blocks(rho: np.ndarray, d_a: int, d_b: int, basis: np.ndarray) -> list:
    """<v_i| rho |v_i> for the basis columns v_i, one d_b x d_b nested list each."""
    r, v = _mp(rho), _mp(basis)
    return [
        [
            [
                mp.fsum(
                    mp.conj(v[a][i]) * r[a * d_b + b][c * d_b + e] * v[c][i]
                    for a in range(d_a)
                    for c in range(d_a)
                )
                for e in range(d_b)
            ]
            for b in range(d_b)
        ]
        for i in range(basis.shape[1])
    ]


def _exact_rebuild(basis: np.ndarray, blocks: list) -> list:
    """sum_i |v_i><v_i| (x) blocks[i] as a nested list, indices (a, b), (c, e)."""
    v = _mp(basis)
    d_a, d_b = basis.shape[0], len(blocks[0])
    return [
        [
            mp.fsum(
                v[a][i] * mp.conj(v[c][i]) * blocks[i][b][e] for i in range(len(blocks))
            )
            for c in range(d_a)
            for e in range(d_b)
        ]
        for a in range(d_a)
        for b in range(d_b)
    ]


def _exact_spectrum(blocks: list) -> list:
    """Ascending union of the spectra of the blocks' Hermitian parts."""
    vals = []
    for block in blocks:
        n = len(block)
        herm = mp.matrix(n, n)
        for j in range(n):
            for k in range(n):
                herm[j, k] = (block[j][k] + mp.conj(block[k][j])) / 2
        vals += [mp.re(x) for x in mp.eighe(herm, eigvals_only=True)]
    return sorted(vals)


def _exact_norms(rho: np.ndarray, dephased: list) -> dict[str, object]:
    """||rho - dephased||_p at p = 1, 2 and inf, from the 40-digit spectrum of the difference."""
    n = len(dephased)
    diff = mp.matrix(n, n)
    for j in range(n):
        for k in range(n):
            x = mp.mpc(float(rho[j, k].real), float(rho[j, k].imag)) - dephased[j][k]
            y = mp.mpc(float(rho[k, j].real), float(rho[k, j].imag)) - dephased[k][j]
            diff[j, k] = (x + mp.conj(y)) / 2
    sing = [abs(mp.re(x)) for x in mp.eighe(diff, eigvals_only=True)]
    return {
        "norm 1": mp.fsum(sing),
        "norm 2": mp.sqrt(mp.fsum(x * x for x in sing)),
        "norm inf": max(sing),
    }


def _error(got: np.ndarray, exact: list) -> float:
    """Largest |got - exact| over the entries, in eps."""
    flat_got = np.asarray(got).ravel()
    flat_exact = np.asarray(exact, dtype=object).ravel()
    return max(
        float(abs(mp.mpc(float(g.real), float(g.imag)) - x))
        for g, x in zip(flat_got.astype(complex), flat_exact)
    ) / EPS


def kernel_errors(state: st.BipartiteState) -> dict[str, float]:
    """Largest error in eps of each float path over the rows of a stack.

    Each row is dephased in the eigenbasis of its marginal, as ``pi_a`` does.
    """
    d_a, d_b = state.dim_a, state.dim_b
    bases = state.marginal_eig.eigenvectors
    blocks = st.blocks_a(state.rho, d_a, d_b, bases)
    rebuilt = st.from_blocks_a(bases, blocks)
    dephased = dd.dephase_a(state.rho, d_a, d_b, bases)
    spectra = block_spectrum(blocks)
    norms = {f"norm {p}": schatten_norm(state.rho - dephased, float(p)) for p in (1, 2, "inf")}
    worst = dict.fromkeys(BOUNDS, 0.0)
    with mp.workdps(40):
        for i, (rho, basis) in enumerate(zip(state.rho, bases)):
            exact = _exact_blocks(rho, d_a, d_b, basis)
            exact_dephased = _exact_rebuild(basis, exact)
            given = [_mp(block) for block in blocks[i]]
            errors = {
                "blocks": _error(blocks[i], exact),
                "rebuild": _error(rebuilt[i], _exact_rebuild(basis, given)),
                "dephase": _error(dephased[i], exact_dephased),
                "spectrum": _error(spectra[i], _exact_spectrum(given)),
                "spectrum_from_rho": _error(spectra[i], _exact_spectrum(exact)),
            }
            exact_norms = _exact_norms(rho, exact_dephased)
            errors.update((key, _error(norms[key][i], [x])) for key, x in exact_norms.items())
            worst = {key: max(worst[key], value) for key, value in errors.items()}
    return worst


def _check(state: st.BipartiteState) -> None:
    errors = kernel_errors(state)
    for key, bound in BOUNDS.items():
        assert errors[key] <= bound, (key, errors[key])


@pytest.mark.parametrize("d_a, d_b", SHAPES)
@pytest.mark.parametrize("kind", KINDS)
def test_kernel_is_within_bounds_of_40_digit_projector_sums(kind, d_a, d_b):
    state = seeded_stack(kind, d_a, d_b, 3, 2017)
    if kind == "marginal gap near tolerance":
        gaps = state.marginal_eig.min_gap
        assert np.all((gaps >= DEGENERACY_TOL) & (gaps <= 2.0 * DEGENERACY_TOL))
    if kind == "classical-quantum":  # pi_A fixes them, so the rebuild is rho again
        rebuilt = dd.dephase_a(state.rho, d_a, d_b, state.marginal_eig.eigenvectors)
        assert np.max(np.abs(rebuilt - state.rho)) <= 1e-14
    _check(state)


def test_x_states_are_within_bounds_of_40_digit_projector_sums():
    _check(seeded_stack("X-state", 2, 2, 12, 2017))


def test_the_judge_sees_a_move_past_its_bound():
    state = seeded_stack("full rank", 3, 2, 1, 2017)
    bases = state.marginal_eig.eigenvectors
    blocks = st.blocks_a(state.rho, 3, 2, bases)[0]
    with mp.workdps(40):
        exact = _exact_blocks(state.rho[0], 3, 2, bases[0])
        assert _error(blocks, exact) <= BOUNDS["blocks"]
        blocks[1, 0, 1] += 2.0 * BOUNDS["blocks"] * EPS
        assert _error(blocks, exact) > BOUNDS["blocks"]


# --- the Bloch-form slice: conditional entropy after measuring A --------------


def conditional_entropy_oracle(rho: np.ndarray):
    """The 40-digit conditional entropy of a two-qubit state, as a function of n.

    The float state is an exact input. Measuring A along n leaves B in the
    unnormalized states (M_0 +- n.M)/2, M_i = tr_A[(sigma_i (x) I) rho], so
    the function returns sum_+- [x log2 x(p_+-) - sum_j x log2 x(lam_+-,j)]
    over their traces p and 2x2 eigenvalues lam, with 0 log 0 = 0. It takes n
    as floats or mpmath numbers and normalizes it at 40 digits.
    """
    with mp.workdps(40):
        r = _mp(rho)
        m = [
            [
                [mp.fsum(p[a][c] * r[2 * c + b][2 * a + e] for a in range(2) for c in range(2))
                 for e in range(2)]
                for b in range(2)
            ]
            for p in map(_mp, dd._PAULI)
        ]

    def xlog2x(x):
        return x * mp.log(x, 2) if x > 0 else mp.mpf(0)

    def at(n):
        with mp.workdps(40):
            v = [mp.mpf(x) for x in n]
            v = [x / mp.sqrt(mp.fsum(y * y for y in v)) for x in v]
            total = mp.mpf(0)
            for sign in (1, -1):
                blk = [
                    [(m[0][b][e] + sign * mp.fsum(v[i] * m[i + 1][b][e] for i in range(3))) / 2
                     for e in range(2)]
                    for b in range(2)
                ]
                tr = mp.re(blk[0][0] + blk[1][1])
                root = mp.sqrt(mp.re(blk[0][0] - blk[1][1]) ** 2 + 4 * abs(blk[0][1]) ** 2)
                total += xlog2x(tr) - xlog2x((tr + root) / 2) - xlog2x((tr - root) / 2)
            return total

    return at


def direction(theta: float, phi: float) -> list:
    """n(theta, phi) in floats, with exact zeros on the phi = 0 and pi/2 meridians."""
    if phi in (0.0, math.pi / 2):
        n = [0.0, 0.0, math.cos(theta)]
        n[0 if phi == 0.0 else 1] = math.sin(theta)
        return n
    return [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]


def pure_conditional_stack(n: int, seed: int) -> np.ndarray:
    """n two-qubit states whose conditional states of B are pure (q = r) at theta = 0.

    Rows cycle through sum_i p_i |i><i| (x) |psi_i><psi_i| with random pure
    psi_i, its X-shaped case p|00><00| + (1 - p)|11><11|, and the pure
    X-state sqrt(p)|00> + sqrt(1 - p)|11>, which has q = r at every n.
    """
    rng = np.random.default_rng([seed, 5])
    rhos = []
    for i in range(n):
        p = rng.uniform(0.05, 0.95)
        if i % 3 == 0:
            psi = [random_density(rng, 2, 1) for _ in range(2)]
            rhos.append(st.classical_quantum_state([p, 1 - p], np.eye(2), psi).rho)
            continue
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[3, 3] = p, 1 - p
        if i % 3 == 2:
            m[0, 3] = m[3, 0] = math.sqrt(p * (1 - p))
        rhos.append(m)
    return np.stack(rhos)


#: largest error, in eps, of the float conditional entropy against its
#: 40-digit value, by kind: about twice the largest seen. Over seeds 2017-2019,
#: 40 rows of each kind at a random direction, theta = 0 and theta = pi/2,
#: ``_objective`` reached 2.26 on X-states, 2.42 on full-rank states, 7.46 on
#: classical-quantum ones, 35.1 on rank-deficient ones (half of them pure) and
#: 20.6 on pure conditional ones, and ``_meridian_objective`` 1.89 on X-states
#: and 14.2 on pure conditional ones. Where a conditional eigenvalue of B is 0,
#: the float one is rounding, about 1e-17, and the slope of x log x there
#: amplifies it.
ENTROPY_BOUNDS = {
    "X-state": 5.0,
    "full rank": 5.0,
    "rank deficient": 70.0,
    "classical-quantum": 15.0,
    "pure conditional": 42.0,
}


def entropy_errors(kind: str, n: int, seed: int) -> dict[str, float]:
    """Largest error in eps of ``_objective`` and, on X-shaped rows, of
    ``_meridian_objective`` on both meridians, at a random direction and at
    theta = 0 and pi/2 of each row."""
    if kind == "pure conditional":
        rhos = pure_conditional_stack(n, seed)
    else:
        rhos = seeded_stack(kind, 2, 2, n, seed).rho
    a, b, t = dd._bloch_form(rhos)
    rng = np.random.default_rng([seed, 6])
    angles = [  # random, theta = 0 and theta = pi/2
        (rng.uniform(0.0, math.pi, n), rng.uniform(0.0, 2.0 * math.pi, n)),
        (np.zeros(n), np.zeros(n)),
        (np.full(n, math.pi / 2), np.zeros(n)),
    ]
    worst = {"objective": 0.0, "meridian": 0.0}
    rows = np.flatnonzero(dd._x_shaped(a, b, t))
    with mp.workdps(40):
        for thetas, phis in angles:
            dirs = np.array([direction(th, ph) for th, ph in zip(thetas, phis)])
            got = dd._objective(dirs, a, b, t)
            exact = [conditional_entropy_oracle(rho)(d) for rho, d in zip(rhos, dirs)]
            worst["objective"] = max(worst["objective"], _error(got, exact))
            for col, phi in ((0, 0.0), (1, math.pi / 2)) if len(rows) else ():
                got = dd._meridian_objective(
                    thetas[rows], a[rows, 2], b[rows, 2], t[rows, col, col], t[rows, 2, 2]
                )
                exact = [
                    conditional_entropy_oracle(rhos[k])(direction(thetas[k], phi)) for k in rows
                ]
                worst["meridian"] = max(worst["meridian"], _error(got, exact))
    return worst


@pytest.mark.parametrize("kind", ENTROPY_BOUNDS)
def test_conditional_entropy_is_within_bounds_of_40_digits(kind):
    errors = entropy_errors(kind, 40, 2017)
    assert max(errors.values()) <= ENTROPY_BOUNDS[kind], errors
    if kind in ("X-state", "pure conditional"):
        assert errors["meridian"] > 0.0  # the meridian form was evaluated


def test_the_oracle_matches_closed_forms():
    # a Bell state leaves B pure (0 bits) along every n; I/4 leaves it maximally mixed (1 bit)
    with mp.workdps(40):
        for n in ([0.0, 0.0, 1.0], [1.0, 2.0, -2.0]):
            assert abs(conditional_entropy_oracle(bell_state().rho)(n)) <= mp.mpf(10) ** -38
            assert abs(conditional_entropy_oracle(np.eye(4) / 4.0)(n) - 1) <= mp.mpf(10) ** -38


def _golden_minimum(f, lo, hi, steps: int = 100):
    """The least value of a unimodal f on [lo, hi], by golden-section search in mpmath."""
    ratio = (mp.sqrt(5) - 1) / 2
    c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = f(d)
    return min(fc, fd)


#: how far above the 40-digit meridian minimum an interior X-state optimum may
#: lie, in eps: the refiner stops once a step can gain at most _ROUNDOFF = 4
#: eps, and each float objective errs by up to 2.3 eps (ENTROPY_BOUNDS). The
#: 9 interior optima of the pool below lay at most 2.5 eps above it, and
#: their float values within 2.5 eps of it.
INTERIOR_BOUND = 8.0


def test_interior_x_optima_match_the_40_digit_meridian_minimum():
    # about 1 in 4000 uniform X-states has its least direction off both the
    # poles and the equator (Lu et al. 2011; Huang, PRA 88, 014302 (2013))
    rngs = [ex.sample_rngs(seed, range(15000)) for seed in (40, 41)]
    rhos = np.concatenate([st.x_state_matrix(st.sample_x_params(r)) for r in rngs])
    n, f = dd._x_minimizers(*dd._bloch_form(rhos))
    theta = np.arccos(np.abs(n[:, 2]))
    inside = np.flatnonzero((theta > 1e-3) & (theta < math.pi / 2 - 1e-3))
    assert len(inside) >= 5
    grid = [mp.pi / 2 * i / 64 for i in range(65)]
    with mp.workdps(40):
        for k in inside:
            objective = conditional_entropy_oracle(rhos[k])
            least = []
            for col in (0, 1):  # the phi = 0 and phi = pi/2 meridians
                def along(th, col=col):
                    return objective([mp.sin(th) * (1 - col), mp.sin(th) * col, mp.cos(th)])
                scan = [along(th) for th in grid]
                i = min(range(len(grid)), key=scan.__getitem__)
                least.append(_golden_minimum(along, grid[max(i - 1, 0)], grid[min(i + 1, 64)]))
            exact = min(least)
            above = (objective(n[k]) - exact) / EPS
            off = abs(f[k] - exact) / EPS
            assert -1e-20 <= above <= INTERIOR_BOUND, (k, float(above))
            assert off <= INTERIOR_BOUND, (k, float(off))
