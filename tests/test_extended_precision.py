"""The A-side dephasing kernel against 40-digit projector sums.

The float64 state and basis are taken as exact inputs. mpmath then
evaluates, at 40 significant digits, the conditional blocks <v_i| rho |v_i>,
their rebuild sum_i |v_i><v_i| (x) block_i, and the blocks' spectra. Every
entry of a density matrix, of its blocks and of their spectra has modulus
at most 1, so each float path is held to an absolute bound per entry, in
units of eps = 2^-52.
"""

import mpmath
import numpy as np
import pytest

from diagdiscord import discord as dd
from diagdiscord import states as st
from diagdiscord.linalg import DEGENERACY_TOL, block_spectrum
from helpers import haar, marginal_filtered_state, random_density

mp = mpmath.mp
EPS = np.finfo(float).eps

#: largest error per entry, in eps, of each float path against its 40-digit
#: value: about twice the largest seen. Over two seeds of 60 rows of each kind
#: at each shape, the largest were 1.27 (blocks), 0.64 (rebuild), 1.14
#: (dephase), 2.17 (spectrum of the given blocks) and 2.59 (spectrum from
#: rho). The earlier forms, einsum blocks and dephasing by one matmul with
#: D = C C^dag, reached 1.58, 0.54, 1.46, 3.48 and 3.24 on the same rows.
BOUNDS = {"blocks": 3.0, "rebuild": 2.0, "dephase": 3.0, "spectrum": 7.0, "spectrum_from_rho": 7.0}

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
    worst = dict.fromkeys(BOUNDS, 0.0)
    with mp.workdps(40):
        for i, (rho, basis) in enumerate(zip(state.rho, bases)):
            exact = _exact_blocks(rho, d_a, d_b, basis)
            given = [_mp(block) for block in blocks[i]]
            errors = {
                "blocks": _error(blocks[i], exact),
                "rebuild": _error(rebuilt[i], _exact_rebuild(basis, given)),
                "dephase": _error(dephased[i], _exact_rebuild(basis, exact)),
                "spectrum": _error(spectra[i], _exact_spectrum(given)),
                "spectrum_from_rho": _error(spectra[i], _exact_spectrum(exact)),
            }
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
