"""Closed-form tests of the benchmark's oracle.  Run: python3 -m pytest perfbench"""

import math

import numpy as np
import pytest

import oracle


def _h(x):
    return oracle.binary_entropy(x)


def _schmidt(lam):
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = math.sqrt(lam), math.sqrt(1.0 - lam)
    return np.outer(psi, psi.conj())


def _random_density(rng, d):
    return oracle.ginibre_states(rng, 1, d, d)[0]


def test_gell_mann_is_an_orthogonal_traceless_hermitian_basis():
    gens = oracle.gell_mann(4)
    assert len(gens) == 15
    gram = np.array([[np.trace(a @ b) for b in gens] for a in gens])
    assert np.allclose(gram, 2.0 * np.eye(15), atol=1e-14)
    for g in gens:
        assert np.allclose(g, g.conj().T) and abs(np.trace(g)) < 1e-14


def test_x_state_entries_and_bloch_readback():
    r6, r8, r9, r15 = 0.1, -0.05, 0.2, 0.15
    rho = oracle.x_state(r6, r8, r9, r15)
    s2, s6 = math.sqrt(2.0), math.sqrt(6.0)
    expected = np.zeros((4, 4))
    expected[0, 0] = (1 + 4 * s2 * r8 + r15) / 4
    expected[1, 1] = expected[2, 2] = (1 - 2 * s2 * r8 + r15) / 4
    expected[3, 3] = (1 - 3 * r15) / 4
    expected[1, 2] = expected[2, 1] = s6 * r6 / 4
    expected[0, 3] = expected[3, 0] = s6 * r9 / 4
    assert np.allclose(rho, expected, atol=1e-15)
    gens = oracle.gell_mann(4)
    readback = {i: s6 / 3 * np.trace(rho @ gens[i - 1]).real for i in (3, 6, 8, 9, 15)}
    assert readback[3] == pytest.approx(math.sqrt(3.0) * r8)
    for i, r in ((6, r6), (8, r8), (9, r9), (15, r15)):
        assert readback[i] == pytest.approx(r)
    assert np.allclose(oracle.x_state(0, 0, 0, 0), np.eye(4) / 4)


def test_x_state_broadcasts_over_rows():
    r = np.linspace(-0.2, 0.2, 5)
    batch = oracle.x_state(r, r / 4, -r, r / 2)
    assert batch.shape == (5, 4, 4)
    assert np.allclose(batch[1], oracle.x_state(r[1], r[1] / 4, -r[1], r[1] / 2))


@pytest.mark.parametrize("lam", [0.5, 0.2, 0.9, 1e-3])
def test_schmidt_state_discords_equal_binary_entropy(lam):
    rho = _schmidt(lam)
    assert oracle.diagonal_discord(rho, 2, 2) == pytest.approx(_h(lam), abs=1e-12)
    value, slack = oracle.optimized_discord_grid(rho)
    assert value - slack <= _h(lam) + 1e-12 and value == pytest.approx(_h(lam), abs=1e-12)


def test_product_and_classical_quantum_states_have_no_discord():
    rng = np.random.default_rng(3)
    product = np.kron(_random_density(rng, 2), _random_density(rng, 2))
    probs = (0.3, 0.7)
    sigmas = [_random_density(rng, 2) for _ in probs]
    cq = sum(p * np.kron(np.diag([1.0 - i, float(i)]), s) for i, (p, s) in enumerate(zip(probs, sigmas)))
    for rho in (product, cq):
        assert abs(oracle.diagonal_discord(rho, 2, 2)) < 1e-12
        value, slack = oracle.optimized_discord_grid(rho)
        assert value - slack <= 1e-12 and value >= -1e-12


def test_dephasing_is_idempotent_and_keeps_both_marginals():
    rng = np.random.default_rng(5)
    rho = _random_density(rng, 6)
    basis = oracle.marginal_basis(rho, 2, 3)[1]
    once = oracle.dephase_a(rho, 2, 3, basis)
    assert np.allclose(oracle.dephase_a(once, 2, 3, basis), once, atol=1e-14)
    assert np.allclose(oracle.marginal_a(once, 2, 3), oracle.marginal_a(rho, 2, 3), atol=1e-14)
    traced_a = lambda m: np.einsum("abad->bd", m.reshape(2, 3, 2, 3))  # noqa: E731
    assert np.allclose(traced_a(once), traced_a(rho), atol=1e-14)


def test_entropy_of_known_spectra():
    assert oracle.entropy(np.eye(4) / 4) == pytest.approx(2.0)
    assert oracle.entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0)


def test_ginibre_states_are_density_matrices_of_the_requested_rank():
    rho = oracle.ginibre_states(np.random.default_rng(7), 50, 4, 2)
    assert np.allclose(np.trace(rho, axis1=1, axis2=2), 1.0)
    assert np.allclose(rho, rho.conj().swapaxes(1, 2))
    lam = np.linalg.eigvalsh(rho)
    assert (lam > -1e-14).all() and (lam[:, :2] < 1e-12).all() and (lam[:, 2:] > 1e-6).all()


def test_lift_matches_the_kronecker_form_and_preserves_trace():
    rng = np.random.default_rng(11)
    rho = _random_density(rng, 6)
    for kraus in oracle.FIG2.values():
        assert np.allclose(sum(k.conj().T @ k for k in kraus), np.eye(2), atol=1e-14)
    kraus = oracle.mixed_unitary((0.25, 0.75), (np.eye(2), oracle.rotation((0, 1, 0), 1.0)))
    direct = sum(np.kron(k, np.eye(3)) @ rho @ np.kron(k, np.eye(3)).conj().T for k in kraus)
    lifted = oracle.lift_a(kraus, rho, 2, 3)
    assert np.allclose(lifted, direct, atol=1e-14)
    assert np.trace(lifted).real == pytest.approx(1.0)


def test_complete_dephasing_lift_removes_bell_coherence():
    bell = _schmidt(0.5)
    dephasing = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    out = oracle.lift_a(dephasing, bell, 2, 2)
    assert np.allclose(out, np.diag([0.5, 0.0, 0.0, 0.5]))


def test_rotation_closed_forms():
    assert np.allclose(oracle.rotation((0, 0, 1), math.pi), -1j * oracle.PAULI[2])
    u = oracle.rotation((1, 1, 1), math.pi / 2)
    assert np.allclose(u @ u.conj().T, np.eye(2))
