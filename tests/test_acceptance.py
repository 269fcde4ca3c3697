"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. The X-state comparison (criterion 2) dominates the runtime.
"""

import math

import numpy as np
import pytest

from diagdiscord import channels as ch
from diagdiscord import cli
from diagdiscord import discord as dd
from diagdiscord import experiments as ex
from diagdiscord import states as st
from diagdiscord.errors import DegenerateMarginal
from diagdiscord.linalg import hermitian_eig, relative_entropy, von_neumann_entropy
from helpers import haar, random_density, random_state

SEED = 20260809


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_fig2_monotonicity():
    worst = -math.inf
    total_violations = 0
    for name in ("fig2a", "fig2b", "fig2c"):
        rec = ex.run_monotonicity(name, samples=1000, seed=SEED)
        total_violations += int(rec.summary["violations"])
        worst = max(worst, rec.summary["max_increase"])
    _report(
        "1 fig2 monotonicity (3 channels x 1000 states)",
        total_violations == 0,
        f"violations={total_violations} max_increase={worst:.3e}",
    )


def test_criterion_2_xstate_match_fraction():
    rec = ex.run_xstate_comparison(samples=10_000, seed=SEED, equality_tol=1e-6)
    frac = rec.summary["match_fraction"]
    violations = int(rec.summary["upper_bound_violations"])
    ok = violations == 0 and 0.29 <= frac <= 0.35
    _report(
        "2 xstate optimized-vs-diagonal (10^4 samples)",
        ok,
        f"match_fraction={frac:.4f} (target [0.29, 0.35]) violations={violations}",
    )


def test_criterion_3_lemma1_condition():
    value = ch.qubit_mu_commuting_condition(ch.probabilistic_hadamard(), np.eye(2))
    expected = (math.sqrt(5) - 1) / (3 * (1 + ((math.sqrt(5) - 1) / 2) ** 2))
    hadamard_ok = abs(value - expected) <= 1e-10

    rng = np.random.default_rng(SEED)
    worst_iso = 0.0
    for antiunitary in (False, True):
        for _ in range(5):
            gamma = float(rng.uniform(2 / 3 if antiunitary else 0.0, 0.95))
            iso = ch.random_isotropic(rng, 2, antiunitary=antiunitary, gamma=gamma)
            mu = ch.isotropic_as_mixed_unitary(iso)
            for _ in range(20):
                basis = haar(rng, 2)
                worst_iso = max(worst_iso, ch.qubit_mu_commuting_condition(mu, basis))
    iso_ok = worst_iso <= 1e-10
    _report(
        "3 Lemma-1 condition (Hadamard counterexample + 100 random bases)",
        hadamard_ok and iso_ok,
        f"|value-closed_form|={abs(value - expected):.2e} worst_iso={worst_iso:.2e}",
    )


def test_criterion_4_isotropic_commute_with_dephasing():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for d_a in (2, 3, 4):
        for antiunitary in (False, True):
            channel = ch.random_isotropic(rng, d_a, antiunitary=antiunitary)
            rep = ch.commutes_with_pi(channel, trials=200, rng=rng)
            worst = max(worst, rep.max_deviation)
    _report(
        "4 isotropic channels commute with dephasing (200 trials, d_A in 2..4)",
        worst <= 1e-9,
        f"max_deviation={worst:.3e}",
    )


def test_criterion_5_continuity_bounds():
    min_slack = math.inf
    min_s2 = math.inf
    for d_a, d_b in ((2, 2), (2, 3)):
        rec = ex.run_continuity_check(
            d_a, d_b, samples=200, eps_list=[1e-3, 1e-4], seed=SEED
        )
        min_slack = min(min_slack, rec.summary["min_slack"])
        min_s2 = min(min_s2, rec.summary["min_schatten_slack"])
    _report(
        "5 continuity bounds hold (200 states x {(2,2),(2,3)} x eps {1e-3,1e-4})",
        min_slack >= 0.0 and min_s2 >= 0.0,
        f"min_slack={min_slack:.3e} min_schatten_slack={min_s2:.3e}",
    )


def test_criterion_6_identity_suite():
    rng = np.random.default_rng(SEED + 2)

    worst_eq8 = 0.0
    worst_idem = 0.0
    worst_marg = 0.0
    n = 0
    while n < 1000:
        d_b = 2 if n % 2 == 0 else 3
        s = random_state(rng, 2, d_b)
        dec = hermitian_eig(st.partial_trace_b(s))
        if dec.degenerate:
            continue
        res = dd.pi_a(s)
        direct = von_neumann_entropy(res.dephased.rho) - von_neumann_entropy(s.rho)
        worst_eq8 = max(
            worst_eq8, abs(direct - relative_entropy(s.rho, res.dephased.rho))
        )
        twice = dd.pi_a(res.dephased)
        worst_idem = max(
            worst_idem, float(np.max(np.abs(twice.dephased.rho - res.dephased.rho)))
        )
        worst_marg = max(
            worst_marg,
            float(np.max(np.abs(st.partial_trace_b(res.dephased) - st.partial_trace_b(s)))),
            float(np.max(np.abs(st.partial_trace_a(res.dephased) - st.partial_trace_a(s)))),
        )
        n += 1
    eq8_ok = worst_eq8 <= 1e-9
    idem_ok = worst_idem <= 1e-10
    marg_ok = worst_marg <= 1e-10

    worst_cq = 0.0
    for _ in range(200):
        probs = rng.dirichlet(np.ones(2))
        if abs(probs[0] - probs[1]) < 1e-3:
            continue
        s = st.classical_quantum_state(
            probs, haar(rng, 2), [random_density(rng, 2) for _ in range(2)]
        )
        try:
            worst_cq = max(worst_cq, dd.diagonal_discord(s))
        except DegenerateMarginal:
            continue
    faith_ok = worst_cq <= 1e-9

    worst_order = -math.inf
    m = 0
    while m < 300:
        s = st.sample_x_state(rng) if m % 2 == 0 else random_state(rng, 2, 2)
        try:
            diag = dd.diagonal_discord(s)
        except DegenerateMarginal:
            continue
        worst_order = max(worst_order, dd.optimized_discord_2q([s])[0].value - diag)
        m += 1
    order_ok = worst_order <= 1e-9

    worst_cov = 0.0
    k = 0
    while k < 200:
        s = random_state(rng, 2, 2)
        try:
            base = dd.diagonal_discord(s)
            u = np.kron(haar(rng, 2), haar(rng, 2))
            rotated = st.BipartiteState(u @ s.rho @ u.conj().T, 2, 2)
            worst_cov = max(worst_cov, abs(dd.diagonal_discord(rotated) - base))
        except DegenerateMarginal:
            continue
        k += 1
    cov_ok = worst_cov <= 1e-9

    _report(
        "6 identity suite (Eq-8 / idempotence / marginals / faithfulness / "
        "ordering / covariance)",
        eq8_ok and idem_ok and marg_ok and faith_ok and order_ok and cov_ok,
        f"eq8={worst_eq8:.2e} idem={worst_idem:.2e} marg={worst_marg:.2e} "
        f"cq={worst_cq:.2e} order={worst_order:.2e} cov={worst_cov:.2e}",
    )


def test_criterion_7_appendix_a_geometry():
    worst_orth = 0.0
    for i, a in enumerate(st.SU4_GENERATORS):
        for j, b in enumerate(st.SU4_GENERATORS):
            want = 2.0 if i == j else 0.0
            worst_orth = max(worst_orth, abs(np.trace(a @ b).real - want))
    orth_ok = worst_orth <= 1e-14

    rng = np.random.default_rng(SEED + 3)
    worst_rt = 0.0
    for _ in range(200):
        p = st.sample_x_params(rng)
        r = st.bloch_vector(st.x_state_from_params(p).rho)
        worst_rt = max(
            worst_rt,
            abs(r[5] - p.r6),
            abs(r[7] - p.r8),
            abs(r[8] - p.r9),
            abs(r[14] - p.r15),
            abs(r[2] - math.sqrt(3) * p.r8),
        )
    rt_ok = worst_rt <= 1e-12

    # sampler acceptance rate vs an independent 10^6-sample volume oracle
    # (oracle uses stacked eigvalsh on explicitly built matrices; the sampler
    # uses closed-form 2x2 block conditions)
    accepted = 3000
    attempts = 0
    for _ in range(accepted):
        _, k = st.sample_x_params(rng, return_attempts=True)
        attempts += k
    p_sampler = accepted / attempts

    rng_oracle = np.random.default_rng(SEED + 4)
    n_oracle = 1_000_000
    n_acc_oracle = 0
    s2, s6 = math.sqrt(2), math.sqrt(6)
    for _ in range(10):
        r = rng_oracle.uniform(-1, 1, size=(n_oracle // 10, 4))
        inside = r[:, 0] ** 2 + 4 * r[:, 1] ** 2 + r[:, 2] ** 2 + r[:, 3] ** 2 <= 1
        r = r[inside]
        m = np.zeros((len(r), 4, 4))
        m[:, 0, 0] = (1 + 4 * s2 * r[:, 1] + r[:, 3]) / 4
        m[:, 1, 1] = m[:, 2, 2] = (1 - 2 * s2 * r[:, 1] + r[:, 3]) / 4
        m[:, 3, 3] = (1 - 3 * r[:, 3]) / 4
        m[:, 0, 3] = m[:, 3, 0] = s6 * r[:, 2] / 4
        m[:, 1, 2] = m[:, 2, 1] = s6 * r[:, 0] / 4
        n_acc_oracle += int((np.linalg.eigvalsh(m)[:, 0] >= 0).sum())
    p_oracle = n_acc_oracle / n_oracle

    pooled = (accepted + n_acc_oracle) / (attempts + n_oracle)
    sigma = math.sqrt(pooled * (1 - pooled) * (1 / attempts + 1 / n_oracle))
    rate_ok = abs(p_sampler - p_oracle) <= 4 * sigma

    _report(
        "7 Appendix-A geometry (orthogonality / Bloch round-trip / "
        "sampler acceptance rate)",
        orth_ok and rt_ok and rate_ok,
        f"orth={worst_orth:.2e} roundtrip={worst_rt:.2e} "
        f"rate sampler={p_sampler:.5f} oracle={p_oracle:.5f} 4sigma={4 * sigma:.5f}",
    )


def test_criterion_8_deterministic_csv(tmp_path):
    runs = {
        "monotonicity": ["experiment", "monotonicity", "--channel", "fig2c",
                         "--samples", "50", "--seed", "11"],
        "xstate": ["experiment", "xstate", "--samples", "25", "--seed", "11"],
        "continuity": ["experiment", "continuity", "--dims", "2", "2",
                       "--samples", "10", "--eps", "1e-3", "--seed", "11"],
        "classify": ["experiment", "classify-sweep", "--d-a", "2",
                     "--per-class", "1", "--trials", "8", "--seed", "11"],
    }
    all_ok = True
    for label, args in runs.items():
        d1 = tmp_path / f"{label}_1"
        d2 = tmp_path / f"{label}_2"
        assert cli.main(args + ["--output-dir", str(d1)]) == 0
        assert cli.main(args + ["--output-dir", str(d2)]) == 0
        for f1 in sorted(d1.glob("*.csv")):
            f2 = d2 / f1.name
            if f1.read_bytes() != f2.read_bytes():
                all_ok = False
    _report("8 byte-identical CSV reruns (all four experiments)", all_ok, "")
