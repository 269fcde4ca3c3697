import math

import numpy as np
import pytest

from diagdiscord import linalg as la
from diagdiscord.errors import (
    InvalidP,
    InvariantViolation,
    NotDensityMatrix,
    NotHermitian,
    OutOfRange,
    SupportViolation,
)
from helpers import random_density, random_hermitian, reference_hermitian_eig

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
EPS = np.finfo(float).eps


class TestHermitianEig:
    def test_identity_is_fully_degenerate(self):
        dec = la.hermitian_eig(np.eye(2, dtype=complex))
        assert dec.eigenvalues == pytest.approx([1.0, 1.0])
        assert dec.min_gap == 0.0
        assert dec.degenerate_blocks == ((0, 2),)

    def test_diagonal_matrix(self):
        dec = la.hermitian_eig(np.diag([0.2, 0.8]).astype(complex))
        assert dec.eigenvalues == pytest.approx([0.2, 0.8])
        assert abs(dec.eigenvectors[0, 0]) == pytest.approx(1.0)
        assert abs(dec.eigenvectors[1, 1]) == pytest.approx(1.0)
        assert dec.min_gap == pytest.approx(0.6)
        assert dec.degenerate_blocks == ()

    def test_pauli_x(self):
        dec = la.hermitian_eig(PAULI_X)
        assert dec.eigenvalues == pytest.approx([-1.0, 1.0])
        minus = np.array([1.0, -1.0]) / math.sqrt(2)
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        assert abs(minus.conj() @ dec.eigenvectors[:, 0]) == pytest.approx(1.0)
        assert abs(plus.conj() @ dec.eigenvectors[:, 1]) == pytest.approx(1.0)

    def test_phase_convention_largest_entry_real_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = random_hermitian(rng, 4)
            dec = la.hermitian_eig(m)
            for k in range(4):
                col = dec.eigenvectors[:, k]
                pivot = col[int(np.argmax(np.abs(col)))]
                assert pivot.imag == pytest.approx(0.0, abs=1e-12)
                assert pivot.real > 0

    def test_phase_convention_equals_the_column_loop(self):
        # the vectorized phase convention, on one matrix and on a stack,
        # rescales each column exactly as a loop over the columns does; 2x2
        # matrices take the closed form, not LAPACK, so their columns match
        # LAPACK's phase-fixed ones to round-off
        rng = np.random.default_rng(12)
        for d in range(1, 9):
            stack = np.stack([random_hermitian(rng, d) for _ in range(5)])
            dec = la.hermitian_eig(stack)
            for m, vecs in zip(stack, dec.eigenvectors):
                expected = np.linalg.eigh(m)[1]
                for k in range(d):
                    col = expected[:, k]
                    pivot = col[int(np.argmax(np.abs(col)))]
                    if abs(pivot) > 0.0:
                        expected[:, k] = col * (pivot.conjugate() / abs(pivot))
                if d == 2:
                    assert np.array_equal(la.hermitian_eig(m).eigenvectors, vecs)
                    assert np.abs(vecs - expected).max() <= 4 * EPS
                    continue
                assert np.array_equal(vecs, expected)
                assert np.array_equal(la.hermitian_eig(m).eigenvectors, expected)

    def test_stack_names_the_bad_row(self):
        stack = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)])
        with pytest.raises(NotHermitian, match="matrix row 1 not Hermitian"):
            la.hermitian_eig(stack)
        dec = la.hermitian_eig(np.stack([np.eye(2), np.diag([0.2, 0.8])]))
        assert list(dec.degenerate) == [True, False]
        assert list(dec.degenerate_blocks) == [((0, 2),), ()]
        assert dec[1].min_gap == pytest.approx(0.6)

    def test_not_hermitian_raises(self):
        with pytest.raises(NotHermitian):
            la.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_nan_raises(self):
        with pytest.raises(NotHermitian):
            la.hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("d", [2, 3, 4, 6, 8, 9])
    def test_roundtrip_invariant(self, d):
        rng = np.random.default_rng(d)
        for _ in range(1000 // 6):
            m = random_hermitian(rng, d)
            dec = la.hermitian_eig(m)
            v = dec.eigenvectors
            assert np.max(np.abs(v.conj().T @ v - np.eye(d))) < 1e-12
            recon = (v * dec.eigenvalues) @ v.conj().T
            assert np.max(np.abs(recon - m)) < 1e-10

    def test_deterministic_for_identical_bits(self):
        rng = np.random.default_rng(42)
        m = random_hermitian(rng, 5)
        d1 = la.hermitian_eig(m.copy())
        d2 = la.hermitian_eig(m.copy())
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_min_gap_smallest_consecutive_difference(self):
        dec = la.hermitian_eig(np.diag([0.1, 0.4, 0.45]).astype(complex))
        assert dec.min_gap == pytest.approx(0.05)


class TestTwoByTwoEig:
    """hermitian_eig's closed form for 2x2 matrices, against LAPACK and the column loop."""

    @staticmethod
    def _check(stack):
        """Check each row of a (..., 2, 2) stack against reference_hermitian_eig."""
        dec = la.hermitian_eig(stack)
        assert dec.eigenvalues.shape == stack.shape[:-1]
        assert dec.eigenvectors.shape == stack.shape
        for idx in np.ndindex(stack.shape[:-2]):
            m, row = stack[idx], dec[idx]
            vals, v = row.eigenvalues, row.eigenvectors
            alone = la.hermitian_eig(m)
            assert np.array_equal(alone.eigenvalues, vals)
            assert np.array_equal(alone.eigenvectors, v)
            ref_vals, ref_vecs = reference_hermitian_eig(m)
            norm = np.linalg.norm(m, 2)
            assert vals[0] <= vals[1]
            assert np.abs(vals - ref_vals).max() <= 8 * EPS * norm
            assert np.abs((v * vals) @ v.conj().T - m).max() <= 1e-15 * norm
            assert np.abs(v.conj().T @ v - np.eye(2)).max() <= 1e-15
            for k in range(2):
                pivot = v[int(np.argmax(np.abs(v[:, k]))), k]
                assert abs(pivot.imag) <= EPS and pivot.real > 0.0
            gap = ref_vals[1] - ref_vals[0]
            assert row.degenerate == (gap < la.DEGENERACY_TOL)
            assert row.degenerate_blocks == (((0, 2),) if row.degenerate else ())
            if gap > 0.0:
                # eigenvectors are only defined to about eps |M| / gap
                proj = np.einsum("ik,jk->kij", v, v.conj())
                ref_proj = np.einsum("ik,jk->kij", ref_vecs, ref_vecs.conj())
                assert np.abs(proj - ref_proj).max() <= 16 * EPS * norm / gap
        return dec

    @pytest.mark.parametrize("kind", ["random", "rank-1"])
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    def test_random_and_rank_one(self, kind, scale):
        rng = np.random.default_rng([21, int(kind == "rank-1")])
        if kind == "random":
            stack = np.stack([random_hermitian(rng, 2) for _ in range(200)])
        else:
            v = rng.normal(size=(200, 2, 1)) + 1j * rng.normal(size=(200, 2, 1))
            stack = v @ v.conj().swapaxes(-1, -2)
        self._check(scale * stack.reshape(4, 50, 2, 2))

    @pytest.mark.parametrize("diag", [(0.2, 0.8), (1.0, 1e-20), (-3.0, 5.0)])
    def test_diagonal_matrices_in_both_orders(self, diag):
        for a, d in (diag, diag[::-1]):
            dec = self._check(np.diag([a, d]).astype(complex))
            assert np.array_equal(dec.eigenvalues, sorted(diag))
            unit = np.eye(2) if a < d else np.eye(2)[::-1]
            assert np.array_equal(dec.eigenvectors, unit)

    @pytest.mark.parametrize("alpha", [0.5, 0.0, -2.0])
    def test_equal_diagonal_and_zero_off_diagonal(self, alpha):
        dec = self._check(alpha * np.eye(2, dtype=complex))
        assert np.array_equal(dec.eigenvalues, [alpha, alpha])
        assert np.array_equal(dec.eigenvectors, np.eye(2))
        assert dec.min_gap == 0.0 and dec.degenerate
        assert dec.degenerate_blocks == ((0, 2),)

    def test_purely_imaginary_off_diagonal(self):
        dec = self._check(np.array([
            [[0.3, 0.2j], [-0.2j, 0.7]],
            [[0.7, -0.2j], [0.2j, 0.3]],
            [[0.5, 0.5j], [-0.5j, 0.5]],
        ]))
        assert np.allclose(dec.eigenvalues[2], [0.0, 1.0], rtol=0.0, atol=EPS)

    def test_negative_zero_entries(self):
        dec = self._check(np.array([
            [[-0.0, -0.0 - 0.0j], [-0.0 + 0.0j, -0.0]],
            [[-0.0, 0.0], [0.0, 0.5]],
            [[0.5, -0.0j], [0.0j, -0.0]],
        ], dtype=complex))
        assert np.array_equal(dec.eigenvalues, [[0.0, 0.0], [0.0, 0.5], [0.0, 0.5]])
        assert np.array_equal(dec.eigenvectors, [np.eye(2), np.eye(2), np.eye(2)[::-1]])

    def test_largest_finite_scale(self):
        m = np.array([[1e300, 1e300], [1e300, 1e300]], dtype=complex)
        dec = self._check(m)
        assert np.array_equal(dec.eigenvalues, [0.0, 2 * 1e300])
        # LAPACK lands one ulp below 2e300
        ref = reference_hermitian_eig(m)[0]
        assert np.allclose(ref, [0.0, 2 * 1e300], rtol=2 * EPS, atol=0.0)

    @pytest.mark.parametrize("factor", [1.0 - 1e-4, 1.0 + 1e-4])
    def test_gaps_around_the_degeneracy_tolerance(self, factor):
        rng = np.random.default_rng(22)
        gap = factor * la.DEGENERACY_TOL
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        m = (u * [0.5 - gap / 2, 0.5 + gap / 2]) @ u.conj().T
        dec = self._check((m + m.conj().T) / 2.0)
        assert abs(dec.min_gap - gap) <= 4 * EPS
        assert dec.degenerate == (factor < 1.0)

    @pytest.mark.parametrize("shape", [(0,), (3, 0)])
    def test_empty_stacks(self, shape):
        dec = la.hermitian_eig(np.zeros(shape + (2, 2), dtype=complex))
        assert dec.eigenvalues.shape == shape + (2,)
        assert dec.eigenvectors.shape == shape + (2, 2)
        assert dec.min_gap.shape == dec.degenerate.shape == dec.degenerate_blocks.shape == shape

    @pytest.mark.parametrize("entry, message", [
        ((0, 0, np.nan), "has non-finite entries"),
        ((0, 1, np.inf), "has non-finite entries"),
        ((0, 1, 1e-3), "not Hermitian"),
    ])
    def test_bad_input_names_the_row(self, entry, message):
        stack = np.tile(np.eye(2, dtype=complex) / 2, (2, 3, 1, 1))
        i, j, value = entry
        stack[1, 2, i, j] = value
        with pytest.raises(NotHermitian, match=f"matrix row 1, 2 {message}"):
            la.hermitian_eig(stack)
        with pytest.raises(NotHermitian, match=f"^matrix {message}"):
            la.hermitian_eig(stack[1, 2])


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert la.von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_maximally_mixed_qubit(self):
        assert la.von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)

    def test_quarter_three_quarter(self):
        # independent evaluation of -sum lambda log2 lambda
        assert la.von_neumann_entropy(np.diag([0.25, 0.75])) == pytest.approx(
            0.8112781244591328, abs=1e-14
        )

    def test_additivity(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = random_density(rng, 3)
            b = random_density(rng, 2)
            joint = la.von_neumann_entropy(np.kron(a, b))
            assert joint == pytest.approx(
                la.von_neumann_entropy(a) + la.von_neumann_entropy(b), abs=1e-10
            )

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            s = la.von_neumann_entropy(random_density(rng, 4))
            assert 0.0 <= s <= 2.0 + 1e-12

    def test_rejects_bad_trace(self):
        with pytest.raises(NotDensityMatrix):
            la.von_neumann_entropy(np.diag([0.5, 0.6]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotDensityMatrix):
            la.von_neumann_entropy(np.diag([1.1, -0.1]))


def _masked_xlogx(x):
    """x ln x with the mask on every entry: the form xlogx must equal bit for bit."""
    with np.errstate(invalid="ignore"):  # -inf * 0
        return x * np.log(np.where(x > 0, x, 1))


class TestXlogx:
    @pytest.mark.parametrize(
        "x",
        [
            np.array([0.3, 1.0, 2.5, 1e-300]),
            np.array([5e-324, 2.2e-308, 0.7]),  # subnormal entries
            np.array([0.0, -0.0, -1.5, 0.2, -5e-324]),
            np.array([np.nan, 0.5]),
            np.array([np.inf, 0.5]),
            np.array([-np.inf, 0.5]),
            np.array([np.nan, np.inf, -np.inf, 0.0]),
            np.random.default_rng(3).random((3, 4, 5)),
            np.array(0.7),
            np.array(0.0),
            np.array(-2.0),
            np.array(np.nan),
            0.7,
            0.0,
            -0.0,
            -3.0,
            np.array([]),
            np.zeros((0, 3)),
        ],
        ids=lambda x: repr(x).replace(" ", ""),
    )
    def test_equals_the_masked_form_bit_for_bit(self, x):
        # filterwarnings = error turns any warning of xlogx into a failure
        got, want = la.xlogx(x), _masked_xlogx(x)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("fill", [0.25, 0.0], ids=["positive", "with-zero"])
    def test_out_receives_the_result(self, fill):
        x = np.random.default_rng(4).random((4, 8))
        x[1, 2] = fill
        out = np.full_like(x, np.nan)
        assert la.xlogx(x, out=out) is out
        assert out.tobytes() == _masked_xlogx(x).tobytes()


def _two_by_two_reference(blocks):
    """Ascending spectra of Hermitian 2x2 blocks (..., k, 2, 2) in extended precision."""
    lng = np.longdouble
    a, d = blocks[..., 0, 0].real.astype(lng), blocks[..., 1, 1].real.astype(lng)
    b = blocks[..., 0, 1]
    rad = np.hypot(np.hypot((a - d) / 2, b.real.astype(lng)), b.imag.astype(lng))
    vals = np.stack([(a + d) / 2 - rad, (a + d) / 2 + rad], axis=-1)
    return np.sort(vals.reshape(vals.shape[:-2] + (-1,)), axis=-1)


class TestBlockSpectrum:
    EPS = np.finfo(float).eps

    @staticmethod
    def _blocks(rng, n, kind, shape=(50, 3)):
        g = rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
        if kind == "rank-deficient":
            g = g[..., :1] @ g[..., :1].conj().swapaxes(-1, -2)
        elif kind == "b = 0":
            g = g * np.eye(n)
        elif kind == "tie":  # a = d and b = 0
            g = g[..., :1, :1].real * np.eye(n)
        return (g + g.conj().swapaxes(-1, -2)) / 2.0

    def _check_two_by_two(self, blocks):
        got = la.block_spectrum(blocks)
        assert got.shape == blocks.shape[:-3] + (2 * blocks.shape[-3],)
        assert np.all(np.diff(got, axis=-1) >= 0.0)
        # the norm of the block-diagonal matrix: its largest block norm
        norm = np.linalg.norm(blocks, ord=2, axis=(-2, -1)).max(axis=-1)[..., None]
        assert np.all(np.abs(got - _two_by_two_reference(blocks)) <= 4 * self.EPS * norm)
        # LAPACK itself is off the extended-precision spectrum by up to about 5 eps |B|
        want = np.sort(np.linalg.eigvalsh(blocks).reshape(got.shape), axis=-1)
        assert np.all(np.abs(got - want) <= 8 * self.EPS * norm)

    KINDS = ("random", "rank-deficient", "b = 0", "tie")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    def test_two_by_two_closed_form_matches_eigvalsh(self, kind, scale):
        rng = np.random.default_rng([2, self.KINDS.index(kind)])
        self._check_two_by_two(scale * self._blocks(rng, 2, kind))

    def test_negative_zero_entries(self):
        blocks = np.array([
            [[-0.0, -0.0 - 0.0j], [-0.0 + 0.0j, -0.0]],
            [[-0.0, 0.0], [0.0, 0.5]],
            [[0.5, -0.0j], [0.0j, -0.0]],
        ], dtype=complex)[None]
        got = la.block_spectrum(blocks)
        assert np.array_equal(got, [[0.0, 0.0, 0.0, 0.0, 0.5, 0.5]])
        self._check_two_by_two(blocks)

    def test_blocks_are_symmetrized_first(self):
        rng = np.random.default_rng(3)
        herm = self._blocks(rng, 2, "random")
        skew = rng.normal(size=herm.shape) * 1e-3j
        skew = skew + skew.swapaxes(-1, -2)  # anti-Hermitian: dropped by (B + B^dag)/2
        assert np.array_equal(la.block_spectrum(herm + skew), la.block_spectrum(herm))

    def test_one_by_one_blocks_give_the_sorted_diagonal(self):
        blocks = self._blocks(np.random.default_rng(4), 1, "random")
        got = la.block_spectrum(blocks)
        assert np.array_equal(got, np.sort(blocks[..., 0, 0].real, axis=-1))

    @pytest.mark.parametrize("kind", ["random", "rank-deficient"])
    def test_larger_blocks_go_to_eigvalsh(self, kind):
        blocks = self._blocks(np.random.default_rng(5), 3, kind)
        got = la.block_spectrum(blocks)
        assert np.array_equal(got, np.sort(np.linalg.eigvalsh(blocks).reshape(50, 9), axis=-1))

    def test_empty_stack(self):
        assert la.block_spectrum(np.zeros((0, 2, 2, 2), dtype=complex)).shape == (0, 4)


class TestRelativeEntropy:
    def test_identical_arguments(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 3)
        assert la.relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_maximally_mixed(self):
        assert la.relative_entropy(np.diag([1.0, 0.0]), np.eye(2) / 2) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_classical_pair(self):
        # 0.3 log2(0.6) + 0.7 log2(1.4), evaluated independently
        got = la.relative_entropy(np.diag([0.3, 0.7]), np.diag([0.5, 0.5]))
        assert got == pytest.approx(0.11870910076930738, abs=1e-14)

    def test_klein_inequality(self):
        rng = np.random.default_rng(4)
        for d in (2, 3, 4):
            for _ in range(1000 // 3):
                assert la.relative_entropy(random_density(rng, d), random_density(rng, d)) >= 0.0

    def test_support_violation(self):
        with pytest.raises(SupportViolation):
            la.relative_entropy(np.eye(2) / 2, np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("error, raises", [(1e-13, False), (1e-6, True)])
    def test_negative_value_is_clamped_or_raised(self, monkeypatch, error, raises):
        # an entropy kernel that overstates S(rho) by `error` drives the
        # value of S(rho || rho) to -error: round-off is clamped, more raises
        exact = la.spectrum_entropy
        monkeypatch.setattr(la, "spectrum_entropy", lambda vals: exact(vals) + error)
        rho = np.diag([0.9, 0.1])
        if raises:
            with pytest.raises(InvariantViolation, match="Klein"):
                la.relative_entropy(rho, rho)
        else:
            assert la.relative_entropy(rho, rho) == 0.0


class TestSchattenNorm:
    def test_identity_trace_norm(self):
        assert la.schatten_norm(np.eye(5), 1) == pytest.approx(5.0)

    def test_unitary_operator_norm(self):
        rng = np.random.default_rng(5)
        from helpers import haar

        assert la.schatten_norm(haar(rng, 4), math.inf) == pytest.approx(1.0)

    def test_frobenius(self):
        assert la.schatten_norm(np.diag([3.0, -4.0]), 2) == pytest.approx(5.0)

    def test_invalid_p(self):
        with pytest.raises(InvalidP):
            la.schatten_norm(np.eye(2), 0.5)

    def test_norm_monotone_in_p(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            values = [la.schatten_norm(m, p) for p in (1, 1.5, 2, 3, math.inf)]
            for lo, hi in zip(values[1:], values[:-1]):
                assert lo <= hi + 1e-12

    def test_zero_matrix(self):
        assert la.schatten_norm(np.zeros((3, 3)), 2) == 0.0


class TestBinaryEntropy:
    def test_endpoints(self):
        assert la.binary_entropy(0.0) == 0.0
        assert la.binary_entropy(1.0) == 0.0

    def test_symmetric_maximum(self):
        assert la.binary_entropy(0.5) == pytest.approx(1.0)

    def test_point_one(self):
        assert la.binary_entropy(0.1) == pytest.approx(0.4689955935892812, abs=1e-14)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            la.binary_entropy(1.5)
        with pytest.raises(OutOfRange):
            la.binary_entropy(-0.1)


class TestKron:
    def test_identity(self):
        assert np.array_equal(la.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_projector_times_identity(self):
        e11 = np.diag([1.0, 0.0])
        assert np.array_equal(la.kron(e11, np.eye(2)), np.diag([1.0, 1.0, 0.0, 0.0]))

    def test_x_tensor_z(self):
        z = np.diag([1.0, -1.0])
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2], expected[1, 3] = 1.0, -1.0
        expected[2, 0], expected[3, 1] = 1.0, -1.0
        assert np.array_equal(la.kron(PAULI_X, z), expected)

    def test_mixed_product_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
            lhs = la.kron(a, b) @ la.kron(c, d)
            rhs = la.kron(a @ c, b @ d)
            assert np.max(np.abs(lhs - rhs)) < 1e-12
