"""Dense complex linear algebra kernel.

All entropic quantities are in bits (base-2 logarithms). Eigenvalues in
[-EIG_FLOOR_TOL, 0] are treated as exact zeros; anything more negative is a
genuine positivity violation and raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidP,
    InvariantViolation,
    NotDensityMatrix,
    NotHermitian,
    OutOfRange,
    SupportViolation,
)

HERMITICITY_TOL = 1e-10
EIG_FLOOR_TOL = 1e-10
TRACE_TOL = 1e-10
DEGENERACY_TOL = 1e-8
SUPPORT_TOL = 1e-10
RELATIVE_ENTROPY_FLOOR_TOL = 1e-12

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix, or of each matrix of a stack.

    eigenvalues are ascending; eigenvectors are the matching orthonormal
    columns; min_gap is the smallest difference between consecutive
    eigenvalues (0 for a degenerate spectrum, inf for a 1x1 matrix);
    degenerate flags a gap below the degeneracy tolerance, and
    degenerate_blocks lists the (start, stop) index ranges of eigenvalues
    that coincide within it. For a stack (..., d, d) every field gains the
    leading axes: min_gap and degenerate are arrays, degenerate_blocks an
    object array holding each row's blocks, and ``dec[i]`` is row i.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    min_gap: np.floating | np.ndarray
    degenerate_blocks: tuple[tuple[int, int], ...] | np.ndarray
    degenerate: np.bool_ | np.ndarray

    def __getitem__(self, i) -> SpectralDecomposition:
        if isinstance(i, tuple) and not i:  # the whole stack, or the one matrix
            return self
        return SpectralDecomposition(
            self.eigenvalues[i],
            self.eigenvectors[i],
            self.min_gap[i],
            self.degenerate_blocks[i],
            self.degenerate[i],
        )


def first_bad_row(what: str, bad) -> tuple[str, tuple]:
    """``what`` naming the first row of a stack where ``bad`` holds, and its index.

    For a single matrix (``bad`` 0-d) that is ``what`` itself and ().
    """
    idx = np.unravel_index(int(np.argmax(bad)), np.shape(bad))
    return (f"{what} row {', '.join(map(str, idx))}" if idx else what), idx


def _check_hermitian(m: np.ndarray, what: str, error: type) -> None:
    """Raise ``error`` unless m (each row of a stack) is square, finite and Hermitian.

    The checks run on the whole stack; rows are looked at only to name the
    first failing one.
    """
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise error(f"{what} matrix shape {m.shape} not square")
    if not np.isfinite(m).all():
        label, _ = first_bad_row(what, ~np.isfinite(m).all(axis=(-2, -1)))
        raise error(f"{label} has non-finite entries")
    dev = np.abs(m - m.conj().swapaxes(-1, -2))
    if dev.max(initial=0.0) > HERMITICITY_TOL:
        dev = dev.max(axis=(-2, -1))
        label, idx = first_bad_row(what, dev > HERMITICITY_TOL)
        raise error(f"{label} not Hermitian: deviation {dev[idx]:.3e}")


def _degenerate_blocks(vals: np.ndarray) -> tuple[tuple[int, int], ...]:
    """(start, stop) ranges of ascending eigenvalues within DEGENERACY_TOL."""
    blocks = []
    start = 0
    for i, gap in enumerate(np.diff(vals)):
        if gap >= DEGENERACY_TOL:
            if i + 1 - start > 1:
                blocks.append((start, i + 1))
            start = i + 1
    if len(vals) - start > 1:
        blocks.append((start, len(vals)))
    return tuple(blocks)


def _eigvals_2x2(a, d, b_abs):
    """(h, rad, vals) of Hermitian [[a, b], [b*, d]]: the package's one 2x2 eigenvalue formula.

    h = (a - d)/2, rad = hypot(h, |b|), and the ascending eigenvalues
    (a + d)/2 -+ rad lie within about 1.5 eps |B| of the exact ones (eigvalsh:
    about 5 eps |B|). With b = 0 they are the diagonal itself, as in LAPACK.
    """
    h = (a - d) / 2.0
    rad = np.hypot(h, b_abs)
    mean = (a + d) / 2.0
    diag = b_abs == 0.0
    lo = np.where(diag, np.minimum(a, d), mean - rad)
    hi = np.where(diag, np.maximum(a, d), mean + rad)
    return h, rad, np.stack([lo, hi], axis=-1)


def _eig_2x2(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of Hermitian 2x2 matrices (..., 2, 2), with no LAPACK call.

    Like LAPACK it reads the lower triangle, b = conj(m[1, 0]). Each vector
    is taken from the row of M - lambda I that has no cancellation: with
    g = rad + |h| they are (b, -g) and (g, b*) when h > 0, else (-g, b*)
    and (b, g), over hypot(|b|, g). Both columns are then exactly
    orthogonal; a = d with b = 0 gives the identity.
    """
    b = m[..., 1, 0].conj()
    b_abs = np.abs(b)
    h, rad, vals = _eigvals_2x2(m[..., 0, 0].real, m[..., 1, 1].real, b_abs)
    g = rad + np.abs(h)
    g = np.where(g > 0.0, g, 1.0)  # a = d and b = 0
    up = h > 0.0
    lo = np.stack([np.where(up, b, -g), np.where(up, -g, b.conj())], axis=-1)
    hi = np.stack([np.where(up, g, b), np.where(up, b.conj(), g)], axis=-1)
    return vals, np.stack([lo, hi], axis=-1) / np.hypot(b_abs, g)[..., None, None]


def hermitian_eig(m) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix (..., d, d).

    2x2 matrices take the closed form of ``_eig_2x2``: eigenvalues within
    about 1.5 eps |M| of the exact ones and V diag(vals) V^dag within a few
    eps |M| of M; larger ones go to LAPACK's eigh. Each eigenvector keeps
    the phase its solver returns: M fixes only the projector |v><v| of a
    simple eigenvalue. Every row of a stack equals the decomposition of
    that matrix alone, bit for bit.
    """
    m = np.asarray(m, dtype=complex)
    _check_hermitian(m, "matrix", NotHermitian)
    if m.shape[-1] == 2:
        vals, vecs = _eig_2x2(m)
    else:
        try:
            vals, vecs = np.linalg.eigh(m)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(str(exc)) from exc
    min_gap = np.diff(vals, axis=-1).min(axis=-1, initial=math.inf)
    degenerate = min_gap < DEGENERACY_TOL
    if vals.ndim == 1:
        blocks = _degenerate_blocks(vals) if degenerate else ()
    else:
        blocks = np.empty(degenerate.shape, dtype=object)
        blocks.fill(())
        for idx in zip(*np.nonzero(degenerate)):
            blocks[idx] = _degenerate_blocks(vals[idx])
    return SpectralDecomposition(vals, vecs, min_gap, blocks, degenerate)


def check_density_spectrum(vals: np.ndarray, what: str = "state") -> np.ndarray:
    """Raise NotDensityMatrix unless an ascending spectrum (..., d) is a density spectrum.

    No eigenvalue may lie below -EIG_FLOOR_TOL and the eigenvalues must sum
    to 1 within TRACE_TOL. ``what`` names the matrix in the message, together
    with the first failing row of a stack. Each test is written so that a
    NaN fails it. The spectrum is returned as it is.
    """
    lowest = vals[..., 0]
    if not (lowest >= -EIG_FLOOR_TOL).all():
        label, idx = first_bad_row(what, ~(lowest >= -EIG_FLOOR_TOL))
        negative = "negative " if lowest[idx] < 0 else ""  # or NaN
        raise NotDensityMatrix(f"{label} has {negative}eigenvalue {lowest[idx]:.3e}")
    tr = vals.sum(axis=-1)
    if not (np.abs(tr - 1.0) <= TRACE_TOL).all():
        label, idx = first_bad_row(what, ~(np.abs(tr - 1.0) <= TRACE_TOL))
        raise NotDensityMatrix(f"{label} trace {float(tr[idx])!r} != 1")
    return vals


def check_density_matrix(rho, what: str = "state") -> np.ndarray:
    """rho (each row of a stack) as a complex array; NotDensityMatrix unless square, finite and Hermitian."""
    rho = np.asarray(rho, dtype=complex)
    _check_hermitian(rho, what, NotDensityMatrix)
    return rho


def density_eigenvalues(rho, what: str = "state") -> np.ndarray:
    """Eigenvalues of a density matrix (..., d, d), validated, ascending and unclamped.

    This is the package's one density check: ``check_density_matrix`` on the
    matrix, then ``check_density_spectrum`` on its ``eigvalsh``. Entries in
    [-EIG_FLOOR_TOL, 0) are returned as they are; ``spectrum_entropy``
    ignores them. Each check runs on the whole stack; rows are looked at
    only to name a failing one.
    """
    rho = check_density_matrix(rho, what)
    return check_density_spectrum(np.linalg.eigvalsh(rho), what)


def block_spectrum(blocks: np.ndarray) -> np.ndarray:
    """Ascending union of the spectra of Hermitian blocks (..., k, n, n), shape (..., k n).

    The blocks are symmetrized first. n = 1 takes the real diagonal, n = 2
    the closed form of ``_eigvals_2x2`` with no LAPACK call, and larger
    blocks ``eigvalsh``. A block-diagonal matrix has this spectrum: that of
    a dephased state is taken from its conditional blocks.
    """
    blocks = (blocks + blocks.conj().swapaxes(-1, -2)) / 2.0
    n = blocks.shape[-1]
    if n == 1:
        vals = blocks[..., 0].real
    elif n == 2:
        a, d = blocks[..., 0, 0].real, blocks[..., 1, 1].real
        vals = _eigvals_2x2(a, d, np.abs(blocks[..., 0, 1]))[2]
    else:
        vals = np.linalg.eigvalsh(blocks)
    return np.sort(vals.reshape(vals.shape[:-2] + (vals.shape[-2] * n,)), axis=-1)


def xlogx(x: np.ndarray) -> np.ndarray:
    """x ln x elementwise, with 0 for x <= 0.

    The result is x * ln(where(x > 0, x, 1)), bit for bit. When every entry
    is positive that is x * ln x, which skips the mask; a NaN fails the
    test and takes the masked path, as does -inf, whose NaN raises no
    warning.
    """
    if np.size(x) and np.min(x) > 0.0:
        return x * np.log(x)
    with np.errstate(invalid="ignore"):
        return x * np.log(np.where(x > 0.0, x, 1.0))


def spectrum_entropy(vals: np.ndarray):
    """-sum v log2 v over the positive entries of an eigenvalue array (bits).

    A stack of spectra (..., d) gives one entropy per row.
    """
    return -xlogx(vals).sum(axis=-1) / _LN2


def von_neumann_entropy(rho) -> float:
    """S(rho) = -tr rho log2 rho in bits, with 0 log 0 := 0."""
    return np.maximum(spectrum_entropy(density_eigenvalues(rho)), 0.0)


def relative_entropy(rho, sigma) -> float:
    """S(rho || sigma) = tr rho (log2 rho - log2 sigma) in bits.

    Raises SupportViolation when rho has weight outside the support of
    sigma (the divergence is +inf there). The value is never negative
    (Klein's inequality): round-off down to -RELATIVE_ENTROPY_FLOOR_TOL is
    clamped to 0, and anything lower raises InvariantViolation, since it
    means the two spectra were not computed consistently. It is the scalar
    cross-check: a stack raises DimensionMismatch.
    """
    rho_vals = density_eigenvalues(rho)
    density_eigenvalues(sigma, "sigma")
    rho, sigma = np.asarray(rho, dtype=complex), np.asarray(sigma, dtype=complex)
    if rho.ndim != 2 or rho.shape != sigma.shape:
        raise DimensionMismatch(f"relative entropy of shapes {rho.shape}, {sigma.shape}")
    svals, svecs = np.linalg.eigh(sigma)

    overlaps = np.real(np.einsum("ij,jk,ki->i", svecs.conj().T, rho, svecs))
    on_null = svals <= SUPPORT_TOL
    null_mass = float(overlaps[on_null].sum())
    if null_mass > SUPPORT_TOL:
        raise SupportViolation(
            f"rho carries weight {null_mass:.3e} outside supp(sigma)"
        )

    tr_rho_log_rho = -spectrum_entropy(rho_vals)
    keep = ~on_null
    tr_rho_log_sigma = float(
        (overlaps[keep] * np.log(svals[keep])).sum() / _LN2
    )
    value = tr_rho_log_rho - tr_rho_log_sigma
    if value < -RELATIVE_ENTROPY_FLOOR_TOL:
        raise InvariantViolation(
            f"relative entropy {value:.3e} < 0 breaks Klein's inequality"
        )
    return max(value, 0.0)


def check_schatten_p(p) -> None:
    """Raise InvalidP unless the Schatten exponent p is >= 1 or inf (NaN fails)."""
    if not (p == math.inf or p >= 1.0):
        raise InvalidP(f"p must be >= 1 or inf, got {p}")


def schatten_norm(m, p):
    """Schatten p-norm (sum_i sigma_i^p)^(1/p) of a Hermitian matrix; p=inf is the operator norm.

    The singular values are |eigvalsh| of the Hermitian part, with no SVD; a
    non-finite or non-Hermitian row raises NotHermitian. A stack (..., d, d)
    gives one norm per row, each equal to the norm of that matrix alone, bit
    for bit; a single matrix gives a float.
    """
    check_schatten_p(p)
    m = np.asarray(m, dtype=complex)
    _check_hermitian(m, "matrix", NotHermitian)
    sing = np.abs(np.linalg.eigvalsh((m + m.conj().swapaxes(-1, -2)) / 2.0))
    top = sing.max(axis=-1, initial=0.0)
    if p == math.inf:
        norm = top
    else:
        # a zero row stays 0: its singular values are divided by 1, not by 0
        scale = np.where(top > 0.0, top, 1.0)[..., None]
        norm = top * np.power(np.power(sing / scale, p).sum(axis=-1), 1.0 / p)
    return float(norm) if m.ndim == 2 else norm


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x), H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise OutOfRange(f"binary entropy argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-(x * math.log(x) + (1.0 - x) * math.log(1.0 - x)) / _LN2)


def kron(a, b) -> np.ndarray:
    """Tensor (Kronecker) product."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def trace_norm(m):
    """Schatten-1 norm of a Hermitian matrix, of each row of a stack (..., d, d): sum |eigvalsh|."""
    return schatten_norm(m, 1.0)
