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
    InvalidP,
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

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix.

    eigenvalues are ascending; eigenvectors are the matching orthonormal
    columns; min_gap is the smallest difference between consecutive
    eigenvalues (0 for a degenerate spectrum, inf for a 1x1 matrix);
    degenerate_blocks lists (start, stop) index ranges of eigenvalues that
    coincide within the degeneracy tolerance.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    min_gap: float
    degenerate_blocks: tuple[tuple[int, int], ...]

    @property
    def degenerate(self) -> bool:
        return bool(self.degenerate_blocks)


def hermitian_eig(m) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with a fixed phase convention.

    Each eigenvector is rescaled so that its largest-magnitude entry is real
    and positive, which makes the output deterministic for identical input
    bits (up to the underlying LAPACK determinism).
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise NotHermitian("matrix has non-finite entries")
    dev = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if dev > HERMITICITY_TOL:
        raise NotHermitian(f"|m - m^dag| = {dev:.3e} exceeds {HERMITICITY_TOL}")
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    vals = vals.real
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if abs(pivot) > 0.0:
            vecs[:, k] = col * (pivot.conjugate() / abs(pivot))

    d = len(vals)
    if d < 2:
        min_gap = math.inf
        blocks: list[tuple[int, int]] = []
    else:
        diffs = np.diff(vals)
        min_gap = float(diffs.min())
        blocks = []
        start = 0
        for i, gap in enumerate(diffs):
            if gap >= DEGENERACY_TOL:
                if i + 1 - start > 1:
                    blocks.append((start, i + 1))
                start = i + 1
        if d - start > 1:
            blocks.append((start, d))
    return SpectralDecomposition(vals, vecs, min_gap, tuple(blocks))


def density_eigenvalues(rho, what: str = "state") -> np.ndarray:
    """Eigenvalues of a density matrix, validated and clamped at zero.

    This is the package's one density check: finite, Hermitian, no
    eigenvalue below -EIG_FLOOR_TOL, unit trace. ``what`` names the matrix
    in the NotDensityMatrix message.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise NotDensityMatrix(f"{what} matrix shape {rho.shape} not square")
    if not np.isfinite(rho).all():
        raise NotDensityMatrix(f"{what} has non-finite entries")
    dev = np.max(np.abs(rho - rho.conj().T))
    if dev > HERMITICITY_TOL:
        raise NotDensityMatrix(f"{what} not Hermitian: deviation {dev:.3e}")
    vals = np.linalg.eigvalsh(rho)
    if vals[0] < -EIG_FLOOR_TOL:
        raise NotDensityMatrix(f"{what} has negative eigenvalue {vals[0]:.3e}")
    tr = float(vals.sum())
    if abs(tr - 1.0) > TRACE_TOL:
        raise NotDensityMatrix(f"{what} trace {tr!r} != 1")
    return np.clip(vals, 0.0, None)


def spectrum_entropy(vals: np.ndarray) -> float:
    """-sum v log2 v over the positive entries of an eigenvalue vector (bits)."""
    vals = vals[vals > 0.0]
    if len(vals) == 0:
        return 0.0
    return float(-(vals * np.log(vals)).sum() / _LN2)


def von_neumann_entropy(rho) -> float:
    """S(rho) = -tr rho log2 rho in bits, with 0 log 0 := 0."""
    return max(spectrum_entropy(density_eigenvalues(rho)), 0.0)


def relative_entropy(rho, sigma) -> float:
    """S(rho || sigma) = tr rho (log2 rho - log2 sigma) in bits.

    Raises SupportViolation when rho has weight outside the support of
    sigma (the divergence is +inf there).
    """
    rho_vals = density_eigenvalues(rho)
    density_eigenvalues(sigma, "sigma")
    rho = np.asarray(rho, dtype=complex)
    svals, svecs = np.linalg.eigh(np.asarray(sigma, dtype=complex))

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
    return max(value, 0.0) if value > -1e-12 else value


def schatten_norm(m, p) -> float:
    """Schatten p-norm (sum_i sigma_i^p)^(1/p); p=inf is the operator norm."""
    if not (p == math.inf or p >= 1.0):
        raise InvalidP(f"p must be >= 1 or inf, got {p}")
    m = np.asarray(m, dtype=complex)
    sing = np.linalg.svd(m, compute_uv=False)
    top = float(sing.max(initial=0.0))
    if top == 0.0:
        return 0.0
    if p == math.inf:
        return top
    return top * float(np.power(np.power(sing / top, p).sum(), 1.0 / p))


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


def trace_norm(m) -> float:
    """Schatten-1 norm."""
    return schatten_norm(m, 1.0)
