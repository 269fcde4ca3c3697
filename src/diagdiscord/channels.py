"""Quantum-channel representations and their interaction with eigenbasis dephasing.

Covers the three channel families used for the classification of local
discord-free operations: mixed-unitary (MU), isotropic (ISO, with a unitary
or antiunitary core), and semiclassical (SC). Also provides the randomized
predicates that test the commuting condition and the weaker
discord-nongenerating condition against the A-side dephasing map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateOutput,
    DimensionMismatch,
    InvalidChannel,
    InvalidDistribution,
    NotDensityMatrix,
    NotPositiveSemidefinite,
    OutOfRange,
    ParseError,
)
from .linalg import DEGENERACY_TOL, hermitian_eig, trace_norm
from .states import (
    BipartiteState,
    _format_matrix_rows,
    _parse_matrix_rows,
    conjugate_a,
    ptrace_a,
    ptrace_b,
    sample_nondegenerate,
)
from .discord import dephase_a

UNITARITY_TOL = 1e-10
COMPLETENESS_TOL = 1e-10
#: trace-norm deviation at or below which a channel is judged to commute
COMMUTE_TOL = 1e-9
#: deviation at or above which a violation is structural, not round-off
VIOLATION_TOL = 1e-3

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)


def _check_unitary(u: np.ndarray, what: str) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise InvalidChannel(f"{what} is not square")
    dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if dev > UNITARITY_TOL:
        raise InvalidChannel(f"{what} not unitary: deviation {dev:.3e}")
    return u


def partial_transpose_a(rho: np.ndarray, d_a: int, d_b: int, basis: np.ndarray) -> np.ndarray:
    """Transpose A in the basis B: (B B^T (x) I) rho^{T_A} (B B^T (x) I)^dag."""
    d = d_a * d_b
    flipped = rho.reshape(d_a, d_b, d_a, d_b).transpose(2, 1, 0, 3).reshape(d, d)
    return conjugate_a(basis @ basis.T, flipped, d_a, d_b)


def _kraus_lift(ops, rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """sum_k (K_k (x) I) rho (K_k (x) I)^dag."""
    return sum(conjugate_a(k, rho, d_a, d_b) for k in ops)


class QuantumChannel:
    """Common surface for the channel classes below.

    Each class defines its channel once, by ``lift_a``; ``apply`` is that
    lift with a trivial B.
    """

    dim: int

    def lift_a(self, rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
        """(channel (x) identity)(rho) for a (d_a*d_b) x (d_a*d_b) matrix."""
        raise NotImplementedError

    def apply(self, rho: np.ndarray) -> np.ndarray:
        _check_dim(rho, self.dim)
        return self.lift_a(rho, self.dim, 1)

    def apply_local_a(self, state: BipartiteState) -> BipartiteState:
        """Act with (channel (x) identity) on a bipartite state."""
        out = apply_local_a_raw(self, state.rho, state.dim_a, state.dim_b)
        return BipartiteState((out + out.conj().T) / 2.0, state.dim_a, state.dim_b)

    def tag(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class KrausChannel(QuantumChannel):
    ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.ops)
        if not ops:
            raise InvalidChannel("need at least one Kraus operator")
        d = ops[0].shape[0]
        for k in ops:
            if k.shape != (d, d):
                raise DimensionMismatch("Kraus operators have mixed shapes")
        total = sum(k.conj().T @ k for k in ops)
        dev = np.max(np.abs(total - np.eye(d)))
        if dev > COMPLETENESS_TOL:
            raise InvalidChannel(f"sum K^dag K - I deviates by {dev:.3e}")
        object.__setattr__(self, "ops", ops)

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]

    def kraus_ops(self) -> tuple[np.ndarray, ...]:
        return self.ops

    def lift_a(self, rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
        return _kraus_lift(self.ops, rho, d_a, d_b)

    def tag(self) -> str:
        return "kraus"


@dataclass(frozen=True)
class MixedUnitaryChannel(QuantumChannel):
    probs: np.ndarray
    unitaries: tuple[np.ndarray, ...]

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or len(probs) == 0:
            raise InvalidDistribution("probs must be a non-empty vector")
        if np.any(probs < -1e-12) or abs(probs.sum() - 1.0) > 1e-10:
            raise InvalidDistribution(f"probs {probs} is not a distribution")
        unitaries = tuple(
            _check_unitary(u, f"U_{i}") for i, u in enumerate(self.unitaries)
        )
        if len(unitaries) != len(probs):
            raise DimensionMismatch("need one unitary per probability")
        d = unitaries[0].shape[0]
        for u in unitaries:
            if u.shape != (d, d):
                raise DimensionMismatch("unitaries have mixed shapes")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "unitaries", unitaries)

    @property
    def dim(self) -> int:
        return self.unitaries[0].shape[0]

    def kraus_ops(self) -> tuple[np.ndarray, ...]:
        return tuple(
            math.sqrt(p) * u for p, u in zip(self.probs, self.unitaries) if p > 0
        )

    def lift_a(self, rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
        return _kraus_lift(self.kraus_ops(), rho, d_a, d_b)

    def tag(self) -> str:
        return "mixed-unitary"


@dataclass(frozen=True)
class IsotropicChannel(QuantumChannel):
    """(1 - gamma) W(rho) + gamma I/d, W unitary or antiunitary.

    The antiunitary core acts as rho -> U rho^T U^dag with the transpose
    taken in ``transpose_basis``. That map is positive, but completely
    positive only for gamma >= d/(d+1), so below that its lift to AB may
    leave the state cone.
    """

    gamma: float
    w_unitary: np.ndarray
    antiunitary: bool = False
    transpose_basis: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise OutOfRange(f"gamma = {self.gamma} outside [0, 1]")
        u = _check_unitary(self.w_unitary, "W")
        object.__setattr__(self, "w_unitary", u)
        if self.antiunitary:
            basis = (
                np.eye(u.shape[0], dtype=complex)
                if self.transpose_basis is None
                else _check_unitary(self.transpose_basis, "transpose basis")
            )
            if basis.shape != u.shape:
                raise DimensionMismatch("transpose basis dimension mismatch")
            object.__setattr__(self, "transpose_basis", basis)
        else:
            object.__setattr__(self, "transpose_basis", None)

    @property
    def dim(self) -> int:
        return self.w_unitary.shape[0]

    def lift_a(self, rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
        """(1 - gamma) (W (x) I) core (W (x) I)^dag + gamma I/d_a (x) rho_B.

        The core is rho, or its partial transpose on A for an antiunitary W.
        """
        core = (
            partial_transpose_a(rho, d_a, d_b, self.transpose_basis)
            if self.antiunitary
            else rho
        )
        out = (1.0 - self.gamma) * conjugate_a(self.w_unitary, core, d_a, d_b)
        rho_b = ptrace_a(rho, d_a, d_b)
        return out + self.gamma * np.kron(np.eye(d_a) / d_a, rho_b)

    def apply_local_a(self, state: BipartiteState) -> BipartiteState:
        try:
            return super().apply_local_a(state)
        except NotDensityMatrix as exc:
            if not self.antiunitary:
                raise
            raise NotPositiveSemidefinite(
                f"antiunitary lift is not a state ({exc}); the channel is not "
                "completely positive at this gamma"
            ) from exc

    def tag(self) -> str:
        return "isotropic"


@dataclass(frozen=True)
class SemiclassicalChannel(QuantumChannel):
    """Arbitrary inner channel followed by complete dephasing in a fixed basis."""

    basis: np.ndarray
    inner: QuantumChannel

    def __post_init__(self):
        basis = _check_unitary(self.basis, "preferred basis")
        if basis.shape[0] != self.inner.dim:
            raise DimensionMismatch("preferred basis dimension != inner channel")
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def lift_a(self, rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
        return dephase_a(self.inner.lift_a(rho, d_a, d_b), d_a, d_b, self.basis)

    def tag(self) -> str:
        return "semiclassical"


def _check_dim(rho: np.ndarray, d: int) -> None:
    if rho.shape != (d, d):
        raise DimensionMismatch(f"state shape {rho.shape} != ({d}, {d})")


def apply_local_a_raw(
    channel: QuantumChannel, rho: np.ndarray, d_a: int, d_b: int
) -> np.ndarray:
    """(channel (x) identity)(rho) on a raw matrix, without state validation."""
    if channel.dim != d_a:
        raise DimensionMismatch(f"channel dimension {channel.dim} != {d_a}")
    return channel.lift_a(rho, d_a, d_b)


# --- commutation predicates ---------------------------------------------------

def qubit_mu_commuting_condition(
    channel: MixedUnitaryChannel, basis: np.ndarray
) -> float:
    """Largest violation of the qubit commuting condition for one basis.

    Diagonalizes E(|psi><psi|) to get the common output eigenbasis
    {|eta_+>, |eta_->} and returns
    max_l |sum_mu p_mu <eta_l|U_mu|psi><psi_bar|U_mu^dag|eta_l>|,
    which is zero (to round-off) exactly when the channel commutes with
    dephasing in this input basis.
    """
    if channel.dim != 2:
        raise DimensionMismatch("the commuting condition test is for qubits")
    basis = np.asarray(basis, dtype=complex)
    if basis.shape != (2, 2):
        raise DimensionMismatch("basis must be a 2x2 column matrix")
    psi, psi_bar = basis[:, 0], basis[:, 1]
    out = channel.apply(np.outer(psi, psi.conj()))
    dec = hermitian_eig(out)
    if dec.min_gap < DEGENERACY_TOL:
        # maximally mixed output: every basis is a common eigenbasis, so the
        # violation over all admissible choices is the operator norm of
        # A = sum_mu p_mu U_mu |psi><psi_bar| U_mu^dag (max_eta |<eta|A|eta>|
        # vanishes iff A = 0)
        if np.max(np.abs(out - np.eye(2) / 2.0)) <= 1e-10:
            a = sum(
                p * (u @ np.outer(psi, psi_bar.conj()) @ u.conj().T)
                for p, u in zip(channel.probs, channel.unitaries)
            )
            return float(np.linalg.norm(a, 2))
        raise DegenerateOutput(
            f"E(|psi><psi|) is degenerate (gap {dec.min_gap:.3e}); "
            "common eigenbasis is ill-defined"
        )
    worst = 0.0
    for l in range(2):
        eta = dec.eigenvectors[:, l]
        total = 0.0j
        for p, u in zip(channel.probs, channel.unitaries):
            total += p * (eta.conj() @ u @ psi) * (psi_bar.conj() @ u.conj().T @ eta)
        worst = max(worst, abs(total))
    return worst


@dataclass(frozen=True)
class ChannelReport:
    """Outcome of a randomized channel-condition scan."""

    max_deviation: float
    witness: BipartiteState | None = field(default=None, repr=False)
    trials: int = 0


def _dephase_in_marginal_basis(rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    dec = hermitian_eig(ptrace_b(rho, d_a, d_b))
    return dephase_a(rho, d_a, d_b, dec.eigenvectors)


def commutes_with_pi(
    channel: QuantumChannel,
    trials: int,
    rng: np.random.Generator,
    d_b: int = 2,
) -> ChannelReport:
    """Scan random states for violations of the commuting condition.

    Compares dephasing-then-channel against channel-then-dephasing in trace
    norm over random full-rank inputs with nondegenerate A-marginals. A max
    deviation <= 1e-9 is consistent with membership in the commuting class.
    """
    if trials < 1:
        raise OutOfRange("trials must be >= 1")
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


def is_discord_nongenerating(
    channel: QuantumChannel,
    trials: int,
    rng: np.random.Generator,
    d_b: int = 2,
) -> ChannelReport:
    """Scan for discord generation from classical-quantum inputs.

    Each trial dephases a random state (producing a classical-quantum
    input), applies the channel locally, and measures how far the output is
    from its own dephased image in trace norm.
    """
    if trials < 1:
        raise OutOfRange("trials must be >= 1")
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


#: (holds, violated) verdict labels of the two scans
COMMUTING = ("commuting", "non-commuting")
NONGENERATING = ("nongenerating", "generating")


def condition_verdict(
    max_deviation: float,
    commute_tol: float = COMMUTE_TOL,
    violation_tol: float = VIOLATION_TOL,
    labels: tuple[str, str] = COMMUTING,
) -> str:
    """Map a scan deviation to labels[0] / labels[1] / inconclusive.

    The band between the two thresholds is a deliberate dead zone separating
    round-off from structural violation.
    """
    if max_deviation <= commute_tol:
        return labels[0]
    if max_deviation >= violation_tol:
        return labels[1]
    return "inconclusive"


# --- named channels and samplers ----------------------------------------------

def rotation_unitary(axis, angle: float) -> np.ndarray:
    """exp(-i angle (n . sigma) / 2) for a Bloch axis n."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    ns = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
    return math.cos(angle / 2.0) * np.eye(2) - 1j * math.sin(angle / 2.0) * ns


def probabilistic_hadamard() -> MixedUnitaryChannel:
    """The mixed-unitary channel (1/3) rho + (2/3) H rho H."""
    return MixedUnitaryChannel(
        np.array([1.0 / 3.0, 2.0 / 3.0]), (np.eye(2, dtype=complex), HADAMARD)
    )


def pauli_twirl_channel(basis: np.ndarray | None = None) -> MixedUnitaryChannel:
    """Uniform mixture of I, X, Y, Z conjugations in the given qubit basis."""
    v = np.eye(2, dtype=complex) if basis is None else np.asarray(basis, complex)
    ops = tuple(v @ p @ v.conj().T for p in (np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z))
    return MixedUnitaryChannel(np.full(4, 0.25), ops)


def amplitude_damping(gamma: float) -> KrausChannel:
    """Qubit amplitude damping; non-unital for gamma > 0."""
    if not 0.0 <= gamma <= 1.0:
        raise OutOfRange(f"gamma = {gamma} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((k0, k1))


def isotropic_as_mixed_unitary(channel: IsotropicChannel) -> MixedUnitaryChannel:
    """Mixed-unitary form of a qubit isotropic channel.

    Unitary core: the depolarizing part becomes a uniform Pauli twirl.
    Antiunitary core: requires gamma >= 2/3 (the complete-positivity
    threshold), below which no mixed-unitary form exists.
    """
    if channel.dim != 2:
        raise DimensionMismatch("mixed-unitary form implemented for qubits only")
    g = channel.gamma
    u = channel.w_unitary
    eye = np.eye(2, dtype=complex)
    if not channel.antiunitary:
        probs = np.array([1.0 - g, g / 4.0, g / 4.0, g / 4.0, g / 4.0])
        ops = (u, eye, PAULI_X, PAULI_Y, PAULI_Z)
        return MixedUnitaryChannel(probs, ops)
    if g < 2.0 / 3.0 - 1e-12:
        raise InvalidChannel(
            f"antiunitary isotropic channel with gamma = {g} < 2/3 is not "
            "completely positive and has no mixed-unitary form"
        )
    v = channel.transpose_basis
    xv, yv, zv = (v @ p @ v.conj().T for p in (PAULI_X, PAULI_Y, PAULI_Z))
    lam = 1.0 - g
    probs = np.array(
        [(1.0 + lam) / 4.0, (1.0 + lam) / 4.0, max(1.0 - 3.0 * lam, 0.0) / 4.0, (1.0 + lam) / 4.0]
    )
    probs /= probs.sum()
    ops = (u, u @ xv, u @ yv, u @ zv)
    return MixedUnitaryChannel(probs, ops)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_mixed_unitary(
    rng: np.random.Generator, d: int, n_unitaries: int = 3
) -> MixedUnitaryChannel:
    probs = rng.dirichlet(np.ones(n_unitaries))
    ops = tuple(haar_unitary(rng, d) for _ in range(n_unitaries))
    return MixedUnitaryChannel(probs, ops)


def random_isotropic(
    rng: np.random.Generator,
    d: int,
    antiunitary: bool = False,
    gamma: float | None = None,
) -> IsotropicChannel:
    g = float(rng.uniform(0.0, 1.0)) if gamma is None else gamma
    return IsotropicChannel(
        gamma=g,
        w_unitary=haar_unitary(rng, d),
        antiunitary=antiunitary,
        transpose_basis=haar_unitary(rng, d) if antiunitary else None,
    )


def random_kraus_channel(
    rng: np.random.Generator, d: int, n_ops: int = 2
) -> KrausChannel:
    big = haar_unitary(rng, d * n_ops)
    iso = big[:, :d]
    ops = tuple(iso[i * d : (i + 1) * d, :] for i in range(n_ops))
    return KrausChannel(ops)


def random_semiclassical(
    rng: np.random.Generator, d: int, n_inner_ops: int = 2
) -> SemiclassicalChannel:
    return SemiclassicalChannel(
        basis=haar_unitary(rng, d), inner=random_kraus_channel(rng, d, n_inner_ops)
    )


# --- plain-text serialization ---------------------------------------------------

def channel_to_text(channel: QuantumChannel) -> str:
    return "\n".join(_channel_lines(channel)) + "\n"


def _channel_lines(channel: QuantumChannel) -> list[str]:
    d = channel.dim
    if isinstance(channel, KrausChannel):
        lines = [f"kraus {d} {len(channel.ops)}"]
        for k in channel.ops:
            lines.extend(_format_matrix_rows(k))
        return lines
    if isinstance(channel, MixedUnitaryChannel):
        lines = [f"mixed-unitary {d} {len(channel.unitaries)}"]
        lines.append(" ".join(f"{p:.17g}" for p in channel.probs))
        for u in channel.unitaries:
            lines.extend(_format_matrix_rows(u))
        return lines
    if isinstance(channel, IsotropicChannel):
        kind = "antiunitary" if channel.antiunitary else "unitary"
        lines = [f"isotropic {d} {channel.gamma:.17g} {kind}"]
        lines.extend(_format_matrix_rows(channel.w_unitary))
        if channel.antiunitary:
            lines.extend(_format_matrix_rows(channel.transpose_basis))
        return lines
    if isinstance(channel, SemiclassicalChannel):
        lines = [f"semiclassical {d}"]
        lines.extend(_format_matrix_rows(channel.basis))
        lines.extend(_channel_lines(channel.inner))
        return lines
    raise ParseError(f"cannot serialize channel {channel!r}")


def channel_from_text(text: str) -> QuantumChannel:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    channel, used = _parse_channel(lines, 0)
    if used != len(lines):
        raise ParseError(f"trailing data after channel definition (line {used})")
    return channel


def _parse_channel(lines: list[str], pos: int) -> tuple[QuantumChannel, int]:
    if pos >= len(lines):
        raise ParseError("unexpected end of channel file")
    head = lines[pos].split()
    tag = head[0]
    try:
        if tag == "kraus":
            d, n = int(head[1]), int(head[2])
            pos += 1
            ops = []
            for _ in range(n):
                ops.append(_parse_matrix_rows(lines[pos:], d, "kraus op"))
                pos += d
            return KrausChannel(tuple(ops)), pos
        if tag == "mixed-unitary":
            d, n = int(head[1]), int(head[2])
            probs = np.array([float(x) for x in lines[pos + 1].split()])
            pos += 2
            unitaries = []
            for _ in range(n):
                unitaries.append(_parse_matrix_rows(lines[pos:], d, "unitary"))
                pos += d
            return MixedUnitaryChannel(probs, tuple(unitaries)), pos
        if tag == "isotropic":
            d, gamma, kind = int(head[1]), float(head[2]), head[3]
            if kind not in ("unitary", "antiunitary"):
                raise ParseError(f"unknown isotropic kind {kind!r}")
            pos += 1
            u = _parse_matrix_rows(lines[pos:], d, "W")
            pos += d
            basis = None
            if kind == "antiunitary":
                basis = _parse_matrix_rows(lines[pos:], d, "transpose basis")
                pos += d
            return (
                IsotropicChannel(gamma, u, kind == "antiunitary", basis),
                pos,
            )
        if tag == "semiclassical":
            d = int(head[1])
            pos += 1
            basis = _parse_matrix_rows(lines[pos:], d, "preferred basis")
            pos += d
            inner, pos = _parse_channel(lines, pos)
            return SemiclassicalChannel(basis, inner), pos
    except (IndexError, ValueError) as exc:
        raise ParseError(f"malformed channel near line {pos}: {exc}") from exc
    raise ParseError(f"unknown channel tag {tag!r}")


def save_channel(channel: QuantumChannel, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(channel_to_text(channel))


def load_channel(path) -> QuantumChannel:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file: {exc}") from exc
    return channel_from_text(text)
