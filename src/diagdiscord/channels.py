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
    NotDensityMatrix,
    NotPositiveSemidefinite,
    OutOfRange,
    ParseError,
)
from .linalg import hermitian_eig, trace_norm
from .states import (
    BipartiteState,
    _check_distribution,
    _format_matrix_rows,
    _parse_matrix_rows,
    _read_text,
    _write_text,
    ptrace_b,
    sample_nondegenerate,
    superop_a,
)
from .discord import dephase_a, dephasing_superop

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
    if not np.isfinite(u).all():
        raise InvalidChannel(f"{what} has non-finite entries")
    dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if dev > UNITARITY_TOL:
        raise InvalidChannel(f"{what} not unitary: deviation {dev:.3e}")
    return u


def _kraus_superop(ops, weights) -> np.ndarray:
    """sum_k w_k K_k (x) conj(K_k), the superoperator of rho -> sum_k w_k K_k rho K_k^dag."""
    return np.einsum("k,kac,kbd->abcd", weights, ops, np.conj(ops)).reshape(len(ops[0]) ** 2, -1)


def _transpose_superop(basis: np.ndarray) -> np.ndarray:
    """The transpose in basis B: T[(a, a'), (c, c')] = M[a, c'] conj(M)[a', c], M = B B^T."""
    m = basis @ basis.T
    return np.einsum("ad,bc->abcd", m, m.conj()).reshape(len(m) ** 2, -1)


def partial_transpose_a(rho: np.ndarray, d_a: int, d_b: int, basis: np.ndarray) -> np.ndarray:
    """Transpose A in the basis B: (B B^T (x) I) rho^{T_A} (B B^T (x) I)^dag."""
    return superop_a(_transpose_superop(basis), rho, d_a, d_b)


class QuantumChannel:
    """Common surface for the channel classes below.

    Each class builds its channel once, at construction, as the d^2 x d^2
    superoperator ``superop`` on A's index pair (a, a') (see
    ``states.superop_a``); ``lift_a`` applies it to A of an AB matrix, and
    ``apply`` is that lift with a trivial B. Both, and ``apply_local_a``,
    also take a stack (..., d, d) and act on every row.
    """

    #: the class's header word in the channel text format
    TAG: str
    superop: np.ndarray

    @property
    def dim(self) -> int:
        return math.isqrt(self.superop.shape[0])

    def lift_a(self, rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
        """(channel (x) identity)(rho) for a (d_a*d_b) x (d_a*d_b) matrix or a stack of them."""
        return superop_a(self.superop, rho, d_a, d_b)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return self.lift_a(rho, self.dim, 1)

    def apply_local_a(self, state: BipartiteState) -> BipartiteState:
        """Act with (channel (x) identity) on a bipartite state."""
        out = apply_local_a_raw(self, state.rho, state.dim_a, state.dim_b)
        return BipartiteState(
            (out + out.conj().swapaxes(-1, -2)) / 2.0, state.dim_a, state.dim_b
        )

    def tag(self) -> str:
        return self.TAG


@dataclass(frozen=True)
class KrausChannel(QuantumChannel):
    TAG = "kraus"
    ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.ops)
        if not ops:
            raise InvalidChannel("need at least one Kraus operator")
        d = ops[0].shape[0]
        for i, k in enumerate(ops):
            if k.shape != (d, d):
                raise DimensionMismatch("Kraus operators have mixed shapes")
            if not np.isfinite(k).all():
                raise InvalidChannel(f"Kraus operator K_{i} has non-finite entries")
        total = sum(k.conj().T @ k for k in ops)
        dev = np.max(np.abs(total - np.eye(d)))
        if dev > COMPLETENESS_TOL:
            raise InvalidChannel(f"sum K^dag K - I deviates by {dev:.3e}")
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "superop", _kraus_superop(ops, np.ones(len(ops))))

    def kraus_ops(self) -> tuple[np.ndarray, ...]:
        return self.ops


@dataclass(frozen=True)
class MixedUnitaryChannel(QuantumChannel):
    TAG = "mixed-unitary"
    probs: np.ndarray
    unitaries: tuple[np.ndarray, ...]

    def __post_init__(self):
        probs = _check_distribution(self.probs)
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
        object.__setattr__(self, "superop", _kraus_superop(unitaries, probs))

    def kraus_ops(self) -> tuple[np.ndarray, ...]:
        return tuple(
            math.sqrt(p) * u for p, u in zip(self.probs, self.unitaries) if p > 0
        )


@dataclass(frozen=True)
class IsotropicChannel(QuantumChannel):
    """(1 - gamma) W(rho) + gamma I/d, W unitary or antiunitary.

    The antiunitary core acts as rho -> U rho^T U^dag with the transpose
    taken in ``transpose_basis``. That map is positive, but completely
    positive only for gamma >= d/(d+1), so below that its lift to AB may
    leave the state cone. The superoperator is (1 - gamma) (W (x) conj(W)) T
    + gamma vec(I) vec(I)^T / d, T the transpose (antiunitary W) or identity.
    """

    TAG = "isotropic"
    gamma: float
    w_unitary: np.ndarray
    antiunitary: bool = False
    transpose_basis: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise OutOfRange(f"gamma = {self.gamma} outside [0, 1]")
        u = _check_unitary(self.w_unitary, "W")
        object.__setattr__(self, "w_unitary", u)
        core = np.kron(u, u.conj())
        if self.antiunitary:
            basis = (
                np.eye(u.shape[0], dtype=complex)
                if self.transpose_basis is None
                else _check_unitary(self.transpose_basis, "transpose basis")
            )
            if basis.shape != u.shape:
                raise DimensionMismatch("transpose basis dimension mismatch")
            object.__setattr__(self, "transpose_basis", basis)
            core = core @ _transpose_superop(basis)
        else:
            object.__setattr__(self, "transpose_basis", None)
        depolarize = np.outer(np.eye(len(u)), np.eye(len(u))) / len(u)
        object.__setattr__(self, "superop", (1.0 - self.gamma) * core + self.gamma * depolarize)

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


@dataclass(frozen=True)
class SemiclassicalChannel(QuantumChannel):
    """Arbitrary inner channel followed by complete dephasing in a fixed basis: D(basis) S_inner."""

    TAG = "semiclassical"
    basis: np.ndarray
    inner: QuantumChannel

    def __post_init__(self):
        basis = _check_unitary(self.basis, "preferred basis")
        if basis.shape[0] != self.inner.dim:
            raise DimensionMismatch("preferred basis dimension != inner channel")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "superop", dephasing_superop(basis) @ self.inner.superop)


def apply_local_a_raw(
    channel: QuantumChannel, rho: np.ndarray, d_a: int, d_b: int
) -> np.ndarray:
    """(channel (x) identity)(rho) on a raw matrix, without state validation."""
    return channel.lift_a(rho, d_a, d_b)


# --- commutation predicates ---------------------------------------------------

def qubit_mu_commuting_condition(channel: QuantumChannel, basis: np.ndarray) -> float:
    """Largest violation of the qubit commuting condition for one basis.

    Diagonalizes E(|psi><psi|) to get the common output eigenbasis
    {|eta_+>, |eta_->} and returns max_l |<eta_l|E(|psi><psi_bar|)|eta_l>|,
    E applied through its superoperator (for a mixed-unitary channel
    E(|psi><psi_bar|) = sum_mu p_mu U_mu|psi><psi_bar|U_mu^dag, Lemma 1).
    It is zero (to round-off) exactly when the channel commutes with
    dephasing in this input basis.
    """
    if channel.dim != 2:
        raise DimensionMismatch("the commuting condition test is for qubits")
    basis = np.asarray(basis, dtype=complex)
    if basis.shape != (2, 2):
        raise DimensionMismatch("basis must be a 2x2 column matrix")
    psi, psi_bar = basis[:, 0], basis[:, 1]
    out = channel.apply(np.outer(psi, psi.conj()))
    a = channel.apply(np.outer(psi, psi_bar.conj()))
    dec = hermitian_eig(out)
    if dec.degenerate:
        # maximally mixed output: every basis is a common eigenbasis, so the
        # violation over all admissible choices is the operator norm of
        # a = E(|psi><psi_bar|) (max_eta |<eta|a|eta>| vanishes iff a = 0)
        if np.max(np.abs(out - np.eye(2) / 2.0)) <= 1e-10:
            return float(np.linalg.norm(a, 2))
        raise DegenerateOutput(
            f"E(|psi><psi|) is degenerate (gap {dec.min_gap:.3e}); "
            "common eigenbasis is ill-defined"
        )
    eta = dec.eigenvectors
    return float(np.max(np.abs(np.einsum("il,ij,jl->l", eta.conj(), a, eta))))


@dataclass(frozen=True)
class ChannelReport:
    """Outcome of a randomized channel-condition scan."""

    max_deviation: float
    witness: BipartiteState | None = field(default=None, repr=False)
    trials: int = 0


def _dephase_in_marginal_basis(rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    dec = hermitian_eig(ptrace_b(rho, d_a, d_b))
    return dephase_a(rho, d_a, d_b, dec.eigenvectors)


def _scan_inputs(channel: QuantumChannel, trials: int, rng, d_b: int):
    """The trials' random states as one stack, and each row's classical-quantum image.

    The states are drawn by one ``sample_nondegenerate`` stack, so the
    generator feeds them as it would feed ``trials`` calls one at a time.
    """
    if trials < 1:
        raise OutOfRange("trials must be >= 1")
    d_a = channel.dim
    states, _ = sample_nondegenerate(rng, d_a, d_b, size=trials)
    cq = dephase_a(states.rho, d_a, d_b, states.marginal_eig.eigenvectors)
    return states, cq


def _report(deviations: np.ndarray, witness) -> ChannelReport:
    """Report of a scan: the first largest deviation, and past COMMUTE_TOL ``witness(row)``."""
    k = int(np.argmax(deviations))
    max_dev = float(deviations[k])
    return ChannelReport(
        max_deviation=max_dev,
        witness=witness(k) if max_dev > COMMUTE_TOL else None,
        trials=len(deviations),
    )


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
    The trials run as one stack; the witness is the first state with the
    largest deviation.
    """
    states, cq = _scan_inputs(channel, trials, rng, d_b)
    d_a = channel.dim
    out = apply_local_a_raw(channel, states.rho, d_a, d_b)
    lhs = _dephase_in_marginal_basis(out, d_a, d_b)
    rhs = apply_local_a_raw(channel, cq, d_a, d_b)
    return _report(
        trace_norm(lhs - rhs), lambda k: BipartiteState(states.rho[k], d_a, d_b)
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
    from its own dephased image in trace norm. The trials run as one stack;
    the witness is the first classical-quantum input with the largest
    deviation.
    """
    _, cq = _scan_inputs(channel, trials, rng, d_b)
    d_a = channel.dim
    out = apply_local_a_raw(channel, cq, d_a, d_b)
    return _report(
        trace_norm(_dephase_in_marginal_basis(out, d_a, d_b) - out),
        lambda k: BipartiteState((cq[k] + cq[k].conj().T) / 2.0, d_a, d_b),
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
        lines = [f"{KrausChannel.TAG} {d} {len(channel.ops)}"]
        for k in channel.ops:
            lines.extend(_format_matrix_rows(k))
        return lines
    if isinstance(channel, MixedUnitaryChannel):
        lines = [f"{MixedUnitaryChannel.TAG} {d} {len(channel.unitaries)}"]
        lines.append(" ".join(f"{p:.17g}" for p in channel.probs))
        for u in channel.unitaries:
            lines.extend(_format_matrix_rows(u))
        return lines
    if isinstance(channel, IsotropicChannel):
        kind = "antiunitary" if channel.antiunitary else "unitary"
        lines = [f"{IsotropicChannel.TAG} {d} {channel.gamma:.17g} {kind}"]
        lines.extend(_format_matrix_rows(channel.w_unitary))
        if channel.antiunitary:
            lines.extend(_format_matrix_rows(channel.transpose_basis))
        return lines
    if isinstance(channel, SemiclassicalChannel):
        lines = [f"{SemiclassicalChannel.TAG} {d}"]
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
        if tag == KrausChannel.TAG:
            d, n = int(head[1]), int(head[2])
            pos += 1
            ops = []
            for _ in range(n):
                ops.append(_parse_matrix_rows(lines[pos:], d, "kraus op"))
                pos += d
            return KrausChannel(tuple(ops)), pos
        if tag == MixedUnitaryChannel.TAG:
            d, n = int(head[1]), int(head[2])
            probs = np.array([float(x) for x in lines[pos + 1].split()])
            pos += 2
            unitaries = []
            for _ in range(n):
                unitaries.append(_parse_matrix_rows(lines[pos:], d, "unitary"))
                pos += d
            return MixedUnitaryChannel(probs, tuple(unitaries)), pos
        if tag == IsotropicChannel.TAG:
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
        if tag == SemiclassicalChannel.TAG:
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
    _write_text(path, channel_to_text(channel))


def load_channel(path) -> QuantumChannel:
    return channel_from_text(_read_text(path))
