"""Gate-level circuit IR: construction, Barenco lowering, resource counts.

Conventions fixed here and relied on everywhere else:

- Qubit 0 is the most significant index bit of the statevector (big-endian).
- ``RZ(θ) = diag(e^{-iθ/2}, e^{+iθ/2})``, ``RX(θ) = exp(-iθX/2)``,
  ``RZZ(θ) = exp(-iθ/2·Z⊗Z)``.
- Angles are symbolic: constants, affine functions of a trainable parameter
  slot, or ``scale·arccos(x_var) + offset`` of an input variable.
- ``unitary_of`` is a dense-matrix oracle kept independent of the strided
  statevector simulator so the two can cross-check each other.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from enum import Enum

import numpy as np

from .errors import DomainError, IndexCollisionError, LoweringError, SizeError

# ---------------------------------------------------------------------------
# angle expressions


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Param:
    """Affine function ``scale·θ[index] + offset`` of one parameter slot."""

    index: int
    scale: float = 1.0
    offset: float = 0.0


@dataclass(frozen=True)
class InputArccos:
    """``scale·arccos(x[var]) + offset``; defaults encode S(x)=R_x(-2 arccos x)."""

    var: int
    scale: float = -2.0
    offset: float = 0.0


AngleExpr = Const | Param | InputArccos


def eval_angle(expr: AngleExpr, params, inputs) -> float:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Param):
        return expr.scale * float(params[expr.index]) + expr.offset
    x = float(inputs[expr.var])
    if not -1.0 <= x <= 1.0:
        raise DomainError(f"arccos input {x} outside [-1, 1]")
    return expr.scale * math.acos(x) + expr.offset


def scale_angle(expr: AngleExpr, factor: float) -> AngleExpr:
    if isinstance(expr, Const):
        return Const(expr.value * factor)
    if isinstance(expr, Param):
        return Param(expr.index, expr.scale * factor, expr.offset * factor)
    return InputArccos(expr.var, expr.scale * factor, expr.offset * factor)


# ---------------------------------------------------------------------------
# gates

_ANGLE_KINDS = frozenset({"rx", "rz", "rzz"})
_KINDS = frozenset({"h", "x", "rx", "rz", "cnot", "rzz", "prepare", "controlled"})


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: AngleExpr | None = None
    controls: tuple[tuple[int, int], ...] = ()
    inner: "Gate | None" = None
    amplitudes: tuple[float, ...] = ()


def h(q: int) -> Gate:
    return Gate("h", (q,))


def x(q: int) -> Gate:
    return Gate("x", (q,))


def rx(q: int, angle: AngleExpr) -> Gate:
    return Gate("rx", (q,), angle=angle)


def rz(q: int, angle: AngleExpr) -> Gate:
    return Gate("rz", (q,), angle=angle)


def cnot(control: int, target: int) -> Gate:
    return Gate("cnot", (control, target))


def rzz(qa: int, qb: int, angle: AngleExpr) -> Gate:
    return Gate("rzz", (qa, qb), angle=angle)


def prepare_amplitudes(qubits: tuple[int, ...], amplitudes) -> Gate:
    amps = tuple(float(a) for a in amplitudes)
    if len(amps) != 2 ** len(qubits):
        raise ValueError("amplitude vector length must be 2^k for k target qubits")
    if any(a < 0 for a in amps):
        raise ValueError("PrepareAmplitudes requires nonnegative real amplitudes")
    if abs(math.fsum(a * a for a in amps) - 1.0) > 1e-12:
        raise ValueError("PrepareAmplitudes requires a unit 2-norm vector")
    return Gate("prepare", tuple(qubits), amplitudes=amps)


def controlled(inner: Gate, controls) -> Gate:
    """Wrap ``inner`` with control qubits; nested wrappers are flattened."""
    controls = tuple((int(q), int(p)) for q, p in controls)
    for _, pol in controls:
        if pol not in (0, 1):
            raise ValueError("control polarity must be 0 or 1")
    if inner.kind == "controlled":
        controls = inner.controls + controls
        inner = inner.inner
    if not controls:
        return inner
    seen = set()
    for q, _ in controls:
        if q in seen or q in inner.qubits:
            raise IndexCollisionError(f"control qubit {q} collides with gate qubits")
        seen.add(q)
    return Gate("controlled", inner.qubits, controls=controls, inner=inner)


def gate_qubits(g: Gate) -> tuple[int, ...]:
    """All qubits a gate touches, controls included."""
    if g.kind == "controlled":
        return tuple(q for q, _ in g.controls) + gate_qubits(g.inner)
    return g.qubits


# ---------------------------------------------------------------------------
# circuits


@dataclass(frozen=True)
class Circuit:
    width: int
    gates: tuple[Gate, ...]
    n_params: int = 0
    n_inputs: int = 0

    def __post_init__(self):
        for g in self.gates:
            qs = gate_qubits(g)
            if len(set(qs)) != len(qs):
                raise IndexCollisionError(f"duplicate qubit in gate {g.kind}")
            for q in qs:
                if not 0 <= q < self.width:
                    raise ValueError(f"qubit {q} outside width {self.width}")
            self._check_angles(g)

    def _check_angles(self, g: Gate):
        if g.kind == "controlled":
            self._check_angles(g.inner)
            return
        if isinstance(g.angle, Param) and not 0 <= g.angle.index < self.n_params:
            raise ValueError(f"parameter slot {g.angle.index} >= n_params {self.n_params}")
        if isinstance(g.angle, InputArccos) and not 0 <= g.angle.var < self.n_inputs:
            raise ValueError(f"input variable {g.angle.var} >= n_inputs {self.n_inputs}")


class NativeGateSet(Enum):
    DOUBLE_CONTROLLED = "double-controlled"
    CNOT_SINGLE_QUBIT = "cnot-single-qubit"


@dataclass(frozen=True)
class ResourceReport:
    width: int
    depth: int
    n_single_qubit: int
    n_cnot: int
    n_multi_controlled: int
    n_params: int

    def to_json_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# operations


def build_qsp_chain(L: int) -> Circuit:
    """Single-qubit chain R_z(θ_L)·∏_{j<L}[R_x(-2 arccos x)·R_z(θ_j)].

    Uses parameter slots 0..L and input 0; 2L+1 gates in application order
    R_z(θ_0), R_x, R_z(θ_1), ..., R_x, R_z(θ_L).
    """
    if L < 0:
        raise ValueError("degree L must be >= 0")
    gates = [rz(0, Param(0))]
    for j in range(1, L + 1):
        gates.append(rx(0, InputArccos(0)))
        gates.append(rz(0, Param(j)))
    return Circuit(1, tuple(gates), n_params=L + 1, n_inputs=1)


def bind(circuit: Circuit, angles) -> Circuit:
    """``circuit`` with every ``Param`` angle replaced by its ``Const`` value.

    ``Const`` and ``InputArccos`` angles are kept; the result has no slots.
    """
    if len(angles) != circuit.n_params:
        raise SizeError(f"bind expects {circuit.n_params} angles, got {len(angles)}")

    def bound(g: Gate) -> Gate:
        if g.kind == "controlled":
            return replace(g, inner=bound(g.inner))
        if isinstance(g.angle, Param):
            return replace(g, angle=Const(eval_angle(g.angle, angles, ())))
        return g

    return Circuit(circuit.width, tuple(bound(g) for g in circuit.gates), 0, circuit.n_inputs)


def greedy_depth(gates) -> int:
    """Layer count under greedy qubit-overlap layering."""
    depth = 0
    current: set[int] = set()
    for g in gates:
        qs = set(gate_qubits(g))
        if current & qs:
            depth += 1
            current = qs
        else:
            current |= qs
            depth = max(depth, 1)
    return depth


def count_resources(circuit: Circuit, native: NativeGateSet) -> ResourceReport:
    """Exact per-kind gate counts plus greedy-layered depth."""
    n_single = n_cnot = n_multi = 0
    for g in circuit.gates:
        if g.kind in ("h", "x", "rx", "rz"):
            n_single += 1
        elif g.kind == "cnot":
            n_cnot += 1
        elif g.kind == "prepare":
            if len(g.qubits) == 1:
                n_single += 1
            else:
                n_multi += 1
        else:  # controlled, rzz
            if native is NativeGateSet.CNOT_SINGLE_QUBIT:
                raise LoweringError(
                    f"gate {g.kind} is not native to CNOT+single-qubit; lower first"
                )
            n_multi += 1
    return ResourceReport(
        width=circuit.width,
        depth=greedy_depth(circuit.gates),
        n_single_qubit=n_single,
        n_cnot=n_cnot,
        n_multi_controlled=n_multi,
        n_params=circuit.n_params,
    )


def lower_to_cnot_single(circuit: Circuit) -> Circuit:
    """Lower to single-qubit gates and CNOT via the Barenco patterns.

    Supports up to two controls on R_z/R_x, single-controlled X and RZZ, and
    plain RZZ.  Negative-polarity controls are realized by deferred
    X-conjugation, so a run of gates sharing the same negative control pays
    for only one X pair.  The output unitary equals the input's exactly.
    """
    out: list[Gate] = []
    negated: set[int] = set()

    def set_negation(q: int, want: bool):
        if (q in negated) != want:
            out.append(x(q))
            negated.symmetric_difference_update({q})

    for g in circuit.gates:
        if g.kind == "prepare":
            raise LoweringError("PrepareAmplitudes is a simulator primitive; not lowered")
        if g.kind == "controlled":
            if len(g.controls) > 2:
                raise LoweringError("lowering supports at most 2 control qubits")
            for q, pol in g.controls:
                set_negation(q, pol == 0)
            for q in g.inner.qubits:
                set_negation(q, False)
            out.extend(_expand_controlled([q for q, _ in g.controls], g.inner))
        else:
            for q in g.qubits:
                set_negation(q, False)
            out.extend(_expand_plain(g))
    for q in sorted(negated):
        out.append(x(q))
    return Circuit(circuit.width, tuple(out), circuit.n_params, circuit.n_inputs)


def _expand_plain(g: Gate) -> list[Gate]:
    if g.kind in ("h", "x", "rx", "rz", "cnot"):
        return [g]
    if g.kind == "rzz":
        a, b = g.qubits
        return [cnot(a, b), rz(b, g.angle), cnot(a, b)]
    raise LoweringError(f"cannot lower gate kind {g.kind!r}")


def _crz(c: int, t: int, angle: AngleExpr) -> list[Gate]:
    half = scale_angle(angle, 0.5)
    return [rz(t, half), cnot(c, t), rz(t, scale_angle(angle, -0.5)), cnot(c, t)]


def _crot(kind: str, c: int, t: int, angle: AngleExpr) -> list[Gate]:
    if kind == "rz":
        return _crz(c, t, angle)
    return [h(t)] + _crz(c, t, angle) + [h(t)]


def _expand_controlled(ctrls: list[int], inner: Gate) -> list[Gate]:
    if len(ctrls) == 1:
        c = ctrls[0]
        if inner.kind == "x":
            return [cnot(c, inner.qubits[0])]
        if inner.kind in ("rz", "rx"):
            return _crot(inner.kind, c, inner.qubits[0], inner.angle)
        if inner.kind == "rzz":
            a, b = inner.qubits
            return [cnot(a, b)] + _crz(c, b, inner.angle) + [cnot(a, b)]
        raise LoweringError(f"no lowering for controlled {inner.kind!r}")
    a, b = ctrls
    if inner.kind not in ("rz", "rx"):
        raise LoweringError(f"no lowering for double-controlled {inner.kind!r}")
    t = inner.qubits[0]
    half = scale_angle(inner.angle, 0.5)
    neg_half = scale_angle(inner.angle, -0.5)
    # Barenco Lemma 6.1 with V the half-angle rotation (V² = U); the final
    # controlled-V sits on the second control so the closing layer is free
    # of the first control qubit.
    return (
        _crot(inner.kind, a, t, half)
        + [cnot(a, b)]
        + _crot(inner.kind, b, t, neg_half)
        + [cnot(a, b)]
        + _crot(inner.kind, b, t, half)
    )


# ---------------------------------------------------------------------------
# dense-matrix oracle

_MAX_ORACLE_WIDTH = 10


def _scatter_bits(values: np.ndarray, positions: list[int]) -> np.ndarray:
    """Place bit i (msb-first) of each value at the given bit positions."""
    out = np.zeros_like(values)
    k = len(positions)
    for i, pos in enumerate(positions):
        out |= ((values >> (k - 1 - i)) & 1) << pos
    return out


def _householder(amps: tuple[float, ...]) -> np.ndarray:
    v = np.asarray(amps, dtype=float)
    e0 = np.zeros_like(v)
    e0[0] = 1.0
    u = e0 - v
    norm = np.linalg.norm(u)
    if norm < 1e-14:
        return np.eye(v.size)
    u /= norm
    return np.eye(v.size) - 2.0 * np.outer(u, u)


def _base_matrix(g: Gate, params, inputs) -> np.ndarray:
    if g.kind == "h":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    if g.kind == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if g.kind == "rx":
        t = eval_angle(g.angle, params, inputs)
        c, s = math.cos(t / 2.0), math.sin(t / 2.0)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if g.kind == "rz":
        t = eval_angle(g.angle, params, inputs)
        return np.array([[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]])
    if g.kind == "rzz":
        t = eval_angle(g.angle, params, inputs)
        lo, hi = np.exp(-0.5j * t), np.exp(0.5j * t)
        return np.diag([lo, hi, hi, lo])
    if g.kind == "prepare":
        return _householder(g.amplitudes).astype(complex)
    raise ValueError(f"no base matrix for {g.kind!r}")


def _embed(mat: np.ndarray, qubits, controls, width: int) -> np.ndarray:
    dim = 1 << width
    k = len(qubits)
    t_pos = [width - 1 - q for q in qubits]
    c_pos = [width - 1 - q for q, _ in controls]
    rest = [p for p in range(width) if p not in t_pos and p not in c_pos]
    ctrl_bits = 0
    for (q, pol), pos in zip(controls, c_pos):
        ctrl_bits |= pol << pos
    rest_idx = _scatter_bits(np.arange(1 << len(rest), dtype=np.int64), rest)
    base = _scatter_bits(np.arange(1 << k, dtype=np.int64), t_pos)
    full = np.eye(dim, dtype=complex)
    idx = base[:, None] | ctrl_bits | rest_idx[None, :]
    for a in range(1 << k):
        for b in range(1 << k):
            full[idx[a], idx[b]] = mat[a, b]
    return full


def _gate_matrix(g: Gate, params, inputs, width: int) -> np.ndarray:
    if g.kind == "controlled":
        return _embed(_base_matrix(g.inner, params, inputs), g.inner.qubits, g.controls, width)
    if g.kind == "cnot":
        xmat = np.array([[0, 1], [1, 0]], dtype=complex)
        return _embed(xmat, (g.qubits[1],), ((g.qubits[0], 1),), width)
    return _embed(_base_matrix(g, params, inputs), g.qubits, (), width)


def unitary_of(circuit: Circuit, params=(), inputs=()) -> np.ndarray:
    """Dense unitary of the circuit; product of embedded gate matrices.

    Test oracle only: intentionally built gate-by-gate from kron-style
    embeddings, independent of the strided simulator.
    """
    if circuit.width > _MAX_ORACLE_WIDTH:
        raise SizeError(f"unitary_of capped at width {_MAX_ORACLE_WIDTH}")
    u = np.eye(1 << circuit.width, dtype=complex)
    for g in circuit.gates:
        u = _gate_matrix(g, params, inputs, circuit.width) @ u
    err = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if err > 1e-12:
        raise ArithmeticError(f"unitarity violated: max deviation {err:.3e}")
    return u


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Max-modulus distance after aligning global phase on the largest entry."""
    flat = np.argmax(np.abs(u))
    ref_u = u.flat[flat]
    ref_v = v.flat[flat]
    if abs(ref_v) < 1e-14:
        return float(np.abs(u - v).max())
    phase = ref_u / ref_v
    phase /= abs(phase)
    return float(np.abs(u - phase * v).max())
