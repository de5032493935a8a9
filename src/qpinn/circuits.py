"""Gate-level circuit IR: construction, Barenco lowering, resource counts.

Conventions fixed here and relied on everywhere else:

- Qubit 0 is the most significant index bit of the statevector (big-endian).
- ``RZ(θ) = diag(e^{-iθ/2}, e^{+iθ/2})``, ``RX(θ) = exp(-iθX/2)``,
  ``RZZ(θ) = exp(-iθ/2·Z⊗Z)``.
- Angles are symbolic: constants, affine functions of a trainable parameter
  slot, or ``scale·arccos(x_var) + offset`` of an input variable.  A circuit
  is built once with its angles: the ``qsp`` builders lay their synthesized
  angles out as constants in one pass, and there is no separate step that
  binds a template's slots.
- A gate is one flat record ``Gate(kind, qubits, angle, controls,
  amplitudes)`` of one of seven kinds.  ``controls`` holds (qubit, polarity)
  pairs: the gate acts where every control qubit reads its polarity.
  ``controlled`` appends to them; no gate wraps another.
- ``unitary_of`` is a dense-matrix oracle kept independent of the strided
  statevector simulator so the two can cross-check each other.  It binds a
  paired stack of (parameters, inputs) rows and updates U's row blocks gate by
  gate, through index tables cached per ``(qubits, controls, width)``; that
  equals the dense matrix product bit for bit except under ``prepare``.  Each
  gate's base matrix is one array: a (B, 2^k, 2^k) stack written in one call
  from the rows' scalar angles when the angle reads the rows, else one matrix
  shared by every row (``_gate_matrices``).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from functools import lru_cache

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
_KINDS = frozenset({"h", "x", "rx", "rz", "cnot", "rzz", "prepare"})


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: AngleExpr | None = None
    controls: tuple[tuple[int, int], ...] = ()
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
    if not abs(math.fsum(a * a for a in amps) - 1.0) <= 1e-12:
        raise ValueError("PrepareAmplitudes requires a unit 2-norm vector")
    return Gate("prepare", tuple(qubits), amplitudes=amps)


def controlled(g: Gate, controls) -> Gate:
    """``g`` with ``controls``, (qubit, polarity) pairs, appended to its own:
    one flat gate of ``g``'s kind, or ``g`` itself when ``controls`` is empty."""
    controls = tuple((int(q), int(p)) for q, p in controls)
    for _, pol in controls:
        if pol not in (0, 1):
            raise ValueError("control polarity must be 0 or 1")
    if not controls:
        return g
    controls = g.controls + controls
    seen = set()
    for q, _ in controls:
        if q in seen or q in g.qubits:
            raise IndexCollisionError(f"control qubit {q} collides with gate qubits")
        seen.add(q)
    return Gate(g.kind, g.qubits, g.angle, controls, g.amplitudes)


def gate_qubits(g: Gate) -> tuple[int, ...]:
    """All qubits a gate touches, controls first."""
    return tuple(q for q, _ in g.controls) + g.qubits if g.controls else g.qubits


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
            if g.kind not in _KINDS or g.angle is None and g.kind in _ANGLE_KINDS:
                raise ValueError(f"gate kind {g.kind!r} is unknown or lacks its angle")
            qs = gate_qubits(g)
            if len(set(qs)) != len(qs):
                raise IndexCollisionError(f"duplicate qubit in gate {g.kind}")
            for q in qs:
                if not 0 <= q < self.width:
                    raise ValueError(f"qubit {q} outside width {self.width}")
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
        if g.controls or g.kind == "rzz" or g.kind == "prepare" and len(g.qubits) > 1:
            if native is NativeGateSet.CNOT_SINGLE_QUBIT:
                raise LoweringError(
                    f"gate {g.kind} on {len(gate_qubits(g))} qubits is not native to "
                    "CNOT+single-qubit; lower first"
                )
            n_multi += 1
        elif g.kind == "cnot":
            n_cnot += 1
        else:   # h, x, rx, rz, or a prepare on one qubit
            n_single += 1
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
        if len(g.controls) > 2:
            raise LoweringError("lowering supports at most 2 control qubits")
        for q, pol in g.controls:
            set_negation(q, pol == 0)
        for q in g.qubits:
            set_negation(q, False)
        out.extend(_expand(g))
    for q in sorted(negated):
        out.append(x(q))
    return Circuit(circuit.width, tuple(out), circuit.n_params, circuit.n_inputs)


def _crz(c: int, t: int, angle: AngleExpr) -> list[Gate]:
    half = scale_angle(angle, 0.5)
    return [rz(t, half), cnot(c, t), rz(t, scale_angle(angle, -0.5)), cnot(c, t)]


def _crot(kind: str, c: int, t: int, angle: AngleExpr) -> list[Gate]:
    if kind == "rz":
        return _crz(c, t, angle)
    return [h(t)] + _crz(c, t, angle) + [h(t)]


def _expand(g: Gate) -> list[Gate]:
    """A gate under at most two controls as CNOTs and single-qubit gates,
    its controls read at polarity 1."""
    ctrls = [q for q, _ in g.controls]
    if not ctrls:
        if g.kind == "rzz":
            a, b = g.qubits
            return [cnot(a, b), rz(b, g.angle), cnot(a, b)]
        return [g]
    if len(ctrls) == 1:
        c = ctrls[0]
        if g.kind == "x":
            return [cnot(c, g.qubits[0])]
        if g.kind in ("rz", "rx"):
            return _crot(g.kind, c, g.qubits[0], g.angle)
        if g.kind == "rzz":
            a, b = g.qubits
            return [cnot(a, b)] + _crz(c, b, g.angle) + [cnot(a, b)]
        raise LoweringError(f"no lowering for controlled {g.kind!r}")
    a, b = ctrls
    if g.kind not in ("rz", "rx"):
        raise LoweringError(f"no lowering for double-controlled {g.kind!r}")
    t = g.qubits[0]
    half = scale_angle(g.angle, 0.5)
    neg_half = scale_angle(g.angle, -0.5)
    # Barenco Lemma 6.1 with V the half-angle rotation (V² = U); the final
    # controlled-V sits on the second control so the closing layer is free
    # of the first control qubit.
    return (
        _crot(g.kind, a, t, half)
        + [cnot(a, b)]
        + _crot(g.kind, b, t, neg_half)
        + [cnot(a, b)]
        + _crot(g.kind, b, t, half)
    )


# ---------------------------------------------------------------------------
# dense-matrix oracle

_MAX_ORACLE_WIDTH = 10
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_H.flags.writeable = _X.flags.writeable = False


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


# exponents of the diagonal gates' phases, and where their matrices keep them
_PHASE_EXPONENTS = {"rz": np.array([-0.5j, 0.5j]), "rzz": np.array([-0.5j, 0.5j, 0.5j, -0.5j])}
_DIAGONAL = {n: np.eye(n, dtype=bool) for n in (2, 4)}
for _a in (*_PHASE_EXPONENTS.values(), *_DIAGONAL.values()):
    _a.flags.writeable = False


def _gate_matrices(g: Gate, p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The base matrix of a gate: one (2^k, 2^k) matrix, or a (B, 2^k, 2^k)
    stack when its angle reads the (B, ·) rows ``p`` and ``x``.  Each row's
    angle is bound by the scalar ``eval_angle`` (an ``rx`` also takes its
    ``math.cos`` and ``math.sin`` per row); the stack is then written by one
    array call, after one ``np.exp`` of the angles for ``rz`` and ``rzz``."""
    if g.kind == "h":
        return _H
    if g.kind in ("x", "cnot"):   # a cnot's matrix on its target
        return _X
    if g.kind == "prepare":
        return _householder(g.amplitudes).astype(complex)
    reads = isinstance(g.angle, (Param, InputArccos))
    t = [eval_angle(g.angle, pr, xr) for pr, xr in zip(p, x)] if reads else [g.angle.value]
    if g.kind == "rx":
        mats = np.array([[[c, -1j * s], [-1j * s, c]]
                         for c, s in [(math.cos(a / 2.0), math.sin(a / 2.0)) for a in t]])
    else:
        phases = np.exp(np.multiply.outer(t, _PHASE_EXPONENTS[g.kind]))
        mats = np.where(_DIAGONAL[phases.shape[1]], phases[:, None, :], 0)
    return mats if reads else mats[0]


@lru_cache(maxsize=None)
def _embed_index(qubits: tuple, controls: tuple, width: int) -> np.ndarray:
    """Read-only (2^k, 2^rest) table of the basis indices a k-qubit gate
    acts on: row a holds the indices whose target bits are pattern a
    (msb-first), whose controls are at their polarities, and whose other
    ``rest`` bits run over every value."""
    t_pos = [width - 1 - q for q in qubits]
    c_pos = [width - 1 - q for q, _ in controls]
    rest = [p for p in range(width) if p not in t_pos and p not in c_pos]
    ctrl_bits = 0
    for (q, pol), pos in zip(controls, c_pos):
        ctrl_bits |= pol << pos
    rest_idx = _scatter_bits(np.arange(1 << len(rest), dtype=np.int64), rest)
    base = _scatter_bits(np.arange(1 << len(qubits), dtype=np.int64), t_pos)
    idx = base[:, None] | ctrl_bits | rest_idx[None, :]
    idx.flags.writeable = False
    return idx


def _gate_block(g: Gate) -> tuple[tuple, tuple]:
    """(qubits a gate's matrix acts on, controls); a cnot is an x under one more control."""
    if g.kind == "cnot":
        return g.qubits[1:], ((g.qubits[0], 1),) + g.controls
    return g.qubits, g.controls


def _bound_rows(circuit: Circuit, params, inputs) -> tuple[np.ndarray, np.ndarray]:
    """(B, n_params) and (B, n_inputs) stacks from 1-D rows or stacks, a
    single row broadcast to the other's B (0 rows too)."""
    rows = [np.asarray(v, dtype=float) for v in (params, inputs)]
    rows = [r[None] if r.ndim == 1 else r for r in rows]
    for r, n in zip(rows, (circuit.n_params, circuit.n_inputs)):
        if r.ndim != 2 or r.shape[1] != n:
            raise SizeError(f"unitary_of binds rows of {n} values, got shape {r.shape}")
    b = max(len(r) for r in rows) if all(len(r) for r in rows) else 0
    if any(len(r) not in (1, b) for r in rows):
        raise SizeError(f"unitary_of cannot pair {len(rows[0])} and {len(rows[1])} rows")
    return tuple(np.broadcast_to(r, (b, r.shape[1])) for r in rows)


def unitary_of(circuit: Circuit, params=(), inputs=()) -> np.ndarray:
    """Dense unitary: (2^w, 2^w) for 1-D ``params`` and ``inputs``, and
    (B, 2^w, 2^w) for stacks, whose row r binds parameter row r with input
    row r (a single row is broadcast; B may be 0).  Test oracle only,
    independent of the strided simulator.  Each gate multiplies U's 2^k row
    blocks (``_embed_index``) by its base matrix, one array per gate
    (``_gate_matrices``): a (B, 2^k, 2^k) stack when its angle reads the
    rows, else one matrix for every row.  Row r of a stack equals the
    one-row call bit for bit."""
    if circuit.width > _MAX_ORACLE_WIDTH:
        raise SizeError(f"unitary_of capped at width {_MAX_ORACLE_WIDTH}")
    p, x = _bound_rows(circuit, params, inputs)
    u = np.tile(np.eye(1 << circuit.width, dtype=complex), (len(p), 1, 1))
    if not len(u):
        return u
    for g in circuit.gates:
        qubits, controls = _gate_block(g)
        idx = _embed_index(qubits, controls, circuit.width).ravel()
        mat = _gate_matrices(g, p, x)
        rows = u.take(idx, axis=1)
        u[:, idx] = (mat @ rows.reshape(len(u), 1 << len(qubits), -1)).reshape(rows.shape)
    err = np.abs(np.conj(u.swapaxes(1, 2)) @ u - np.eye(u.shape[1])).max()
    if not err <= 1e-12:   # NaN fails too
        raise ArithmeticError(f"unitarity violated: max deviation {err:.3e}")
    return u if np.ndim(params) == 2 or np.ndim(inputs) == 2 else u[0]


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
