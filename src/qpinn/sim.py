"""Dense statevector execution on strided views of the state.

Amplitudes live in arrays of shape ``(Bp, N, 2^width)``: ``Bp`` batches
parameter vectors, ``N`` batches input points, and both default to 1.
Qubit 0 is the most significant index bit, so the Pauli-Z expectation on
qubit 0 splits the amplitude array in half.  ``simulate_amps`` returns
that array, or a ``(v, d1, d2)`` tuple of them in a dual run; ``run``
returns the same form for its one point, of shape ``(2^width,)``, and
``z0_from_amps`` and ``expect_z0`` read either.

A gate reads and writes the state through basic-index views, never
through gathered copies.  Each channel is reshaped, without a copy, to
``(Bp, N, …)`` with one axis of length 2 for every control and target
qubit and one merged axis for every run of other qubits between them;
integer indices on the control axes (their polarity) and the target axes
(a bit pattern) then give a view of the amplitudes the gate acts on.  For
``rx`` on qubit 1 of 4 under a control on qubit 3, the shape is
``(Bp, N, 2, 2, 2, 2)`` and the two target rows are ``[..., :, 0, :, 1]``
and ``[..., :, 1, :, 1]``; with no control, qubits 2 and 3 merge into one
axis of length 4, so the innermost stride stays long.  The shape and the
keys are cached per (width, controls, targets) (``_layout``).  A
``prepare`` instead takes one view that fixes only the controls, with its
target axes moved to the front, and mixes the 2^k target patterns in one
stacked copy and one write.  Angle
channels gain trailing unit axes so that they broadcast against a view.
Every product and sum is the one a gathered row would take, in the same
order, so amplitudes do not depend on the layout.

A run builds each gate constant once, in one memo (``_Memo``): the views of
each (controls, targets) layout, until the state is broadcast, and each
rotation's entry channels per (kind, angle-expression object, view ndim).
The key is the object's ``id``, never its value, because equal expressions
such as ``Const(0.0)`` and ``Const(-0.0)`` have entries that differ in the
sign of zero.  The TD and LCU chains share one ``InputArccos`` object per
input variable, so arccos and its domain check run once per variable and
view rank, not once per ``rx`` gate.  A reused entry is the array the first
gate built, so the amplitudes are those of a run without the memo.

The state starts as one ``(1, 1, 2^width)`` row and is copied to every
(parameter row, point) just before the first gate whose angle reads one
(``_reads_rows``), or at the end.  No gate mixes rows, so each amplitude
takes the products and sums it takes in a full batch, in the same order:
the result is byte-identical, and a constant prefix (the TD and LCU
``prepare`` and |+⟩ layers) runs once, not once per row.

The state, the angles and the gate entries are tuples of channel arrays:
``(v,)`` in a plain run and ``(v, d1, d2)`` in a dual run, where d1 and d2
are second-order forward-mode derivatives along one seeded direction.  A
dual parameter or input argument is likewise a ``(v, d1, d2)`` tuple of
arrays of one shape.  The gates are written once on the ``duals.c_*``
helpers.  An angle or entry that depends on no dual argument stays a
1-tuple and scales every state channel, so a dual run builds no zero
derivative channels for it.  Channel 0 performs the same arithmetic, in
the same order, as a plain run.

The channels stay separate arrays rather than one stacked
``(C, Bp, N, 2^width)`` array: numpy picks a different complex-multiply
loop for the larger array, and channel 0 then differs from a plain run in
the last bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from . import circuits as cir
from .duals import c_lift, c_mul, t_arccos, t_cos, t_expj, t_sin
from .errors import DomainError, SizeError

_WIDTH_CAP = 24

_SQRT2_INV = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class ShotEstimate:
    mean: float
    n_shots: int
    std_error: float


# ---------------------------------------------------------------------------
# views of the state (cached per gate structure)


@lru_cache(maxsize=None)
def _layout(width: int, controls: tuple, targets: tuple) -> tuple[tuple, tuple, tuple]:
    """(shape, keys, block) of a gate's views of a ``(..., 2^width)`` channel.

    Reshaped to ``shape``, the channel has an axis of length 2 for each
    control and target qubit and one merged axis for each run of other
    qubits between them, so the reshape copies nothing and the innermost
    run stays one stride.  ``keys[p]`` is a basic index that fixes every
    control at its polarity and the targets at bit pattern p (the first
    target is the most significant bit) and keeps the other axes whole.
    ``block`` is (key, axes): a basic index that fixes the controls alone,
    and the negative positions of the target axes in the view it gives,
    first target first.
    """
    fixed = {q for q, _ in controls} | set(targets)
    shape, axes = [], []   # per axis: its qubit, or None for a run of others
    for q in range(width):
        if q not in fixed and axes and axes[-1] is None:
            shape[-1] *= 2
        else:
            shape.append(2)
            axes.append(q if q in fixed else None)
    k = len(targets)
    keys = []
    for p in range(1 << k):
        bits = dict(controls)
        bits.update((q, (p >> (k - 1 - i)) & 1) for i, q in enumerate(targets))
        keys.append((Ellipsis,) + tuple(slice(None) if a is None else bits[a] for a in axes))
    ctl = dict(controls)
    kept = [a for a in axes if a not in ctl]
    block = ((Ellipsis,) + tuple(ctl.get(a, slice(None)) for a in axes),
             tuple(kept.index(q) - len(kept) for q in targets))
    return tuple(shape), tuple(keys), block


def _views(state, width: int, controls: tuple, targets: tuple) -> list:
    """One view of the state per target-bit pattern, each a tuple of
    channel views (``_layout``): writing to a view writes to the state."""
    shape, keys, _ = _layout(width, controls, targets)
    chans = [c.reshape(c.shape[:-1] + shape) for c in state]
    return [tuple(c[k] for c in chans) for k in keys]


# ---------------------------------------------------------------------------
# gate constants (built once per run)


class _Memo:
    """One run's gate constants (module docstring): ``entries`` per (kind,
    ``id`` of the angle expression, view ndim), and ``views`` of the current
    state per (controls, targets).  The circuit keeps every expression alive
    for the run, so no id is reused."""

    __slots__ = ("entries", "views")

    def __init__(self):
        self.entries, self.views = {}, {}


def _expj(a):
    return np.exp(1j * a)


def _entries(kind: str, expr, params, inputs, ndim: int) -> tuple:
    """A rotation's entry channels, each broadcastable against a (Bp, N, …)
    view of ``ndim`` axes: (cos, −i·sin) of the half angle for ``rx``, and
    the phases (e^{−iθ/2}, e^{+iθ/2}) for ``rz`` and ``rzz``."""
    if isinstance(expr, cir.Const):
        theta = (expr.value,)
    else:
        if isinstance(expr, cir.Param):
            base = tuple(c[:, expr.index].reshape((-1,) + (1,) * (ndim - 1)) for c in params)
        else:  # InputArccos
            xt = tuple(c[:, expr.var].reshape((1, -1) + (1,) * (ndim - 2)) for c in inputs)
            if len(xt) == 1 and not np.all(np.abs(xt[0]) <= 1.0):
                raise DomainError("arccos input outside [-1, 1]")
            base = c_lift(xt, np.arccos, t_arccos)
        scaled = c_mul(expr.scale, base)
        theta = (scaled[0] + expr.offset,) + scaled[1:]
    if kind == "rx":
        half = c_mul(0.5, theta)
        return c_lift(half, np.cos, t_cos), c_mul(-1j, c_lift(half, np.sin, t_sin))
    return tuple(c_lift(c_mul(sign, theta), _expj, t_expj) for sign in (-0.5, 0.5))


# ---------------------------------------------------------------------------
# gate application


def _apply_gate(g: cir.Gate, state, params, inputs, width: int, memo: _Memo):
    controls = g.controls
    if g.kind == "cnot":
        g, controls = cir.x(g.qubits[1]), controls + ((g.qubits[0], 1),)
    if g.kind == "prepare":
        # the target axes moved to the front of one view: one stacked copy
        # of the 2^k target patterns and one write back, per channel
        shape, _, (key, axes) = _layout(width, controls, g.qubits)
        mat = cir._householder(g.amplitudes).astype(complex)
        for c in state:
            block = np.moveaxis(c.reshape(c.shape[:-1] + shape)[key], axes, range(len(axes)))
            stacked = block.reshape((len(mat),) + block.shape[len(axes):])
            block[...] = np.einsum("pq,q...->p...", mat, stacked).reshape(block.shape)
        return
    views = memo.views.get((controls, g.qubits))
    if views is None:
        views = memo.views[controls, g.qubits] = _views(state, width, controls, g.qubits)
    a0, a1 = views[:2]
    if g.kind == "x":
        for v0, v1 in zip(a0, a1):
            tmp = v0.copy()
            v0[...] = v1
            v1[...] = tmp
        return
    if g.kind == "h":
        # a0 ← s·a0 + s·a1 and a1 ← s·a0 + (−s)·a1 on every channel, with
        # s·a0 made once, in place, and s·a1 the one temporary
        s = _SQRT2_INV
        for v0, v1 in zip(a0, a1):
            np.multiply(s, v0, out=v0)
            sa1 = s * v1
            np.multiply(-s, v1, out=v1)
            np.add(v0, v1, out=v1)
            np.add(v0, sa1, out=v0)
        return
    key = (g.kind, id(g.angle), a0[0].ndim)
    entry = memo.entries.get(key)
    if entry is None:
        entry = memo.entries[key] = _entries(g.kind, g.angle, params, inputs, a0[0].ndim)
    if g.kind == "rx":
        c, s = entry
        # every product reads the state before either row is written
        rows = ((a0, c_mul(c, a0), c_mul(s, a1)), (a1, c_mul(s, a0), c_mul(c, a1)))
        for view, p, q in rows:
            for v, pc, qc in zip(view, p, q):
                np.add(pc, qc, out=v)
        return
    # rz: bit 0, then bit 1; rzz: even parity (00, 11), then odd (01, 10)
    groups = ((a0,), (a1,)) if g.kind == "rz" else ((views[0], views[3]), (views[1], views[2]))
    for group, phase in zip(groups, entry):
        for view in group:
            for v, a in zip(view, c_mul(phase, view)):
                v[...] = a


# ---------------------------------------------------------------------------
# core simulation


def _as_batch(vec, n_cols: int) -> tuple:
    """Normalize a parameter/input spec to channels of (B, n_cols) arrays.

    Any (v, d1, d2) tuple is a dual argument, whatever its entries are;
    its three channels must share one shape.  Lists and arrays are plain.
    """
    if isinstance(vec, tuple) and len(vec) == 3:
        chans = tuple(np.atleast_2d(np.asarray(c, dtype=float)) for c in vec)
        if any(c.shape != chans[0].shape for c in chans[1:]):
            raise SizeError(f"dual channels differ in shape: {[c.shape for c in chans]}")
    else:
        arr = np.atleast_2d(np.asarray(vec, dtype=float))
        chans = (arr.reshape(1, 0) if arr.shape[1] == 0 else arr,)
    if chans[0].shape[1] != n_cols:
        raise SizeError(f"expected {n_cols} columns, got {chans[0].shape[1]}")
    return chans


def _reads_rows(g: cir.Gate) -> bool:
    """Whether a gate's angle reads a parameter row or an input point."""
    return isinstance(g.angle, (cir.Param, cir.InputArccos))


def _broadcast(state, rows: tuple) -> tuple:
    """The one-row state copied to every (parameter row, point) of ``rows``."""
    return tuple(np.broadcast_to(c, rows + c.shape[2:]).copy() for c in state)


def simulate_amps(circuit: cir.Circuit, params, inputs, *, check_norm: bool = False):
    """Run a circuit from |0…0⟩; returns amplitudes shaped (Bp, N, 2^width).

    ``params``/``inputs`` may be 1-D vectors, (batch, size) arrays, or
    (value, d1, d2) triples of such arrays for a dual run.  The result is a
    fresh complex array, or a triple of them when any argument is dual.
    The state is one row until a gate reads the rows (module docstring).
    """
    if circuit.width > _WIDTH_CAP:
        raise SizeError(f"width {circuit.width} exceeds cap {_WIDTH_CAP}")
    p = _as_batch(params, circuit.n_params)
    i = _as_batch(inputs, circuit.n_inputs)
    v = np.zeros((1, 1, 1 << circuit.width), dtype=complex)
    v[..., 0] = 1.0
    state = (v,) + tuple(np.zeros_like(v) for _ in range(max(len(p), len(i)) - 1))
    rows = (p[0].shape[0], i[0].shape[0])
    memo = _Memo()
    for g in circuit.gates:
        if state[0].shape[:2] != rows and _reads_rows(g):
            state = _broadcast(state, rows)
            memo.views.clear()
        _apply_gate(g, state, p, i, circuit.width, memo)
        if check_norm:
            norms = np.sum(np.abs(state[0]) ** 2, axis=-1)
            if not np.all(np.abs(norms - 1.0) <= 1e-12):   # NaN fails too
                raise ArithmeticError("statevector norm drifted beyond 1e-12")
    if state[0].shape[:2] != rows:
        state = _broadcast(state, rows)
    return state if len(state) == 3 else state[0]


def run(circuit: cir.Circuit, params=(), inputs=()):
    """Execute a circuit on |0…0⟩ with one parameter vector and one input
    point, either of which may be a (v, d1, d2) triple of 1-D arrays, and
    check the norm after every gate.  Returns the point's amplitudes in
    ``simulate_amps``'s form: a (2^width,) complex array, or a (v, d1, d2)
    triple of them."""
    state = simulate_amps(circuit, params, inputs, check_norm=True)
    if isinstance(state, tuple):
        return tuple(c[0, 0] for c in state)
    return state[0, 0]


def z0_from_amps(amps):
    """⟨Z⁽⁰⁾⟩ from an amplitude array (plain or dual triple), over its leading
    axes: (Bp, N) for ``simulate_amps``, a 0-d array for ``run``."""
    if isinstance(amps, tuple):
        v, d1, d2 = amps
        vr, vi = v.real, v.imag
        r1, i1 = d1.real, d1.imag
        r2, i2 = d2.real, d2.imag
        p0 = vr * vr + vi * vi
        p1 = 2.0 * (vr * r1 + vi * i1)
        p2 = 2.0 * (vr * r2 + r1 * r1 + vi * i2 + i1 * i1)
        half = v.shape[-1] // 2
        sign = lambda a: np.sum(a[..., :half], axis=-1) - np.sum(a[..., half:], axis=-1)
        return (sign(p0), sign(p1), sign(p2))
    probs = amps.real**2 + amps.imag**2
    half = amps.shape[-1] // 2
    return np.sum(probs[..., :half], axis=-1) - np.sum(probs[..., half:], axis=-1)


def expect_z0(amps):
    """Pauli-Z expectation on qubit 0 of one point's amplitudes as ``run``
    returns them; a (v, d1, d2) float tuple when they are dual."""
    z = z0_from_amps(amps)
    return tuple(float(c) for c in z) if isinstance(z, tuple) else float(z)


def hadamard_test_shots(circuit: cir.Circuit, params, inputs, n_shots: int,
                        seed) -> ShotEstimate:
    """±1 sampling of qubit 0 from the exact marginal; deterministic per seed."""
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    exact = expect_z0(run(circuit, params, inputs))
    p_plus = min(max((1.0 + exact) / 2.0, 0.0), 1.0)
    k = int(np.random.default_rng(seed).binomial(n_shots, p_plus))
    mean = (2 * k - n_shots) / n_shots
    if n_shots > 1:
        ssq = (k * (1.0 - mean) ** 2 + (n_shots - k) * (-1.0 - mean) ** 2) / (n_shots - 1)
    else:
        ssq = 0.0
    return ShotEstimate(mean=mean, n_shots=n_shots, std_error=math.sqrt(ssq / n_shots))
