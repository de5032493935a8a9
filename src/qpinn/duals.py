"""Second-order forward-mode derivatives on triples and channel tuples, and
finite-difference and parameter-shift utilities.

A dual value here is a truncated Taylor triple (v, d1, d2) seeded in a
single direction: d1 and d2 are the first and second derivatives of the
value along that direction.  The triple helpers (`t_*`) take and return
exactly such (value, d1, d2) tuples, whose components may be floats,
complex numbers, or numpy arrays; ``(x, 1.0, 0.0)`` seeds the direction of
``x`` and ``(c, 0.0, 0.0)`` is a constant.  The channel helpers (`c_*`) take
channel tuples: ``(v,)`` for a plain value, ``(v, d1, d2)`` for a dual one.
The simulator runs one code path on them, so a plain run and the value
channel of a dual run perform the same arithmetic in the same order.

``parameter_shift`` evaluates the four shifts of each occurrence of a
parameter as the rows of one stacked simulator call, on the circuit with
that occurrence moved onto one fresh parameter slot.
"""
from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
import math

import numpy as np

from .errors import DomainError

Triple = tuple  # (v, d1, d2)


# ---------------------------------------------------------------------------
# raw triple arithmetic (value, first, second derivative)

def t_add(a: Triple, b: Triple) -> Triple:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def t_mul(a: Triple, b: Triple) -> Triple:
    # (ab)'' = a''b + 2a'b' + ab''
    return (
        a[0] * b[0],
        a[1] * b[0] + a[0] * b[1],
        a[2] * b[0] + 2.0 * a[1] * b[1] + a[0] * b[2],
    )


def t_scale(c, a: Triple) -> Triple:
    return (c * a[0], c * a[1], c * a[2])


def c_mul(m, a: tuple) -> tuple:
    """m·a over channel tuples: a scalar, array or 1-tuple ``m`` scales every
    channel of ``a``; a triple ``m`` multiplies the triple ``a`` as `t_mul`."""
    if type(m) is tuple:
        if len(m) == 3:
            return t_mul(m, a)
        m = m[0]
    return (m * a[0],) if len(a) == 1 else t_scale(m, a)


def c_lift(a: tuple, plain, dual) -> tuple:
    """``plain`` on a 1-tuple's channel, or the triple function ``dual``."""
    return (plain(a[0]),) if len(a) == 1 else dual(a)


def t_cos(a: Triple) -> Triple:
    c, s = np.cos(a[0]), np.sin(a[0])
    return (c, -s * a[1], -s * a[2] - c * a[1] * a[1])


def t_sin(a: Triple) -> Triple:
    c, s = np.sin(a[0]), np.cos(a[0])
    return (c, s * a[1], s * a[2] - c * a[1] * a[1])


def t_exp(a: Triple) -> Triple:
    e = np.exp(a[0])
    return (e, e * a[1], e * (a[2] + a[1] * a[1]))


def t_expj(a: Triple) -> Triple:
    """exp(i·a) for a real triple; result is a complex triple."""
    e = np.exp(1j * np.asarray(a[0], dtype=float))
    d1 = 1j * a[1] * e
    return (e, d1, e * (1j * a[2] - a[1] * a[1]))


def t_arccos(a: Triple) -> Triple:
    v = np.asarray(a[0], dtype=float)
    if not np.all(np.abs(v) < 1.0):
        raise DomainError("arccos of a dual requires |value| < 1")
    s = 1.0 - v * v
    root = np.sqrt(s)
    d1 = -a[1] / root
    d2 = -a[2] / root - v * a[1] * a[1] / (s * root)
    return (np.arccos(v), d1, d2)


def t_tanh(a: Triple) -> Triple:
    """tanh of a (v, d1, d2) triple."""
    y = np.tanh(a[0])
    sech2 = 1.0 - y * y
    return (y, sech2 * a[1], sech2 * a[2] - 2.0 * y * sech2 * a[1] * a[1])


def shift_stack(params, steps) -> np.ndarray:
    """(2P+1, P) rows: ``params``, then params + stepsᵢ and params − stepsᵢ
    on coordinate i, for i = 0..P−1."""
    params = np.asarray(params, dtype=float)
    p = params.size
    stack = np.repeat(params[None, :], 2 * p + 1, axis=0)
    flat = stack.reshape(-1)   # a view; (row 1 + 2i, column i) is flat[p + i·(2p + 1)]
    flat[p::2 * p + 1] += steps
    flat[2 * p::2 * p + 1] -= steps
    return stack


@lru_cache(maxsize=None)
def shift_offsets(p: int) -> np.ndarray:
    """Added to a row of p parameters, its ``shift_stack(row, π)``: −0.0
    leaves every parameter as it is, −0.0 among them.  Read-only."""
    out = shift_stack(np.full(p, -0.0), np.pi)
    out.flags.writeable = False
    return out


def fd_stack(params, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference rows ``shift_stack(params, steps)`` and their steps
    hᵢ = h·max(1, |θᵢ|)."""
    steps = h * np.maximum(1.0, np.abs(np.asarray(params, dtype=float)))
    return shift_stack(params, steps), steps


def fd_gradient(loss, params: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient with per-coordinate step h·max(1, |θᵢ|)."""
    stack, steps = fd_stack(params, h)
    vals = np.array([loss(row) for row in stack[1:]], dtype=float)
    return (vals[0::2] - vals[1::2]) / (2.0 * steps)


_ROOT2 = math.sqrt(2.0)
# (shift, sign, coefficient) of the four terms, in the order they are summed
_SHIFT_RULE = tuple((shift, sign, coeff)
                   for shift, coeff in ((math.pi / 2.0, (_ROOT2 + 1.0) / (4.0 * _ROOT2)),
                                        (3.0 * math.pi / 2.0, -(_ROOT2 - 1.0) / (4.0 * _ROOT2)))
                   for sign in (+1.0, -1.0))


def parameter_shift(circuit, params, inputs, param_index: int) -> float:
    """Exact rotation-angle derivative of expect_z0∘run by shifted evaluations.

    Controlled rotations make the expectation a trigonometric polynomial with
    frequencies {½, 1} in each angle (in a Hadamard-test circuit the angle
    enters linearly as e^{±iθ/2}), so the exact rule is the four-term shift

        f'(θ) = c₊[f(θ+π/2) − f(θ−π/2)] − c₋[f(θ+3π/2) − f(θ−3π/2)],

    with c± = (√2±1)/(4√2); for uncontrolled gates it reduces to the familiar
    ½[f(θ+π/2) − f(θ−π/2)].  Parameters appearing in several gates sum the
    single-occurrence rule over all occurrences.  Each occurrence moves onto
    one fresh parameter slot, and its four shifted angles are the rows of one
    ``sim.simulate_amps(..., check_norm=True)`` call; the terms are summed in
    the rule's order, so the result equals one ``sim.run`` per shift with
    the angle bound as a constant, bit for bit.
    """
    from . import circuits as cir
    from . import sim

    params = np.asarray(params, dtype=float)
    if not 0 <= param_index < circuit.n_params:
        raise IndexError(f"parameter index {param_index} out of range")

    slot = cir.Param(circuit.n_params)
    total = 0.0
    for i, g in enumerate(circuit.gates):
        if not (isinstance(g.angle, cir.Param) and g.angle.index == param_index):
            continue
        scale = g.angle.scale
        phi0 = scale * params[param_index] + g.angle.offset
        rows = np.repeat(np.append(params, 0.0)[None], len(_SHIFT_RULE), axis=0)
        rows[:, -1] = [phi0 + sign * shift for shift, sign, _ in _SHIFT_RULE]
        gates = circuit.gates[:i] + (replace(g, angle=slot),) + circuit.gates[i + 1:]
        moved = cir.Circuit(circuit.width, gates, circuit.n_params + 1, circuit.n_inputs)
        amps = sim.simulate_amps(moved, rows, inputs, check_norm=True)
        for (_, sign, coeff), val in zip(_SHIFT_RULE, sim.z0_from_amps(amps)[:, 0].tolist()):
            total += scale * sign * coeff * val
    return total
