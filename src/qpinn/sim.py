"""Dense statevector execution with stride-based gate application.

Amplitudes live in arrays of shape ``(Bp, N, 2^width)``: ``Bp`` batches
parameter vectors, ``N`` batches input points, and both default to 1.
Qubit 0 is the most significant index bit, so the Pauli-Z expectation on
qubit 0 splits the amplitude array in half.  ``simulate_amps`` returns
that array, or a ``(v, d1, d2)`` tuple of them in a dual run; ``run``
returns the same form for its one point, of shape ``(2^width,)``, and
``z0_from_amps`` and ``expect_z0`` read either.

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
from .duals import c_add, c_lift, c_mul, t_arccos, t_cos, t_expj, t_sin
from .errors import DomainError, SizeError

_WIDTH_CAP = 24

_SQRT2_INV = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class ShotEstimate:
    mean: float
    n_shots: int
    std_error: float


# ---------------------------------------------------------------------------
# index helpers (cached per circuit structure)


@lru_cache(maxsize=None)
def _pair_idx(width: int, q: int, controls: tuple) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(1 << width)
    tpos = width - 1 - q
    mask = ((idx >> tpos) & 1) == 0
    for cq, pol in controls:
        mask &= ((idx >> (width - 1 - cq)) & 1) == pol
    i0 = idx[mask]
    return i0, i0 | (1 << tpos)


@lru_cache(maxsize=None)
def _parity_idx(width: int, qa: int, qb: int, controls: tuple) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(1 << width)
    mask = np.ones(idx.size, dtype=bool)
    for cq, pol in controls:
        mask &= ((idx >> (width - 1 - cq)) & 1) == pol
    ba = (idx >> (width - 1 - qa)) & 1
    bb = (idx >> (width - 1 - qb)) & 1
    even = ba == bb
    return idx[mask & even], idx[mask & ~even]


@lru_cache(maxsize=None)
def _group_idx(width: int, qubits: tuple) -> np.ndarray:
    """(2^k, G) index matrix: rows enumerate target-bit patterns."""
    k = len(qubits)
    t_pos = [width - 1 - q for q in qubits]
    rest = [p for p in range(width) if p not in t_pos]
    rest_idx = cir._scatter_bits(np.arange(1 << len(rest), dtype=np.int64), rest)
    base = cir._scatter_bits(np.arange(1 << k, dtype=np.int64), t_pos)
    return base[:, None] | rest_idx[None, :]


# ---------------------------------------------------------------------------
# angle and entry evaluation


def _angle(expr, params, inputs):
    """Angle channels, each broadcastable against (Bp, N, pairs)."""
    if isinstance(expr, cir.Const):
        return (expr.value,)
    if isinstance(expr, cir.Param):
        base = tuple(c[:, expr.index, None, None] for c in params)
    else:  # InputArccos
        xt = tuple(c[:, expr.var][None, :, None] for c in inputs)
        if len(xt) == 1 and np.any(np.abs(xt[0]) > 1.0):
            raise DomainError("arccos input outside [-1, 1]")
        base = c_lift(xt, np.arccos, t_arccos)
    scaled = c_mul(expr.scale, base)
    return (scaled[0] + expr.offset,) + scaled[1:]


# ---------------------------------------------------------------------------
# gate application


def _apply_2x2(state, i0, i1, m00, m01, m10, m11):
    a0 = tuple(c[..., i0] for c in state)
    a1 = tuple(c[..., i1] for c in state)
    n0 = c_add(c_mul(m00, a0), c_mul(m01, a1))
    n1 = c_add(c_mul(m10, a0), c_mul(m11, a1))
    for c, p, q in zip(state, n0, n1):
        c[..., i0] = p
        c[..., i1] = q


def _apply_gate(g: cir.Gate, state, params, inputs, width: int, controls=()):
    if g.kind == "controlled":
        _apply_gate(g.inner, state, params, inputs, width, controls + g.controls)
        return
    if g.kind == "h":
        i0, i1 = _pair_idx(width, g.qubits[0], controls)
        _apply_2x2(state, i0, i1, _SQRT2_INV, _SQRT2_INV, _SQRT2_INV, -_SQRT2_INV)
        return
    if g.kind in ("x", "cnot"):
        ctl = controls if g.kind == "x" else controls + ((g.qubits[0], 1),)
        i0, i1 = _pair_idx(width, g.qubits[-1], ctl)
        for c in state:
            c[..., i0], c[..., i1] = c[..., i1], c[..., i0]
        return
    if g.kind == "rx":
        half = c_mul(0.5, _angle(g.angle, params, inputs))
        i0, i1 = _pair_idx(width, g.qubits[0], controls)
        c = c_lift(half, np.cos, t_cos)
        s = c_mul(-1j, c_lift(half, np.sin, t_sin))
        _apply_2x2(state, i0, i1, c, s, s, c)
        return
    if g.kind in ("rz", "rzz"):
        theta = _angle(g.angle, params, inputs)
        if g.kind == "rz":
            i0, i1 = _pair_idx(width, g.qubits[0], controls)
        else:
            i0, i1 = _parity_idx(width, g.qubits[0], g.qubits[1], controls)
        for idx, sign in ((i0, -0.5), (i1, 0.5)):
            phase = c_lift(c_mul(sign, theta), lambda a: np.exp(1j * a), t_expj)
            amps = c_mul(phase, tuple(c[..., idx] for c in state))
            for c, a in zip(state, amps):
                c[..., idx] = a
        return
    if g.kind == "prepare":
        if controls:
            raise NotImplementedError("controlled PrepareAmplitudes is unsupported")
        mat = cir._householder(g.amplitudes).astype(complex)
        idx = _group_idx(width, g.qubits)
        for c in state:
            c[..., idx] = np.einsum("pq,...qg->...pg", mat, c[..., idx])
        return
    raise ValueError(f"unknown gate kind {g.kind!r}")


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
        chans = (arr.reshape(1, 0) if arr.size == 0 else arr,)
    if chans[0].shape[1] != n_cols:
        raise SizeError(f"expected {n_cols} columns, got {chans[0].shape[1]}")
    return chans


def simulate_amps(circuit: cir.Circuit, params, inputs, *, check_norm: bool = False):
    """Run a circuit from |0…0⟩; returns amplitudes shaped (Bp, N, 2^width).

    ``params``/``inputs`` may be 1-D vectors, (batch, size) arrays, or
    (value, d1, d2) triples of such arrays for a dual run.  The result is a
    complex array, or a triple of them when any argument is dual.
    """
    if circuit.width > _WIDTH_CAP:
        raise SizeError(f"width {circuit.width} exceeds cap {_WIDTH_CAP}")
    p = _as_batch(params, circuit.n_params)
    i = _as_batch(inputs, circuit.n_inputs)
    v = np.zeros((p[0].shape[0], i[0].shape[0], 1 << circuit.width), dtype=complex)
    v[..., 0] = 1.0
    state = (v,) + tuple(np.zeros_like(v) for _ in range(max(len(p), len(i)) - 1))

    for g in circuit.gates:
        _apply_gate(g, state, p, i, circuit.width)
        if check_norm:
            norms = np.sum(np.abs(state[0]) ** 2, axis=-1)
            if np.any(np.abs(norms - 1.0) > 1e-12):
                raise ArithmeticError("statevector norm drifted beyond 1e-12")
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
