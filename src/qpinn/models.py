"""The four trainable hypothesis models over (t, x).

All models output ``output_scale`` × a core value:

- ``qpinn``: 5-qubit rank-1 TD circuit (D=2, L=1) plus a controlled-IsingZZ
  entangling layer with trainable angle λ (``qpinn_circuit``).  Qubits: test
  ancilla q0; (parity q1, chain q2) for x; (parity q3, chain q4) for t; the
  entangler acts on (q2, q3).  It is evaluated exactly without the
  statevector, from four 2×2 chains (written v below).
- ``quantum_inspired``: the λ≡0 model evaluated the dequantized way, as
  Re[a_x(x)·a_t(t)] from two 2×2 chains.
- ``counterpart``: p1(x)·p2(t) with degree-2 coefficient vectors.
- ``fully_connected``: a 2→10→10→10→10→10→1 tanh network.

Why the QPINN closed form is exact: the entangler's second qubit q3 is the
t parity qubit, which starts in |+⟩ and is only ever a control, so the
circuit is block diagonal in its Z basis.  In the block q3 = s the ZZ
rotation acts on q2 as R_z((−1)^s λ), applied after the x chain's last
R_z, whose angle it simply shifts.  The Hadamard test over the two parity
qubits in |+⟩ then reads

    ⟨Z⁰⟩ = Re ¼ Σ_{p∈{1,2}} [v(θₚˣ⊕λ, x)·v(θ₁ᵗ, t) + v(θₚˣ⊖λ, x)·v(θ₂ᵗ, t)],

where ⊕λ adds λ to the chain's last angle.  ``sim.simulate_amps`` on
``qpinn_circuit`` stays the oracle this form is tested against.

Both chain models are the polynomial the paper describes.  A chain of
degree d is v(θ, u) = Σ_b C_b(θ)·u^(d−b)·(i√(1 − u²))^b with real C
(``qsp.chain_coefficients``), so at L = 1 (chains of degree 0 and 1) each
model is W(θ)·[ψ(x) ⊗ ψ(t)] with ψ(u) = [1, u, √(1 − u²)] and a real 3×3
coefficient matrix W that depends on the angles alone:

    quantum_inspired:  W(θ) = Re(A ⊗ B),  A = ½(a₁ + a₂) over x, B likewise over t;
    qpinn:             W[:, 0] = W(θˣ⊕λ, θᵗ)[:, 0],  W[:, 1:] = W(θˣ⊖λ, θᵗ)[:, 1:],

where a degree-0 chain contributes C₀ to ψ₀ and a degree-1 chain C₀ to ψ₁
and i·C₁ to ψ₂, and θˣ⊕λ adds λ to the last angle of both x chains.  The
QPINN's form is the closed form above: T₁ = v(θ₁ᵗ) lies on ψ₀(t) and
T₂ = v(θ₂ᵗ) on ψ₁(t), ψ₂(t), so column 0 sees only the +λ branch and
columns 1, 2 only the −λ one, each averaged over p like A.  At λ = 0 the
two chain models coincide.  The counterpart is W = c₁ ⊗ c₂ over
ψ(u) = [1, u, u²].  Outputs are W contracted with features, products of ψ
and its derivatives.  The chain models' W comes from one
``qsp.coefficient_plan`` per class: the whole parameter stack gives every
chain's coefficients in one gather, one einsum and one ``cos`` (the QPINN
appends its ±λ-shifted x angles first), and a product places them in W,
which is C-ordered: the outer product of a_x and a_t, or for the QPINN one
gather of its x columns times a_t.  ``backward``, the exact gradient of a
flat cotangent on the outputs of the last one-row ``batched_eval``,
contracts it with the held features and then with the ∂W/∂θ that forward
kept: the ±π shift rule for the chains (each angle enters W as
e^{±iθ/2}), a central difference for the bilinear counterpart.

The network runs forward mode on (C, N, k) channel stacks, v alone or
(v, v_x, v_xx, v_t) with v_t a first derivative in a second direction:
``_trace`` takes one parameter row through every layer, one matmul for all
channels, and records each layer's (input, pre-activation) pair for ``_reverse``.

``values``, ``bundles`` and ``batched_eval`` are thin calls, on
``_Evaluator``, of each family's one ``_forward``; ``values`` and
``bundles`` build on their own points and leave what ``batched_eval``
holds and keeps alone.  ``batched_eval`` holds what it built only for
four read-only ``snapshot`` arrays, which it knows unchanged by identity:
a training run passes the same four every epoch and builds once.  Any
other point arrays are built again on every call.

Parameter layouts (one flat vector per model):
qpinn / quantum_inspired: [θ1x, θ2x(2) | θ1t, θ2t(2) | λ (qpinn only)];
counterpart: [p1 c0..c2 | p2 c0..c2];
fully_connected: per layer, weights (fan_in×fan_out, row-major) then biases.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from . import circuits as cir
from . import duals, qsp
from .errors import BackwardError, DomainError, SizeError

KINDS = ("qpinn", "quantum_inspired", "counterpart", "fully_connected")

_FC_LAYERS = [(2, 10), (10, 10), (10, 10), (10, 10), (10, 10), (10, 1)]

# per layer, the bounds of its weights and then of its biases
_FC_BOUNDS = list(accumulate((n for fi, fo in _FC_LAYERS for n in (fi * fo, fo)), initial=0))


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    output_scale: float = 10.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")

    @property
    def n_params(self) -> int:
        return _EVALUATORS[self.kind].groups[-1].stop


@lru_cache(maxsize=None)
def qpinn_circuit() -> cir.Circuit:
    """The 5-qubit QPINN circuit with λ as parameter slot 6, built once and
    shared (a ``Circuit`` is immutable)."""
    base = qsp.td_circuit_template(1, 2, 1)
    gates = list(base.gates)
    entangler = cir.controlled(cir.rzz(2, 3, cir.Param(6)), [(0, 1)])
    gates.insert(len(gates) - 1, entangler)
    return cir.Circuit(5, tuple(gates), n_params=7, n_inputs=2)


def init_params(spec: ModelSpec, seed) -> np.ndarray:
    """Deterministic per-seed initialization at each parameterization's
    natural scale.

    Rotation angles, the entangler's λ included, draw uniformly over their
    full period; LAMB's trust ratio scales steps by the group norm, so
    near-zero starts would freeze those parameters (λ = 0 in particular
    would leave the entangling layer stuck at the identity).  The QPINN's
    first six draws coincide with the quantum-inspired model's under the
    same seed.  Counterpart coefficients draw uniformly with per-factor
    values O(1), matching the bounded range the quantum cores start in.
    The network uses Glorot-uniform weights with zero biases.
    """
    rng = np.random.default_rng(seed)
    if spec.kind in ("qpinn", "quantum_inspired"):
        return rng.uniform(0.0, 2.0 * np.pi, spec.n_params)
    if spec.kind == "counterpart":
        return rng.uniform(-0.5, 0.5, 6)
    chunks = []
    for fi, fo in _FC_LAYERS:
        limit = np.sqrt(6.0 / (fi + fo))
        chunks.append(rng.uniform(-limit, limit, fi * fo))
        chunks.append(np.zeros(fo))
    return np.concatenate(chunks)


# ---------------------------------------------------------------------------
# batched evaluators


def snapshot(points) -> np.ndarray:
    """A flat, read-only float copy of ``points`` over an immutable ``bytes``
    object: nothing can change it, so ``batched_eval`` knows the snapshots
    of its last call unchanged by their identity alone."""
    return np.frombuffer(np.asarray(points, dtype=float).tobytes())


def _is_snapshot(p) -> bool:
    return type(getattr(p, "base", None)) is bytes


# no point array is this object: what ``_collocate`` holds when the points
# of its last call were not all snapshots
_NOT_SNAPSHOTS = (object(),) * 4


class _Evaluator:
    """One forward, ``_forward(params2d, held, keep)``, behind three thin
    calls.  A family's ``_build(t_int, x_int, t_bnd, x_bnd)`` makes ``held``
    of the points, leaving out a part (interior or boundary) with no points;
    the forward returns ((v, v_t, v_x, v_xx) at the interior, v at the
    boundary), (B, N) arrays with a row per parameter row (N = 0 for a part
    left out), and, when asked to ``keep``, what ``backward`` needs of a
    one-row forward.  ``values`` and ``bundles`` take one part of a forward
    on their own points, never ``batched_eval``:
    that would evict its held points and output count, and they must stay
    right when only ``batched_eval`` is wrapped.  ``batched_eval`` builds
    again unless its points are the snapshots of its last call, and a
    one-row forward keeps ``_kept`` for ``backward``: the gradient at the
    row and the points as that forward saw them.  After a forward of any
    other number of rows, or with a cotangent that is not one flat row of
    the last forward's outputs, ``backward`` raises ``BackwardError``.  A
    row whose width is not the parameter count raises ``SizeError``."""

    # what ``_build`` made of the last ``batched_eval``'s points, and what
    # its last one-row call kept for ``backward``; and the point arrays of
    # the last ``batched_eval`` when all four are snapshots
    _held = _kept = None
    _snapshots = _NOT_SNAPSHOTS

    def __init__(self, spec: ModelSpec):
        self.spec = spec

    def _rows(self, params) -> np.ndarray:
        """``params`` as a (B, P) stack of rows of the model's P parameters."""
        params2d = params
        if type(params) is not np.ndarray or params.ndim != 2:
            params2d = np.atleast_2d(params)
        if params2d.ndim != 2 or params2d.shape[1] != self.spec.n_params:
            raise SizeError(f"{self.spec.kind} expects rows of {self.spec.n_params} "
                            f"parameters, got shape {np.shape(params)}")
        return params2d

    def values(self, params, t, x):
        return self._forward(self._rows(params), self._build((), (), t, x))[0][1]

    def bundles(self, params, t, x):
        return self._forward(self._rows(params), self._build(t, x, (), ()))[0][0]

    def batched_eval(self, params2d, t_int, x_int, t_bnd, x_bnd):
        params2d = self._rows(params2d)
        outputs, self._kept = self._forward(params2d,
                                            self._collocate(t_int, x_int, t_bnd, x_bnd),
                                            keep=len(params2d) == 1)
        return outputs

    def _check_backward(self, cotangent):
        """Refuse a ``backward`` when the last forward kept nothing for it, or
        with a cotangent that is not one flat row of its outputs."""
        if self._kept is None:
            raise BackwardError("backward needs a one-row batched_eval first")
        shape = cotangent.shape if type(cotangent) is np.ndarray else np.shape(cotangent)
        if shape != (self._n_outputs,):
            raise BackwardError(f"cotangent of shape {shape}; "
                                f"the last forward has {self._n_outputs} outputs")

    def _collocate(self, *points):
        """What ``_build`` made of ``points``, kept only for the snapshots of
        the last call, which it knows unchanged by identity; any other point
        arrays are built again on every call."""
        if not all(map(operator.is_, points, self._snapshots)):
            self._held = self._build(*points)
            self._n_outputs = 4 * np.size(points[0]) + np.size(points[2])
            self._snapshots = points if all(map(_is_snapshot, points)) else _NOT_SNAPSHOTS
        return self._held


def _psi(u, order: int, square: bool = False) -> np.ndarray:
    """ψ(u) = [1, u, q] and ``order`` derivatives, an (order + 1, 3, N) array:
    q = s = √(1 − u²) for the chains (q′ = −u/s, q″ = −1/s³), or q = u² when
    ``square``.  Chain values need |u| ≤ 1; derivatives, which divide by s,
    need |u| < 1.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if square:
        q = (u * u, 2.0 * u, 2.0)
    else:
        top = np.max(np.abs(u), initial=0.0)   # NaN if any u is NaN, which fails both tests
        if order and not top < 1.0:
            raise DomainError("chain derivatives require |u| < 1")
        if not top <= 1.0:
            raise DomainError("chain evaluation requires |u| <= 1")
        s = np.sqrt(1.0 - u * u)
        q = (s, -u / s, -1.0 / (s * s * s)) if order else (s,)
    out = np.zeros((order + 1, 3, u.size))
    out[0, 0], out[0, 1], out[1:2, 1] = 1.0, u, 1.0
    out[:, 2] = np.broadcast_arrays(*q[:order + 1])
    return out


# Re(a ⊗ b) of ψ vectors [C₀ of a degree-0 chain, C₀ and i·C₁ of a degree-1
# one], stored without the i (i·i = −1, and i times a real entry is not real)
# and times the ½·½ of the two chain averages
_W_SIGNS = 0.25 * np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, -1.0]])


class _SeparableEvaluator(_Evaluator):
    """A model Σ_ij W_ij(θ)·ψ_i(x)·ψ_j(t), scaled by output_scale.

    Subclasses supply ``coefficients(params2d)``, the real (B, 3, 3) matrix
    W; every output is W contracted with a feature matrix F of ψ products
    (the module docstring).  A one-row forward, a training epoch's, takes W
    and ∂W/∂θ from ``_w_and_jac`` and keeps ∂W for ``backward``.
    """

    square = False   # ψ₂ = u² rather than √(1 − u²)
    shift_scale = 0.25

    def __init__(self, spec: ModelSpec):
        super().__init__(spec)
        self._shifts = duals.shift_offsets(self.groups[-1].stop)

    def _build(self, t_int, x_int, t_bnd, x_bnd):
        """The (9, N) feature matrix of v, v_t, v_x, v_xx at the interior and
        v at the boundary, blocks side by side, and the column bounds of
        each block; a part with no points gets no features and zero-width
        blocks."""
        blocks, widths = [], [0] * 5
        if np.size(x_int):
            (px, dpx, ddpx), (pt, dpt) = _psi(x_int, 2, self.square), _psi(t_int, 1, self.square)
            blocks += [(px, pt), (px, dpt), (dpx, pt), (ddpx, pt)]
            widths[:4] = [px.shape[1]] * 4
        if np.size(x_bnd):
            blocks.append((_psi(x_bnd, 0, self.square)[0], _psi(t_bnd, 0, self.square)[0]))
            widths[4] = blocks[-1][0].shape[1]
        feats = np.concatenate([np.zeros((9, 0))] + [
            (fx[:, None, :] * ft[None, :, :]).reshape(9, -1) for fx, ft in blocks], axis=1)
        return feats, np.cumsum([0] + widths).tolist()

    def _forward(self, params2d, held, keep=False):
        """output_scale·W·F sliced into one (B, N) view per block, and ∂W/∂θ
        of a one-row forward when asked to ``keep`` it (else None)."""
        feats, bounds = held
        w, jac = self._w_and_jac(params2d) if keep else (self.coefficients(params2d), None)
        # einsum, not BLAS ``@``: BLAS sums a row differently for another batch size
        out = qsp.einsum("bk,kn->bn", (self.spec.output_scale * w).reshape(-1, 9), feats)
        _, a, b, c, d, _ = bounds
        return ((out[:, :a], out[:, a:b], out[:, b:c], out[:, c:d]), out[:, d:]), jac

    def _w_and_jac(self, row):
        """W, (1, 3, 3), and ∂W/∂θ, (P, 3, 3), of one parameter row from one
        ``coefficients`` call on its ±π shift stack, whose row 0 is the row:
        the ±π shift rule, or for a W linear in each parameter the central
        difference over ±π."""
        w = self.coefficients(row + self._shifts)
        return w[:1], self.shift_scale * (w[1::2] - w[2::2])

    def backward(self, cotangent) -> np.ndarray:
        """Gradient of Σ cotangent·output over the row of the last one-row
        ``batched_eval`` at its points; ``cotangent`` is one flat row laid out
        as the outputs: v, v_t, v_x, v_xx, boundary."""
        self._check_backward(cotangent)
        g = qsp.einsum("kn,n->k", self._held[0], cotangent)
        return self.spec.output_scale * qsp.einsum("pk,k->p", self._kept.reshape(-1, 9), g)


class _QuantumInspiredEvaluator(_SeparableEvaluator):
    """Dequantized evaluation: two 2×2 chains, never the 5-qubit simulator."""

    groups = (slice(0, 3), slice(3, 6))
    # the chains θ₁ˣ, θ₂ˣ, θ₁ᵗ, θ₂ᵗ give the coefficients [a_x | a_t]
    _plan = qsp.coefficient_plan([(0,), (1, 2), (3,), (4, 5)])

    @classmethod
    def coefficients(cls, params):
        """W = Re(A ⊗ B) with A = ½(a₁ + a₂) over x and B likewise over t:
        the plan's one cos, then the outer product of a_x and a_t.  W must
        be C-ordered, as every ``coefficients`` is: the einsum over ∂W's
        reshape sums in memory order, and an F-ordered W of equal values
        can round the gradient differently."""
        c = qsp.plan_coefficients(cls._plan, params)
        return c[:, :3, None] * c[:, None, 3:] * _W_SIGNS


class _QpinnEvaluator(_SeparableEvaluator):
    """Exact closed form from four 2×2 chains (module docstring)."""

    groups = (slice(0, 3), slice(3, 6), slice(6, 7))
    # the angles [θˣ⊕λ | θᵗ | θˣ⊖λ]: column 0 of W from the x chains at +λ,
    # columns 1 and 2 from the x chains at −λ; W_ij takes a_x[i] from
    # column _X[i, j] of the coefficients, and a_t[j] from column 3 + j
    _plan = qsp.coefficient_plan([(0,), (1, 2), (3,), (4, 5), (6,), (7, 8)])
    _X = np.array([[0, 6, 6], [1, 7, 7], [2, 8, 8]])
    _ANGLES = [0, 1, 2, 3, 4, 5, 0, 1, 2]
    _LAMBDA = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, -1.0])

    @classmethod
    def coefficients(cls, params):
        """As the quantum-inspired W, on λ added to the x chains' last
        angles and then subtracted from them (``take`` keeps C order, where
        ``c[:, cls._X]`` would not)."""
        angles = params[:, cls._ANGLES] + params[:, 6:7] * cls._LAMBDA
        c = qsp.plan_coefficients(cls._plan, angles)
        return c.take(cls._X, axis=1) * c[:, None, 3:6] * _W_SIGNS


class _CounterpartEvaluator(_SeparableEvaluator):
    """p1(x)·p2(t) as W = c₁ ⊗ c₂ over ψ(u) = [1, u, u²]."""

    groups = (slice(0, 3), slice(3, 6))
    square = True
    shift_scale = 0.5 / np.pi   # W is bilinear

    @staticmethod
    def coefficients(params):
        return params[:, :3, None] * params[:, None, 3:]


def _trace(layers, a):
    """Run the network's (w, b) ``layers`` over a (C, N, 2) channel stack, a
    (C = 1) or (a, ∂a/∂x, ∂²a/∂x², ∂a/∂t) (C = 4); returns the output stack
    and each layer's (input, pre-activation) pair.  tanh of a derivative
    stack is y = s·z (s = 1 − tanh²z₀), then y₀ = tanh z₀, y₂ −= 2y₀·s·z₁²."""
    record = []
    for i, (w, b) in enumerate(layers):
        if i and len(z) == 1:
            a = np.tanh(z)
        elif i:
            y = np.tanh(z[0])
            s = 1.0 - y * y
            a = s * z
            a[0] = y
            a[2] -= 2.0 * y * s * z[1] * z[1]
        z = a @ w
        z[0] += b
        record.append((a, z))
    return z, record


def _tanh_pullback(y, z, g) -> np.ndarray:
    """Cotangent on the pre-activation stack ``z`` from the cotangent ``g`` on
    its activations ``y`` (``_trace``), with ds/dz₀ = −2y₀·s."""
    y0, s = y[0], 1.0 - y[0] * y[0]
    out = s * g
    if len(z) > 1:
        first = g[1] * z[1] + g[2] * z[2] + g[3] * z[3]
        out[0] = s * (g[0] - 2.0 * y0 * first - 2.0 * g[2] * z[1] * z[1] * (s - 2.0 * y0 * y0))
        out[1] = s * (g[1] - 4.0 * y0 * g[2] * z[1])
    return out


def _reverse(layers, records, cots) -> np.ndarray:
    """The flat (w, b) gradient by the reverse pass through the ``_trace``
    ``records`` of ``layers`` from cotangent stacks ``cots`` (0 for none)."""
    grads = []
    for i, (w, _) in reversed(list(enumerate(layers))):
        grads[:0] = [np.zeros(w.size), np.zeros(w.shape[1])]
        for rec, cot in zip(records, cots):
            for a, g in zip(rec[i][0], cot):
                grads[0] += (a.T @ g).ravel()
            grads[1] += cot[0].sum(axis=0)
        if i:
            cots = [_tanh_pullback(rec[i][0], rec[i - 1][1], cot @ w.T)
                    for rec, cot in zip(records, cots)]
    return np.concatenate(grads)


class _FullyConnectedEvaluator(_Evaluator):
    """The tanh network: one ``_trace`` per parameter row and held part;
    ``backward`` runs ``_reverse`` through the traces of the row of the last
    one-row ``batched_eval``."""

    groups = tuple(slice(lo, hi) for lo, hi in zip(_FC_BOUNDS, _FC_BOUNDS[1:]))

    def _layers(self, row):
        return [(row[w].reshape(fi, fo), row[b])
                for w, b, (fi, fo) in zip(self.groups[0::2], self.groups[1::2], _FC_LAYERS)]

    def _build(self, t_int, x_int, t_bnd, x_bnd):
        """The interior's (4, N, 2) stack (a, ∂a/∂x, ∂²a/∂x², ∂a/∂t), a with
        rows (t, x), and the boundary's (1, M, 2) stack of a; None for a part
        with no points."""
        held = [np.zeros((c, np.size(x), 2)) for c, x in ((4, x_int), (1, x_bnd))]
        for a, t, x in zip(held, (t_int, t_bnd), (x_int, x_bnd)):
            a[0, :, 0], a[0, :, 1] = t, x
        held[0][1, :, 1] = held[0][3, :, 0] = 1.0
        return tuple(a if a.shape[1] else None for a in held)

    def _forward(self, params2d, held, keep=False):
        """The scaled outputs of every parameter row, and, when asked to
        ``keep`` them, the last row's layers and the records of its traces
        of the parts it holds."""
        # a copy: the layers are views of it, and the kept ones must not
        # change when the caller mutates its row
        params2d = np.array(params2d, dtype=float)
        outs = [np.empty((k, len(params2d), 0 if a is None else a.shape[1]))
                for k, a in zip((4, 1), held)]
        parts = [(out, a) for out, a in zip(outs, held) if a is not None]
        for r, row in enumerate(params2d):
            layers = self._layers(row)
            traces = [_trace(layers, a) for _, a in parts]
            for (out, _), (z, _) in zip(parts, traces):
                out[:, r] = z[..., 0]
        (v, v_x, v_xx, v_t), (bnd,) = (self.spec.output_scale * out for out in outs)
        return ((v, v_t, v_x, v_xx), bnd), (layers, [r for _, r in traces]) if keep else None

    def backward(self, cotangent) -> np.ndarray:
        """As ``_SeparableEvaluator.backward``, by the reverse pass through
        the kept traces of the parts held."""
        self._check_backward(cotangent)
        n = 0 if self._held[0] is None else self._held[0].shape[1]
        cot = self.spec.output_scale * np.reshape(cotangent, (-1, 1))
        # the outputs run v, v_t, v_x, v_xx; the interior stack a, ∂x, ∂²x, ∂t
        cots = (cot[:4 * n].reshape(4, n, 1)[[0, 2, 3, 1]], cot[4 * n:][None])
        return _reverse(*self._kept, [c for c, a in zip(cots, self._held) if a is not None])


_EVALUATORS = {
    "qpinn": _QpinnEvaluator,
    "quantum_inspired": _QuantumInspiredEvaluator,
    "counterpart": _CounterpartEvaluator,
    "fully_connected": _FullyConnectedEvaluator,
}


def make_evaluator(spec: ModelSpec):
    return _EVALUATORS[spec.kind](spec)


class ModelFunction:
    """Value-and-derivative handle over (t, x) at fixed parameters."""

    def __init__(self, spec: ModelSpec, params):
        self.spec = spec
        self.params = np.asarray(params, dtype=float)
        self._ev = make_evaluator(spec)
        self._row = self._ev._rows(self.params[None, ...])

    def values(self, t, x):
        return self._ev.values(self._row, t, x)[0]

    def derivatives(self, t, x):
        return tuple(a[0] for a in self._ev.bundles(self._row, t, x))


def params_to_json_dict(spec: ModelSpec, params) -> dict:
    return {"kind": spec.kind, "values": [float(v) for v in np.asarray(params)]}
