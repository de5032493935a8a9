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
appends its ±λ-shifted x angles first), and two gathers and a product
place them in W, which is C-ordered.  ``backward``, the exact gradient of a
flat cotangent on the outputs of the last one-row ``batched_eval``,
contracts it with the held features and then with the ∂W/∂θ that forward
kept: the ±π shift rule for the chains (each angle enters W as
e^{±iθ/2}), a central difference for the bilinear counterpart.

The network runs forward mode on channel tuples, ``(v,)`` for values and
(v, v_x, v_xx, v_t) for derivatives (v_t rides along as a first derivative
in a second direction): ``_trace`` takes one parameter row through every
layer and records each layer's (input, pre-activation) pair for the
reverse pass, ``_reverse``.

Parameter layouts (one flat vector per model):
qpinn / quantum_inspired: [θ1x, θ2x(2) | θ1t, θ2t(2) | λ (qpinn only)];
counterpart: [p1 c0..c2 | p2 c0..c2];
fully_connected: per layer, weights (fan_in×fan_out, row-major) then biases.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import circuits as cir
from . import duals, qsp
from .errors import DomainError

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


def qpinn_circuit() -> cir.Circuit:
    """The 5-qubit QPINN circuit with λ as parameter slot 6."""
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


def _points_key(*arrays) -> tuple:
    """Bytes copies of arrays: a cache key that changes when one is replaced
    or mutated in place."""
    return tuple(np.asarray(p, dtype=float).tobytes() for p in arrays)


class _Evaluator:
    """An evaluator that holds what its ``_build`` makes of the collocation
    points (t_int, x_int, t_bnd, x_bnd) and rebuilds it only when a point
    array is replaced or mutated, so a training run builds it once.

    ``backward`` differentiates the last ``batched_eval``, which must be of
    one parameter row, at the row and the points as that forward saw them:
    the forward keeps its own copy of what the gradient needs."""

    _points = _held = None   # ``_held`` and the ``_points_key`` of its points

    def _collocate(self, t_int, x_int, t_bnd, x_bnd):
        points = _points_key(t_int, x_int, t_bnd, x_bnd)
        if points != self._points:
            self._held = self._build(t_int, x_int, t_bnd, x_bnd)
            self._points = points
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
        top = np.max(np.abs(u), initial=0.0)
        if order and top >= 1.0:
            raise DomainError("chain derivatives require |u| < 1")
        if top > 1.0:
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
    (the module docstring), held for the collocation points.  A one-row
    ``batched_eval``, a training epoch's forward, takes W and ∂W/∂θ from
    ``_w_and_jac`` and keeps ∂W for ``backward``.
    """

    square = False   # ψ₂ = u² rather than √(1 − u²)
    shift_scale = 0.25

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self._jac = None   # ∂W/∂θ of the last one-row forward
        # added to a row, its ``duals.shift_stack(row, π)``: −0.0 leaves every
        # angle as it is, −0.0 among them
        self._shifts = duals.shift_stack(np.full(self.groups[-1].stop, -0.0), np.pi)

    @staticmethod
    def _features(blocks):
        """(9, N) feature matrix of the (ψ-features of x, ψ-features of t)
        blocks side by side, and the column bounds of each block."""
        feats = np.concatenate([(fx[:, None, :] * ft[None, :, :]).reshape(9, -1)
                                for fx, ft in blocks], axis=1)
        return feats, np.cumsum([0] + [fx.shape[1] for fx, _ in blocks]).tolist()

    def _blocks(self, t, x, dual: bool):
        """Feature blocks of v, or of (v, v_t, v_x, v_xx) when ``dual``."""
        if not dual:
            return [(_psi(x, 0, self.square)[0], _psi(t, 0, self.square)[0])]
        (px, dpx, ddpx), (pt, dpt) = _psi(x, 2, self.square), _psi(t, 1, self.square)
        return [(px, pt), (px, dpt), (dpx, pt), (ddpx, pt)]

    def _build(self, t_int, x_int, t_bnd, x_bnd):
        """The ``_features`` of the bundles at the interior and of the values
        at the boundary."""
        return self._features(self._blocks(t_int, x_int, True)
                              + self._blocks(t_bnd, x_bnd, False))

    def _contract(self, w, feats, bounds):
        """output_scale·W·F sliced into one (B, N) view per block."""
        w = self.spec.output_scale * w
        # einsum, not BLAS ``@``: BLAS sums a row differently for another batch size
        out = np.einsum("bk,kn->bn", w.reshape(-1, 9), feats)
        return [out[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    def values(self, params, t, x):
        return self._contract(self.coefficients(np.atleast_2d(params)),
                              *self._features(self._blocks(t, x, False)))[0]

    def bundles(self, params, t, x):
        return tuple(self._contract(self.coefficients(np.atleast_2d(params)),
                                    *self._features(self._blocks(t, x, True))))

    def batched_eval(self, params2d, t_int, x_int, t_bnd, x_bnd):
        """((v, v_t, v_x, v_xx) at the interior, v at the boundary), (B, N)
        views of one output array, one row per parameter row."""
        feats = self._collocate(t_int, x_int, t_bnd, x_bnd)
        params2d = np.atleast_2d(params2d)
        if len(params2d) == 1:
            w, self._jac = self._w_and_jac(params2d)
        else:
            w = self.coefficients(params2d)
        *bundles, bnd = self._contract(w, *feats)
        return tuple(bundles), bnd

    def _w_and_jac(self, row):
        """W, (1, 3, 3), and ∂W/∂θ, (P, 3, 3), of one parameter row from one
        ``coefficients`` call on its ±π shift stack, whose row 0 is the row:
        the ±π shift rule, or for a W linear in each parameter the central
        difference over ±π."""
        w = self.coefficients(row + self._shifts)
        return w[:1], self.shift_scale * (w[1::2] - w[2::2])

    def jacobian(self, params) -> np.ndarray:
        """∂W/∂θ, (P, 3, 3), of one parameter row."""
        return self._w_and_jac(np.asarray(params, dtype=float))[1]

    def backward(self, cotangent) -> np.ndarray:
        """Gradient of Σ cotangent·output over the row of the last one-row
        ``batched_eval`` at its points; ``cotangent`` is one flat row laid out
        as the outputs: v, v_t, v_x, v_xx, boundary."""
        g = np.einsum("kn,n->k", self._held[0], cotangent)
        return self.spec.output_scale * np.einsum("pk,k->p", self._jac.reshape(-1, 9), g)


class _QuantumInspiredEvaluator(_SeparableEvaluator):
    """Dequantized evaluation: two 2×2 chains, never the 5-qubit simulator."""

    groups = (slice(0, 3), slice(3, 6))
    # the chains θ₁ˣ, θ₂ˣ, θ₁ᵗ, θ₂ᵗ give the coefficients [a_x | a_t]; W_ij
    # takes a_x[i] from column _X[i, j] and a_t[j] from column _T[i, j]
    _plan = qsp.coefficient_plan([(0,), (1, 2), (3,), (4, 5)])
    _X = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
    _T = np.array([[3, 4, 5]] * 3)

    @staticmethod
    def _angles(params):
        return params

    @classmethod
    def coefficients(cls, params):
        """W = Re(A ⊗ B) with A = ½(a₁ + a₂) over x and B likewise over t:
        the plan's one cos, then two gathers and one product.  W must be
        C-ordered, as every ``coefficients`` is: the einsum over ∂W's
        reshape sums in memory order, and an F-ordered W of equal values
        can round the gradient differently (``take`` keeps C order, where
        ``c[:, self._X]`` would not)."""
        c = qsp.plan_coefficients(cls._plan, cls._angles(params))
        return c.take(cls._X, axis=1) * c.take(cls._T, axis=1) * _W_SIGNS


class _QpinnEvaluator(_QuantumInspiredEvaluator):
    """Exact closed form from four 2×2 chains (module docstring)."""

    groups = (slice(0, 3), slice(3, 6), slice(6, 7))
    # the angles [θˣ⊕λ | θᵗ | θˣ⊖λ]: column 0 of W from the x chains at +λ,
    # columns 1 and 2 from the x chains at −λ
    _plan = qsp.coefficient_plan([(0,), (1, 2), (3,), (4, 5), (6,), (7, 8)])
    _X = np.array([[0, 6, 6], [1, 7, 7], [2, 8, 8]])
    _ANGLES = [0, 1, 2, 3, 4, 5, 0, 1, 2]
    _LAMBDA = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, -1.0])

    @classmethod
    def _angles(cls, params):
        """λ added to the x chains' last angles, then subtracted from them."""
        return params[:, cls._ANGLES] + params[:, 6:7] * cls._LAMBDA


class _CounterpartEvaluator(_SeparableEvaluator):
    """p1(x)·p2(t) as W = c₁ ⊗ c₂ over ψ(u) = [1, u, u²]."""

    groups = (slice(0, 3), slice(3, 6))
    square = True
    shift_scale = 0.5 / np.pi   # W is bilinear

    @staticmethod
    def coefficients(params):
        return params[:, :3, None] * params[:, None, 3:]


def _trace(layers, chans):
    """Run the network's (w, b) ``layers`` over a channel tuple of (N, 2)
    inputs; returns the output channels and each layer's (input,
    pre-activation) pair.  The activation is tanh on ``(v,)``, or
    ``duals.t_tanh`` on (v, v_x, v_xx, v_t)."""
    record = []
    for i, (w, b) in enumerate(layers):
        if i:
            chans = duals.c_lift(z, np.tanh, duals.t_tanh)
        z = (chans[0] @ w + b,) + tuple(c @ w for c in chans[1:])
        record.append((chans, z))
    return z, record


def _tanh_pullback(y, z, g) -> tuple:
    """Cotangent on the pre-activation channels ``z`` from the cotangent ``g``
    on the activations ``y``: y₀ = tanh z₀, y₁ = s·z₁, y₂ = s·z₂ − 2y₀·s·z₁²
    and yₖ = s·zₖ for k ≥ 3, with s = 1 − y₀² and ds/dz₀ = −2y₀·s."""
    y0, s = y[0], 1.0 - y[0] * y[0]
    if len(z) == 1:
        return (s * g[0],)
    first = sum(gk * zk for gk, zk in zip(g[1:], z[1:]))
    g0 = s * (g[0] - 2.0 * y0 * first - 2.0 * g[2] * z[1] * z[1] * (s - 2.0 * y0 * y0))
    return (g0, s * (g[1] - 4.0 * y0 * g[2] * z[1])) + tuple(s * gk for gk in g[2:])


def _reverse(layers, records, cots) -> np.ndarray:
    """The flat (w, b) gradient by the reverse pass through ``_trace``
    ``records`` of the ``layers`` from cotangents ``cots`` on their outputs."""
    grads = []
    for i in reversed(range(len(layers))):
        w = layers[i][0]
        grads[:0] = [sum(c.T @ g for rec, cot in zip(records, cots)
                         for c, g in zip(rec[i][0], cot)).ravel(),
                     sum(cot[0].sum(axis=0) for cot in cots)]
        if i:
            cots = [_tanh_pullback(rec[i][0], rec[i - 1][1], tuple(g @ w.T for g in cot))
                    for rec, cot in zip(records, cots)]
    return np.concatenate(grads)


class _FullyConnectedEvaluator(_Evaluator):
    """The tanh network: one ``_trace`` per parameter row; ``backward`` runs
    ``_reverse`` through the traces of the last row ``batched_eval`` took."""

    groups = tuple(slice(lo, hi) for lo, hi in zip(_FC_BOUNDS, _FC_BOUNDS[1:]))

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self._saved = None   # (layers, records) of the last forward's last row

    def _layers(self, row):
        return [(row[w].reshape(fi, fo), row[b])
                for w, b, (fi, fo) in zip(self.groups[0::2], self.groups[1::2], _FC_LAYERS)]

    @staticmethod
    def _inputs(t, x, dual: bool) -> tuple:
        """``(a,)`` with rows (t, x), or (a, ∂a/∂x, ∂²a/∂x², ∂a/∂t) when ``dual``."""
        a = np.stack([np.asarray(t, float), np.asarray(x, float)], axis=1)
        seeds = np.zeros((3,) + a.shape)
        seeds[0, :, 1] = seeds[2, :, 0] = 1.0
        return (a, *seeds) if dual else (a,)

    def _build(self, t_int, x_int, t_bnd, x_bnd):
        """The input channels of the interior (dual) and of the boundary."""
        return self._inputs(t_int, x_int, True), self._inputs(t_bnd, x_bnd, False)

    def _eval(self, params2d, *inputs):
        """Scaled (channels, B, N) outputs of every parameter row, one array
        per channel tuple in ``inputs``, and the last row's (layers,
        records)."""
        # a copy: the layers are views of it, and the kept ones must not
        # change when the caller mutates its row
        params2d = np.array(params2d, dtype=float, ndmin=2)
        outs = [np.empty((len(c), params2d.shape[0], c[0].shape[0])) for c in inputs]
        for r, row in enumerate(params2d):
            layers = self._layers(row)
            traces = [_trace(layers, chans) for chans in inputs]
            for out, (z, _) in zip(outs, traces):
                out[:, r] = [c[:, 0] for c in z]
        return ([self.spec.output_scale * out for out in outs],
                (layers, [r for _, r in traces]))

    def values(self, params, t, x):
        return self._eval(params, self._inputs(t, x, False))[0][0][0]

    def bundles(self, params, t, x):
        (v, v_x, v_xx, v_t), = self._eval(params, self._inputs(t, x, True))[0]
        return v, v_t, v_x, v_xx

    def batched_eval(self, params2d, t_int, x_int, t_bnd, x_bnd):
        """As ``_SeparableEvaluator.batched_eval``; keeps the traces of the
        last row for ``backward``."""
        outs, self._saved = self._eval(params2d, *self._collocate(t_int, x_int, t_bnd, x_bnd))
        (v, v_x, v_xx, v_t), (bnd,) = outs
        return (v, v_t, v_x, v_xx), bnd

    def backward(self, cotangent) -> np.ndarray:
        """As ``_SeparableEvaluator.backward``, by the reverse pass through
        the kept traces."""
        n = len(self._held[0][0])
        g_v, g_t, g_x, g_xx = (cotangent[lo:lo + n] for lo in range(0, 4 * n, n))
        cots = [(g_v, g_x, g_xx, g_t), (cotangent[4 * n:],)]
        cots = [tuple(self.spec.output_scale * np.reshape(g, (-1, 1)) for g in c) for c in cots]
        return _reverse(*self._saved, cots)


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
        if self.params.size != spec.n_params:
            raise ValueError(
                f"{spec.kind} expects {spec.n_params} parameters, got {self.params.size}"
            )
        self._ev = make_evaluator(spec)

    def values(self, t, x):
        return self._ev.values(self.params[None, :], t, x)[0]

    def derivatives(self, t, x):
        return tuple(a[0] for a in self._ev.bundles(self.params[None, :], t, x))


def params_to_json_dict(spec: ModelSpec, params) -> dict:
    return {"kind": spec.kind, "values": [float(v) for v in np.asarray(params)]}
