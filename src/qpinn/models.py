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
degree d is v(θ, u) = Σ_b C_b(θ)·u^(d−b)·(i√(1 − u²))^b
(``qsp.chain_coefficients``), so at L = 1 (chains of degree 0 and 1) each
model is W(θ)·[ψ(x) ⊗ ψ(t)] with ψ(u) = [1, u, √(1 − u²)] and a real 3×3
coefficient matrix W that depends on the angles alone:

    quantum_inspired:  W = Re(A ⊗ B),  A = ½(a₁ + a₂) over x, B likewise over t;
    qpinn:             W = ¼·Re(P ⊗ T₁ + M ⊗ T₂),

where a degree-0 chain contributes C₀ to ψ₀ and a degree-1 chain C₀ to ψ₁
and i·C₁ to ψ₂; P and M are the x branches at ±λ and T₁, T₂ the t chains
of the closed form above.  Values and derivatives are W contracted with
products of ψ, ψ′ = [0, 1, −u/s] and ψ″ = [0, 0, −1/s³] (s = √(1 − u²)), so
a training epoch computes W once per parameter row and contracts it once
against the collocation features.  Those features depend on the points
alone, so they are built once per point set: ``batched_eval`` keeps them
until its points change, and a training run builds them in epoch 0.

The network runs forward mode on channel tuples, ``(v,)`` for values and
(v, v_x, v_xx, v_t) for derivatives: ``_trace`` takes one parameter row
through every layer, with ``duals.t_tanh`` as the activation (v_t rides
along as a first derivative in a second direction), and records each
layer's (input, pre-activation) pair.  A finite-difference stack perturbs one coordinate
per row, so up to the perturbed layer its activations equal the base
row's.  Every evaluation traces row 0 once; rows that perturb one
coordinate of it are grouped by layer, rebuild that layer's
pre-activation from the base record and share one ``_tail`` with the base
weights (a few flat matmuls instead of 963 tiny ones); any other row runs
its own ``_trace``.

Parameter layouts (one flat vector per model):
qpinn / quantum_inspired: [θ1x, θ2x(2) | θ1t, θ2t(2) | λ (qpinn only)];
counterpart: [p1 c0..c2 | p2 c0..c2];
fully_connected: per layer, weights (fan_in×fan_out, row-major) then biases.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import circuits as cir
from . import duals, qsp
from .errors import DomainError

KINDS = ("qpinn", "quantum_inspired", "counterpart", "fully_connected")

_FC_LAYERS = [(2, 10), (10, 10), (10, 10), (10, 10), (10, 10), (10, 1)]

_PARAM_COUNTS = {
    "qpinn": 7,
    "quantum_inspired": 6,
    "counterpart": 6,
    "fully_connected": sum(fi * fo + fo for fi, fo in _FC_LAYERS),
}


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    output_scale: float = 10.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")

    @property
    def n_params(self) -> int:
        return _PARAM_COUNTS[self.kind]


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
    if spec.kind == "quantum_inspired":
        return rng.uniform(0.0, 2.0 * np.pi, 6)
    if spec.kind == "qpinn":
        return rng.uniform(0.0, 2.0 * np.pi, 7)
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


class _EvaluatorBase:
    def batched_eval(self, params2d, t_int, x_int, t_bnd, x_bnd):
        """((v, v_t, v_x, v_xx) at interior, plain values at boundary)."""
        return self.bundles(params2d, t_int, x_int), self.values(params2d, t_bnd, x_bnd)


def _psi(u, order: int) -> np.ndarray:
    """ψ(u) = [1, u, s] with s = √(1 − u²), then ``order`` derivatives:
    ψ′ = [0, 1, −u/s] and ψ″ = [0, 0, −1/s³]: an (order + 1, 3, N) array.

    Values need |u| ≤ 1; derivatives, which divide by s, need |u| < 1.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    top = np.max(np.abs(u), initial=0.0)
    if order and top >= 1.0:
        raise DomainError("chain derivatives require |u| < 1")
    if top > 1.0:
        raise DomainError("chain evaluation requires |u| <= 1")
    s = np.sqrt(1.0 - u * u)
    out = np.zeros((order + 1, 3, u.size))
    out[0, 0], out[0, 1], out[0, 2] = 1.0, u, s
    if order >= 1:
        out[1, 1], out[1, 2] = 1.0, -u / s
    if order >= 2:
        out[2, 2] = -1.0 / (s * s * s)
    return out


def _on_psi(coeffs) -> np.ndarray:
    """Chain coefficients (n, d+1) as a complex (n, 3) vector over ψ: a
    degree-0 chain is C₀·ψ₀, a degree-1 chain C₀·ψ₁ + i·C₁·ψ₂."""
    out = np.zeros((coeffs.shape[0], 3), dtype=complex)
    if coeffs.shape[1] == 1:
        out[:, 0] = coeffs[:, 0]
    else:
        out[:, 1] = coeffs[:, 0]
        out[:, 2] = 1j * coeffs[:, 1]
    return out


def _outer(a, b) -> np.ndarray:
    """Row-wise outer products of (n, 3) vectors: (n, 3, 3)."""
    return a[:, :, None] * b[:, None, :]


class _SeparableEvaluator(_EvaluatorBase):
    """A chain model as its polynomial: output_scale·Σ_ij W_ij(θ)·ψ_i(x)·ψ_j(t).

    Subclasses supply ``coefficients(params2d)``, the real (B, 3, 3) matrix
    W; every output is W contracted with a feature matrix F of ψ products
    (the module docstring).  ``batched_eval`` keeps F for the points of its
    last call and rebuilds it only when a point array changes (compared bit
    for bit against a private copy), so a training run builds its
    collocation features once.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self._points = None   # bytes of the points that ``_feats`` was built from
        self._feats = None

    @staticmethod
    def _features(blocks):
        """(9, N) feature matrix of the (ψ-features of x, ψ-features of t)
        blocks side by side, and the column bounds of each block."""
        feats = np.concatenate([(fx[:, None, :] * ft[None, :, :]).reshape(9, -1)
                                for fx, ft in blocks], axis=1)
        return feats, np.cumsum([0] + [fx.shape[1] for fx, _ in blocks]).tolist()

    def _contract(self, params, feats, bounds):
        """W·F sliced into one (B, N) view per block."""
        w = self.spec.output_scale * self.coefficients(np.atleast_2d(params))
        # einsum, not BLAS ``@``: BLAS sums a row differently for another batch size
        out = np.einsum("bk,kn->bn", w.reshape(-1, 9), feats)
        return [out[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    @staticmethod
    def _bundle_blocks(t, x):
        """Features of (v, v_t, v_x, v_xx)."""
        (px, dpx, ddpx), (pt, dpt) = _psi(x, 2), _psi(t, 1)
        return [(px, pt), (px, dpt), (dpx, pt), (ddpx, pt)]

    def values(self, params, t, x):
        return self._contract(params, *self._features([(_psi(x, 0)[0], _psi(t, 0)[0])]))[0]

    def bundles(self, params, t, x):
        return tuple(self._contract(params, *self._features(self._bundle_blocks(t, x))))

    def batched_eval(self, params2d, t_int, x_int, t_bnd, x_bnd):
        points = tuple(np.asarray(p, dtype=float).tobytes() for p in (t_int, x_int, t_bnd, x_bnd))
        if points != self._points:
            blocks = self._bundle_blocks(t_int, x_int) + [(_psi(x_bnd, 0)[0], _psi(t_bnd, 0)[0])]
            self._feats = self._features(blocks)
            self._points = points
        *bundles, bnd = self._contract(params2d, *self._feats)
        return tuple(bundles), bnd


class _QpinnEvaluator(_SeparableEvaluator):
    """Exact closed form from four 2×2 chains (module docstring)."""

    kind = "qpinn"
    groups = (slice(0, 3), slice(3, 6), slice(6, 7))

    @staticmethod
    def coefficients(params):
        """W = ¼·Re(P ⊗ T₁ + M ⊗ T₂): P, M the x branches at ±λ, T₁, T₂ the t chains."""
        b = params.shape[0]
        lam = params[:, 6:7]
        x1 = params[:, 0:1]
        deg1 = np.concatenate([params[:, 1:3], params[:, 1:3], params[:, 4:6]])
        deg1[:2 * b, 1:] += np.concatenate([lam, -lam])
        c0 = qsp.chain_coefficients(np.concatenate([x1 + lam, x1 - lam, params[:, 3:4]]))
        c1 = qsp.chain_coefficients(deg1)
        x_branches = _on_psi(c0[:2 * b]) + _on_psi(c1[:2 * b])
        plus, minus = x_branches[:b], x_branches[b:]
        t1, t2 = _on_psi(c0[2 * b:]), _on_psi(c1[2 * b:])
        return 0.25 * (_outer(plus, t1) + _outer(minus, t2)).real


class _QuantumInspiredEvaluator(_SeparableEvaluator):
    """Dequantized evaluation: two 2×2 chains, never the 5-qubit simulator."""

    kind = "quantum_inspired"
    groups = (slice(0, 3), slice(3, 6))

    @staticmethod
    def coefficients(params):
        """W = Re(A ⊗ B) with A = ½(a₁ + a₂) over x and B likewise over t."""
        b = params.shape[0]
        c0 = qsp.chain_coefficients(np.concatenate([params[:, 0:1], params[:, 3:4]]))
        c1 = qsp.chain_coefficients(np.concatenate([params[:, 1:3], params[:, 4:6]]))
        a = 0.5 * (_on_psi(c0) + _on_psi(c1))
        return _outer(a[:b], a[b:]).real


class _CounterpartEvaluator(_EvaluatorBase):
    kind = "counterpart"

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.groups = [slice(0, 3), slice(3, 6)]

    @staticmethod
    def _horner(c, u):
        # c: (B, 3) coefficient columns, u: (N,) points → (B, N)
        u = u[None, :]
        return c[:, [0]] + u * (c[:, [1]] + u * c[:, [2]])

    def values(self, params, t, x):
        params = np.atleast_2d(params)
        p1 = self._horner(params[:, :3], np.asarray(x, float))
        p2 = self._horner(params[:, 3:], np.asarray(t, float))
        return self.spec.output_scale * p1 * p2

    def bundles(self, params, t, x):
        params = np.atleast_2d(params)
        x = np.asarray(x, float)
        t = np.asarray(t, float)
        c1, c2 = params[:, :3], params[:, 3:]
        p1 = self._horner(c1, x)
        p2 = self._horner(c2, t)
        dp1 = c1[:, [1]] + 2.0 * c1[:, [2]] * x[None, :]
        ddp1 = np.broadcast_to(2.0 * c1[:, [2]], p1.shape)
        dp2 = c2[:, [1]] + 2.0 * c2[:, [2]] * t[None, :]
        sc = self.spec.output_scale
        return sc * p1 * p2, sc * p1 * dp2, sc * dp1 * p2, sc * ddp1 * p2


def _affine(chans, w, b) -> tuple:
    """chans·w over a channel tuple, plus b on the value channel."""
    return (chans[0] @ w + b,) + tuple(c @ w for c in chans[1:])


def _tanh(z) -> tuple:
    """tanh over ``(v,)`` or ``(v, v_x, v_xx, v_t)``."""
    return duals.c_lift(z, np.tanh, duals.t_tanh)


def _trace(layers, chans):
    """Run the network's (w, b) ``layers`` over a channel tuple of (N, 2)
    inputs; returns the output channels and each layer's (input,
    pre-activation) pair."""
    record = []
    for i, (w, b) in enumerate(layers):
        if i:
            chans = _tanh(z)
        z = _affine(chans, w, b)
        record.append((chans, z))
    return z, record


def _tail(layers, z, start: int):
    """Finish a forward from the pre-activation ``z`` of layer ``start``."""
    for w, b in layers[start + 1:]:
        z = _affine(_tanh(z), w, b)
    return z


def _perturbed(inp, z, coords, amounts):
    """Pre-activations of one layer, recorded as (``inp``, ``z``), for rows
    that each add ``amounts`` to one weight (in, out) or bias (fan_in, out)
    of it: channels of shape (G, N, fan_out)."""
    out = tuple(np.repeat(c[None], len(amounts), axis=0) for c in z)
    i_in, j_out, fan_in = coords[:, 1], coords[:, 2], inp[0].shape[1]
    w = np.nonzero(i_in < fan_in)[0]
    for o, a in zip(out, inp):
        o[w, :, j_out[w]] += amounts[w, None] * a[:, i_in[w]].T
    b = np.nonzero(i_in == fan_in)[0]
    out[0][b, :, j_out[b]] += amounts[b, None]
    return out


class _FullyConnectedEvaluator(_EvaluatorBase):
    """The tanh network over channel tuples, with the finite-difference fast
    path of the module docstring."""

    kind = "fully_connected"

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.groups, coords, off = [], [], 0
        for layer, (fi, fo) in enumerate(_FC_LAYERS):
            self.groups += [slice(off, off + fi * fo), slice(off + fi * fo, off + fi * fo + fo)]
            idx = np.arange(fi * fo + fo)   # a bias's input index is fan_in
            coords.append(np.stack([np.full(idx.size, layer), idx // fo, idx % fo], axis=1))
            off += fi * fo + fo
        self._coords = np.concatenate(coords)   # (layer, input, output) per coordinate

    def _layers(self, row):
        return [(row[w].reshape(fi, fo), row[b])
                for w, b, (fi, fo) in zip(self.groups[0::2], self.groups[1::2], _FC_LAYERS)]

    @staticmethod
    def _inputs(t, x, dual: bool) -> tuple:
        """``(a,)`` with rows (t, x), or (a, ∂a/∂x, ∂²a/∂x², ∂a/∂t) when ``dual``."""
        a = np.stack([np.asarray(t, float), np.asarray(x, float)], axis=1)
        if not dual:
            return (a,)
        seeds = np.zeros((3,) + a.shape)
        seeds[0, :, 1] = seeds[2, :, 0] = 1.0
        return (a, *seeds)

    def _eval(self, params2d, *inputs) -> list:
        """Scaled (channels, B, N) outputs of every parameter row, one array
        per channel tuple in ``inputs``."""
        params2d = np.atleast_2d(params2d)
        base = self._layers(params2d[0])
        delta = params2d - params2d[0]
        changed = delta != 0
        coord = np.argmax(changed, axis=1)
        single = np.count_nonzero(changed, axis=1) == 1
        by_layer = [np.nonzero(single & (self._coords[coord, 0] == layer))[0]
                    for layer in range(len(_FC_LAYERS))]
        outs = []
        for chans in inputs:
            z, record = _trace(base, chans)
            out = np.empty((len(chans), params2d.shape[0], chans[0].shape[0]))
            out[:, 0] = [c[:, 0] for c in z]
            for layer, rows in enumerate(by_layer):
                if rows.size:
                    zg = _perturbed(*record[layer], self._coords[coord[rows]],
                                    delta[rows, coord[rows]])
                    out[:, rows] = [c[..., 0] for c in _tail(base, zg, layer)]
            for r in np.nonzero(~single)[0][1:]:   # row 0 is the base
                out[:, r] = [c[:, 0] for c in _trace(self._layers(params2d[r]), chans)[0]]
            outs.append(self.spec.output_scale * out)
        return outs

    def values(self, params, t, x):
        return self._eval(params, self._inputs(t, x, False))[0][0]

    def bundles(self, params, t, x):
        (v, v_x, v_xx, v_t), = self._eval(params, self._inputs(t, x, True))
        return v, v_t, v_x, v_xx

    def batched_eval(self, params2d, t_int, x_int, t_bnd, x_bnd):
        (v, v_x, v_xx, v_t), (bnd,) = self._eval(
            params2d, self._inputs(t_int, x_int, True), self._inputs(t_bnd, x_bnd, False))
        return (v, v_t, v_x, v_xx), bnd


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


def params_from_json_dict(doc: dict) -> tuple[ModelSpec, np.ndarray]:
    spec = ModelSpec(doc["kind"])
    values = np.asarray(doc["values"], dtype=float)
    if values.size != spec.n_params:
        raise ValueError("parameter vector length does not match model kind")
    return spec, values
