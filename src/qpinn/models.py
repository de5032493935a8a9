"""The four trainable hypothesis models over (t, x).

All models output ``output_scale`` × a core value:

- ``qpinn``: 5-qubit rank-1 TD circuit (D=2, L=1) plus a controlled-IsingZZ
  entangling layer with trainable angle λ (``qpinn_circuit``).  Qubits: test
  ancilla q0; (parity q1, chain q2) for x; (parity q3, chain q4) for t; the
  entangler acts on (q2, q3).  It is evaluated exactly without the
  statevector, from four 2×2 chains (``qsp.chain_value``, written v below).
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

Parameter layouts (one flat vector per model):
qpinn / quantum_inspired: [θ1x, θ2x(2) | θ1t, θ2t(2) | λ (qpinn only)];
counterpart: [p1 c0..c2 | p2 c0..c2];
fully_connected: per layer, weights (fan_in×fan_out, row-major) then biases.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import circuits as cir
from . import qsp

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


def _separable_bundles(pairs, scale):
    """(v, v_t, v_x, v_xx) of scale·Re Σ a(x)·b(t) over dual-triple pairs (a, b).

    Each a is seeded in x and each b in t; the x derivatives hold b constant
    and the t derivative holds a constant.
    """
    total = lambda i, j: sum(a[i] * b[j] for a, b in pairs)
    return (scale * total(0, 0).real, scale * total(0, 1).real,
            scale * total(1, 0).real, scale * total(2, 0).real)


class _QpinnEvaluator(_EvaluatorBase):
    """Exact closed-form evaluation from four 2×2 chains (module docstring)."""

    kind = "qpinn"

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.groups = [slice(0, 3), slice(3, 6), slice(6, 7)]

    @staticmethod
    def _chains(params, x, t):
        """(x branch under t parity 0, x branch under t parity 1, t chain 1, t chain 2).

        The ±λ-shifted angles of each x chain share one batch, rows [+λ; −λ].
        """
        b = params.shape[0]
        lam = params[:, 6:7]
        x1 = params[:, 0:1]
        x2 = params[:, 1:3]
        sx1 = np.concatenate([x1 + lam, x1 - lam])
        sx2 = np.concatenate([x2, x2])
        sx2[:, 1:] += np.concatenate([lam, -lam])
        c1 = qsp.chain_value(sx1, x)
        c2 = qsp.chain_value(sx2, x)
        t1 = qsp.chain_value(params[:, 3:4], t)
        t2 = qsp.chain_value(params[:, 4:6], t)
        if isinstance(x, tuple):
            plus = tuple(p[:b] + q[:b] for p, q in zip(c1, c2))
            minus = tuple(p[b:] + q[b:] for p, q in zip(c1, c2))
        else:
            plus, minus = c1[:b] + c2[:b], c1[b:] + c2[b:]
        return plus, minus, t1, t2

    def values(self, params, t, x):
        params = np.atleast_2d(params)
        plus, minus, t1, t2 = self._chains(params, np.asarray(x, float),
                                           np.asarray(t, float))
        return self.spec.output_scale * 0.25 * (plus * t1 + minus * t2).real

    def bundles(self, params, t, x):
        params = np.atleast_2d(params)
        x = np.asarray(x, float)
        t = np.asarray(t, float)
        zero = np.zeros_like(x)
        plus, minus, t1, t2 = self._chains(params, (x, zero + 1.0, zero),
                                           (t, zero + 1.0, zero))
        return _separable_bundles([(plus, t1), (minus, t2)], 0.25 * self.spec.output_scale)


class _QuantumInspiredEvaluator(_EvaluatorBase):
    """Dequantized evaluation: two 2×2 chains, never the 5-qubit simulator."""

    kind = "quantum_inspired"

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.groups = [slice(0, 3), slice(3, 6)]

    @staticmethod
    def _pair(params, lo: int, var):
        a1 = qsp.chain_value(params[:, lo:lo + 1], var)
        a2 = qsp.chain_value(params[:, lo + 1:lo + 3], var)
        if isinstance(a1, tuple):
            return tuple(0.5 * (p + q) for p, q in zip(a1, a2))
        return 0.5 * (a1 + a2)

    def values(self, params, t, x):
        params = np.atleast_2d(params)
        ax = self._pair(params, 0, np.asarray(x, float))
        at = self._pair(params, 3, np.asarray(t, float))
        return self.spec.output_scale * (ax * at).real

    def bundles(self, params, t, x):
        params = np.atleast_2d(params)
        x = np.asarray(x, float)
        t = np.asarray(t, float)
        zero = np.zeros_like(x)
        ax_d = self._pair(params, 0, (x, zero + 1.0, zero))
        at_d = self._pair(params, 3, (t, zero + 1.0, zero))
        return _separable_bundles([(ax_d, at_d)], self.spec.output_scale)


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


class _FullyConnectedEvaluator(_EvaluatorBase):
    kind = "fully_connected"

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.groups = []
        self._slices = []
        self._coord_layer = np.empty(_PARAM_COUNTS["fully_connected"], dtype=int)
        self._coord_in = np.empty_like(self._coord_layer)   # -1 for bias coords
        self._coord_out = np.empty_like(self._coord_layer)
        off = 0
        for layer, (fi, fo) in enumerate(_FC_LAYERS):
            w = slice(off, off + fi * fo)
            b = slice(off + fi * fo, off + fi * fo + fo)
            self._slices.append((w, b, fi, fo))
            self.groups += [w, b]
            idx = np.arange(fi * fo)
            self._coord_layer[w] = layer
            self._coord_in[w] = idx // fo
            self._coord_out[w] = idx % fo
            self._coord_layer[b] = layer
            self._coord_in[b] = -1
            self._coord_out[b] = np.arange(fo)
            off = b.stop

    def _weights(self, params):
        out = []
        for w, b, fi, fo in self._slices:
            out.append((params[:, w].reshape(-1, fi, fo), params[:, b][:, None, :]))
        return out

    def _forward(self, params, t, x, seed: np.ndarray | None):
        """Batched forward; ``seed`` is an optional (N, 2) d1 seed matrix."""
        params = np.atleast_2d(params)
        a = np.stack([np.asarray(t, float), np.asarray(x, float)], axis=1)[None, :, :]
        if seed is None:
            for i, (w, b) in enumerate(self._weights(params)):
                a = np.matmul(a, w) + b
                if i < len(_FC_LAYERS) - 1:
                    a = np.tanh(a)
            return self.spec.output_scale * a[..., 0]
        d1 = seed[None, :, :]
        d2 = np.zeros_like(d1)
        for i, (w, b) in enumerate(self._weights(params)):
            a, d1, d2 = np.matmul(a, w) + b, np.matmul(d1, w), np.matmul(d2, w)
            if i < len(_FC_LAYERS) - 1:
                y = np.tanh(a)
                s = 1.0 - y * y
                a, d1, d2 = y, s * d1, s * d2 - 2.0 * y * s * d1 * d1
        sc = self.spec.output_scale
        return sc * a[..., 0], sc * d1[..., 0], sc * d2[..., 0]

    def values(self, params, t, x):
        return self._forward(params, t, x, None)

    def bundles(self, params, t, x):
        # one pass: rows 0..N-1 seeded on x (input column 1), rows N.. on t
        x = np.asarray(x, float)
        t = np.asarray(t, float)
        n = x.size
        seed = np.zeros((2 * n, 2))
        seed[:n, 1] = 1.0
        seed[n:, 0] = 1.0
        v, d1, d2 = self._forward(params, np.concatenate([t, t]),
                                  np.concatenate([x, x]), seed)
        return v[:, :n], d1[:, n:], d1[:, :n], d2[:, :n]

    # -- finite-difference fast path -------------------------------------
    # A gradient stack perturbs one coordinate per row, so activations up to
    # the perturbed layer equal the base run's; only the tail is recomputed,
    # with shared weights, which turns 963 tiny matmuls into a few flat ones.

    def batched_eval(self, params2d, t_int, x_int, t_bnd, x_bnd):
        params2d = np.atleast_2d(params2d)
        delta = params2d - params2d[0]
        changed = delta != 0
        if params2d.shape[0] == 1 or np.any(np.count_nonzero(changed[1:], axis=1) != 1) \
                or changed[0].any():
            return super().batched_eval(params2d, t_int, x_int, t_bnd, x_bnd)
        rows = np.arange(1, params2d.shape[0])
        coords = np.argmax(changed[1:], axis=1)
        amounts = delta[rows, coords]

        base_w = self._weights(params2d[0:1])
        n = len(x_int)
        # channels: value, d1 in x, d2 in x, d1 in t (d2 in t is never needed)
        a0 = np.stack([np.asarray(t_int, float), np.asarray(x_int, float)], axis=1)
        sx = np.zeros((n, 2))
        sx[:, 1] = 1.0
        st = np.zeros((n, 2))
        st[:, 0] = 1.0
        chans = (a0, sx, np.zeros((n, 2)), st)
        a_bnd = np.stack([np.asarray(t_bnd, float), np.asarray(x_bnd, float)], axis=1)
        in_int, in_bnd, z_int, z_bnd = [], [], [], []
        for i, (w, b) in enumerate(base_w):
            w2, b2 = w[0], b[0]
            in_int.append(chans)
            in_bnd.append(a_bnd)
            z = (chans[0] @ w2 + b2, chans[1] @ w2, chans[2] @ w2, chans[3] @ w2)
            zb = a_bnd @ w2 + b2
            z_int.append(z)
            z_bnd.append(zb)
            if i < len(_FC_LAYERS) - 1:
                chans = self._tanh_chans(z)
                a_bnd = np.tanh(zb)
        out = np.empty((params2d.shape[0], 4, n))
        out_b = np.empty((params2d.shape[0], len(t_bnd)))
        out[0] = np.stack([z_int[-1][c][:, 0] for c in range(4)])
        out_b[0] = z_bnd[-1][:, 0]

        for layer in range(len(_FC_LAYERS)):
            sel = np.nonzero(self._coord_layer[coords] == layer)[0]
            if sel.size == 0:
                continue
            g = sel.size
            i_in = self._coord_in[coords[sel]]
            j_out = self._coord_out[coords[sel]]
            amt = amounts[sel]
            zc = [np.repeat(z_int[layer][c][None], g, axis=0) for c in range(4)]
            zbc = np.repeat(z_bnd[layer][None], g, axis=0)
            w_rows = np.nonzero(i_in >= 0)[0]
            if w_rows.size:
                gi, jw, iw = w_rows, j_out[w_rows], i_in[w_rows]
                aw = amt[w_rows][:, None]
                for c in range(4):
                    zc[c][gi, :, jw] += aw * in_int[layer][c][:, iw].T
                zbc[gi, :, jw] += aw * in_bnd[layer][:, iw].T
            b_rows = np.nonzero(i_in < 0)[0]
            if b_rows.size:
                gb, jb = b_rows, j_out[b_rows]
                ab = amt[b_rows][:, None]
                zc[0][gb, :, jb] += ab
                zbc[gb, :, jb] += ab
            for m in range(layer, len(_FC_LAYERS)):
                if m > layer:
                    w2, b2 = base_w[m][0][0], base_w[m][1][0]
                    zc = [zc[0] @ w2 + b2, zc[1] @ w2, zc[2] @ w2, zc[3] @ w2]
                    zbc = zbc @ w2 + b2
                if m < len(_FC_LAYERS) - 1:
                    zc = list(self._tanh_chans(tuple(zc)))
                    zbc = np.tanh(zbc)
            out[1 + sel] = np.stack([z[..., 0] for z in zc], axis=1)
            out_b[1 + sel] = zbc[..., 0]

        sc = self.spec.output_scale
        return (sc * out[:, 0], sc * out[:, 3], sc * out[:, 1], sc * out[:, 2]), sc * out_b

    @staticmethod
    def _tanh_chans(z):
        y = np.tanh(z[0])
        s = 1.0 - y * y
        ys = -2.0 * y * s
        return (y, s * z[1], s * z[2] + ys * z[1] * z[1], s * z[3])


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
