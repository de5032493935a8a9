"""Polynomial algebra and the QSP/LCU/tensor-decomposed circuit constructions.

The single-qubit chain ``R_z(θ_d)·∏_{j<d}[R_x(-2 arccos x)·R_z(θ_j)]`` realizes,
through ⟨+|·|+⟩, polynomials of degree ≤ d with parity d mod 2.  A parity
split over two chains removes the parity constraint at the price of a ½
normalization, and LCU ancillae extend the construction to multivariate and
tensor-decomposed polynomials.

Angle synthesis is numerical (damped Gauss–Newton least squares on the
complex chain value, with restarts): it targets both the real part and a
vanishing imaginary part, since products over variables in the multivariate
circuits are only exactly polynomial when each per-variable value is real.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product
from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import polynomial as _poly

from . import circuits as cir
from .duals import c_lift, c_mul, shift_stack, t_sqrt
from .errors import BoundError, DomainError, SizeError, SynthesisError

# ---------------------------------------------------------------------------
# coefficient containers


@dataclass(frozen=True)
class UnivariatePoly:
    """Power-basis coefficients c_0..c_L; trailing zeros permitted."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        return _poly.polyval(x, np.asarray(self.coeffs))

    def sup_norm_grid(self) -> float:
        """max |p| on 512 evenly spaced points of [-1, 1]."""
        return float(np.max(np.abs(self(np.linspace(-1.0, 1.0, 512)))))


@dataclass(frozen=True)
class TdPoly:
    """Tensor-decomposed polynomial Σ_r λ_r ∏_j p_{r,j}(x_j)."""

    R: int
    D: int
    L: int
    lambdas: tuple[float, ...]
    factors: tuple[tuple[UnivariatePoly, ...], ...]

    def __post_init__(self):
        if not 1 <= self.R <= (self.L + 1) ** self.D:
            raise ValueError("tensor rank must lie in [1, (L+1)^D]")
        if len(self.lambdas) != self.R or len(self.factors) != self.R:
            raise ValueError("lambdas/factors length must equal R")
        for row in self.factors:
            if len(row) != self.D:
                raise ValueError("each factor row must have D polynomials")
            for p in row:
                if p.degree > self.L:
                    raise ValueError("factor degree exceeds L")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        pts = x.reshape(-1, self.D)
        acc = np.zeros(pts.shape[0])
        for lam, row in zip(self.lambdas, self.factors):
            term = np.full(pts.shape[0], lam)
            for j, p in enumerate(row):
                term = term * p(pts[:, j])
            acc += term
        return acc if x.ndim > 1 else float(acc[0])


@dataclass(frozen=True)
class MonomialList:
    """Sparse multivariate coefficients: (multi-index, coefficient) pairs."""

    entries: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        seen = set()
        for n, _ in self.entries:
            if n in seen:
                raise ValueError(f"duplicate multi-index {n}")
            seen.add(n)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        pts = x.reshape(-1, len(self.entries[0][0]))
        acc = np.zeros(pts.shape[0])
        for n, c in self.entries:
            term = np.full(pts.shape[0], c)
            for j, nj in enumerate(n):
                term = term * pts[:, j] ** nj
            acc += term
        return acc if x.ndim > 1 else float(acc[0])


# ---------------------------------------------------------------------------
# 2×2 chain evaluation (the dequantized path)


@lru_cache(maxsize=None)
def _sign_patterns(d: int) -> tuple[np.ndarray, np.ndarray]:
    """½·sᵀ for the 2^d sign patterns s ∈ {±1}^(d+1) with s₀ = +1, (d+1, 2^d),
    and the one-hot rows of their sign-change counts, (2^d, d+1)."""
    s = np.array([(1,) + p for p in iter_product((1, -1), repeat=d)], dtype=float)
    return 0.5 * s.T, np.eye(d + 1)[np.count_nonzero(s[:, 1:] != s[:, :-1], axis=1)]


def chain_coefficients(thetas) -> np.ndarray:
    """Path-sum coefficients C of the chains of degree d = len(θ) − 1.

    Each S(x) step multiplies a path by x or by i√(1 − x²), so

        ⟨+|U_θ(x)|+⟩ = Σ_b C_b(θ)·x^(d−b)·(i√(1 − x²))^b,

    with C depending on θ alone.  A path is a sign pattern s ∈ {±1}^(d+1),
    angle θⱼ contributing e^{i·sⱼ·θⱼ/2} and each sign flip an off-diagonal
    step; pairing s with −s makes C real: C_b(θ) = Σ cos(½·s·θ) over the
    2^d patterns with s₀ = +1 and b sign changes.  ``thetas``: (k,) or
    (B, k) angles; returns real (B, d+1).
    """
    th = np.atleast_2d(np.asarray(thetas, dtype=float))
    half_signs, by_changes = _sign_patterns(th.shape[1] - 1)
    phases = np.einsum("bj,jp->bp", th, half_signs)
    return np.einsum("bp,pc->bc", np.cos(phases), by_changes)


def _powers(z: tuple, n: int, ones: tuple) -> list[tuple]:
    """[z⁰, z¹, …, zⁿ] over channel tuples, z⁰ = ``ones``."""
    out = [ones]
    for _ in range(n):
        out.append(c_mul(z, out[-1]) if len(out) > 1 else z)
    return out


def _chain_basis(xv: tuple, d: int) -> tuple:
    """The basis x^(d−b)·(i√(1 − x²))^b, b = 0..d, of the channel tuple ``xv``:
    one (d+1, N) array per channel."""
    ones = (np.ones_like(xv[0]),) + tuple(np.zeros_like(c) for c in xv[1:])
    xp = _powers(xv, d, ones)
    if d:  # the S(x) steps between angles contribute i·√(1 − x²)
        sq = tuple(z - c for z, c in zip((1.0, 0.0, 0.0), c_mul(xv, xv)))
        js = c_mul(1j, c_lift(sq, np.sqrt, t_sqrt))
        basis = [xp[d]] + [c_mul(xp[d - b], p) for b, p in enumerate(_powers(js, d, ones)[1:], 1)]
    else:
        basis = [ones]
    return tuple(np.stack([f[c] for f in basis]) for c in range(len(xv)))


def chain_value(thetas, x):
    """⟨+|U_θ(x)|+⟩ for the chain of degree len(θ)-1.

    ``thetas``: (k,) or (B, k) plain angles.  ``x``: scalar, (N,) array, or a
    (value, d1, d2) dual triple.  Returns a complex scalar/(B, N) array, or a
    triple of them for dual input: `chain_coefficients` contracted with the
    basis x^(d−b)·(i√(1 − x²))^b, channel by channel.
    """
    coeffs = chain_coefficients(thetas)
    dual = isinstance(x, tuple)
    xv = tuple(np.atleast_1d(np.asarray(c, dtype=float)) for c in (x if dual else (x,)))
    if dual and np.any(np.abs(xv[0]) >= 1.0):
        raise DomainError("dual chain evaluation requires |x| < 1")
    if np.any(np.abs(xv[0]) > 1.0):
        raise DomainError("chain evaluation requires |x| <= 1")
    out = tuple(coeffs @ b for b in _chain_basis(xv, coeffs.shape[1] - 1))
    return out if dual else out[0]


def qsp_value(theta, x: float) -> complex:
    """⟨+|U_θ(x)|+⟩ at a single point via the 2×2 matrix chain."""
    if abs(x) > 1.0:
        raise DomainError("qsp_value requires |x| <= 1")
    val = chain_value(theta, float(x))
    return complex(val[0, 0])


# ---------------------------------------------------------------------------
# polynomial plumbing


def parity_split(p: UnivariatePoly) -> tuple[UnivariatePoly, UnivariatePoly]:
    """(p_odd, p_even) with p_odd(x)=p(x)-p(-x), p_even(x)=p(x)+p(-x)."""
    odd = tuple(2.0 * c if k % 2 else 0.0 for k, c in enumerate(p.coeffs))
    even = tuple(0.0 if k % 2 else 2.0 * c for k, c in enumerate(p.coeffs))
    return UnivariatePoly(odd), UnivariatePoly(even)


class PolyFit(NamedTuple):
    poly: UnivariatePoly
    max_residual: float


def extract_polynomial(value_fn, L: int) -> PolyFit:
    """Fit a degree-≤L polynomial on L+1 Chebyshev nodes.

    ``value_fn`` maps an array of points to the array of its real values; it
    is called once on the nodes and once on the grid.  The residual,
    measured on 257 fresh grid points, certifies (when < 1e-8) that
    ``value_fn`` is itself a polynomial of degree ≤ L.
    """
    nodes = np.cos(np.pi * (2.0 * np.arange(L + 1) + 1.0) / (2.0 * (L + 1)))
    vals = np.asarray(value_fn(nodes), dtype=float)
    cheb_coeffs = _cheb.chebfit(nodes, vals, L)
    coeffs = _cheb.cheb2poly(cheb_coeffs)
    poly = UnivariatePoly(tuple(np.pad(coeffs, (0, L + 1 - coeffs.size))))
    grid = np.linspace(-1.0, 1.0, 257)
    residual = float(np.max(np.abs(poly(grid) - np.asarray(value_fn(grid), dtype=float))))
    return PolyFit(poly, residual)


def expand_td(p: TdPoly) -> MonomialList:
    """Full coefficient tensor c_n = Σ_r λ_r c_{r,n_1}···c_{r,n_D}."""
    size = (p.L + 1) ** p.D
    if size > 10**6:
        raise SizeError(f"tensor grid of {size} entries exceeds the 10^6 cap")
    tensor = np.zeros((p.L + 1,) * p.D)
    for lam, row in zip(p.lambdas, p.factors):
        acc = np.array([1.0])
        for poly in row:
            cs = np.pad(np.asarray(poly.coeffs), (0, p.L + 1 - len(poly.coeffs)))
            acc = np.multiply.outer(acc, cs)
        tensor += lam * acc.reshape((p.L + 1,) * p.D)
    entries = tuple(
        (idx, float(tensor[idx])) for idx in iter_product(range(p.L + 1), repeat=p.D)
    )
    return MonomialList(entries)


# ---------------------------------------------------------------------------
# angle synthesis


def _chain_residual_jac(theta: np.ndarray, basis: np.ndarray, target: np.ndarray):
    """Complex residual v(θ, x) − q(x) on the nodes, and ∂v/∂θ.

    ``basis`` is the (d+1, K) node basis of ``_chain_basis``.  Each chain
    amplitude is a·e^{−iθⱼ/2} + b·e^{iθⱼ/2} in each angle, so the shift rule
    ∂v/∂θⱼ = [v(θⱼ + π) − v(θⱼ − π)]/4 is exact; all 2(d+1)+1 chains come
    from one ``chain_coefficients`` call.
    """
    vals = chain_coefficients(shift_stack(theta, np.pi)) @ basis
    return vals[0] - target, ((vals[1::2] - vals[2::2]) / 4.0).T


_RESTARTS = 16      # Gauss–Newton starts per branch: zeros, then N(0, 0.6²) draws
_ITERS = 500        # damped steps per start
_TOL = 1e-10        # max node residual that ends a start early


def _synthesize_branch(target: UnivariatePoly, degree: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Angles of a degree-``degree`` chain with ⟨+|U_θ(x)|+⟩ ≈ target(x) (real)."""
    if degree == 0:
        c = float(np.clip(target.coeffs[0] if target.coeffs else 0.0, -1.0, 1.0))
        return np.array([2.0 * math.acos(c)])
    k = 4 * degree + 8
    xs = np.cos(np.pi * (2.0 * np.arange(k) + 1.0) / (2.0 * k))
    tv = target(xs)
    basis = _chain_basis((xs,), degree)[0]
    best, best_err = None, np.inf
    for attempt in range(_RESTARTS):
        theta = np.zeros(degree + 1) if attempt == 0 else rng.normal(0.0, 0.6, degree + 1)
        mu = 1e-3
        res, jac = _chain_residual_jac(theta, basis, tv)
        err = np.max(np.abs(res))
        for _ in range(_ITERS):
            jr = np.concatenate([jac.real, jac.imag], axis=0)
            rr = np.concatenate([res.real, res.imag])
            jtj = jr.T @ jr
            step = np.linalg.solve(jtj + mu * np.eye(degree + 1), -jr.T @ rr)
            cand = theta + step
            c_res, c_jac = _chain_residual_jac(cand, basis, tv)
            c_err = np.max(np.abs(c_res))
            if c_err < err:
                theta, res, jac, err = cand, c_res, c_jac, c_err
                mu = max(mu * 0.3, 1e-12)
                if err < _TOL:
                    break
            else:
                mu *= 10.0
                if mu > 1e8:
                    break
        if err < best_err:
            best, best_err = theta, err
        if best_err < _TOL:
            break
    if best_err > 1e-9:
        raise SynthesisError(
            f"branch synthesis stalled at residual {best_err:.3e} (degree {degree})"
        )
    return best


def synthesize_angles(target: UnivariatePoly, L: int, seed: int = 0
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Parity-split angle pair: ½[Re v(θ1,x) + Re v(θ2,x)] = target(x).

    θ1 (L angles) drives the degree-(L-1) chain for the parity-(L-1 mod 2)
    component, θ2 (L+1 angles) the degree-L chain for the parity-(L mod 2)
    component.
    """
    if L < 1:
        raise ValueError("synthesis requires L >= 1")
    if target.degree > L and any(abs(c) > 0 for c in target.coeffs[L + 1:]):
        raise ValueError(f"target degree exceeds L={L}")
    if target.sup_norm_grid() > 0.5 + 1e-12:
        raise BoundError("target sup-norm exceeds 1/2 on [-1, 1]")
    p_odd, p_even = parity_split(target)
    t1, t2 = (p_odd, p_even) if L % 2 == 0 else (p_even, p_odd)
    rng = np.random.default_rng(seed)
    theta1 = _synthesize_branch(t1, L - 1, rng)
    theta2 = _synthesize_branch(t2, L, rng)
    nodes = np.cos(np.pi * (2.0 * np.arange(4 * L + 4) + 1.0) / (2.0 * (4 * L + 4)))
    combo = 0.5 * (
        chain_value(theta1, nodes).real[0] + chain_value(theta2, nodes).real[0]
    )
    residual = float(np.max(np.abs(combo - target(nodes))))
    if residual > 1e-8:
        raise SynthesisError(f"combined synthesis residual {residual:.3e} exceeds 1e-8")
    return theta1, theta2


# ---------------------------------------------------------------------------
# circuit constructions


def _chain_gates(qubit: int, angle_exprs, input_var: int, controls) -> list[cir.Gate]:
    gates = [cir.controlled(cir.rz(qubit, angle_exprs[0]), controls)]
    for expr in angle_exprs[1:]:
        gates.append(cir.controlled(cir.rx(qubit, cir.InputArccos(input_var)), controls))
        gates.append(cir.controlled(cir.rz(qubit, expr), controls))
    return gates


def _param_exprs(base: int, count: int) -> list[cir.AngleExpr]:
    return [cir.Param(base + i) for i in range(count)]


def _ancilla_count(terms: int) -> int:
    return math.ceil(math.log2(terms)) if terms > 1 else 0


def _ancilla_bits(i: int, qubits: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    a = len(qubits)
    return tuple((qubits[k], (i >> (a - 1 - k)) & 1) for k in range(a))


def univariate_model_circuit(L: int) -> cir.Circuit:
    """The 3-qubit parity-split model, ``td_circuit_template(1, 1, L)``:
    slots 0..L-1 = θ1, L..2L = θ2."""
    return td_circuit_template(1, 1, L)


def build_lcu_multivariate(monomials: MonomialList, D: int, L: int, seed: int = 0
                           ) -> tuple[cir.Circuit, float]:
    """LCU circuit over monomial blocks; expect_z0 = p(x)/Λ with Λ = T·‖c‖_∞.

    When the monomial list is the full (L+1)^D grid this Λ coincides with
    ‖c‖_∞·(L+1)^D.  Angles are synthesized and bound into
    ``lcu_circuit_template`` as constants.
    """
    t_count = len(monomials.entries)
    if t_count < 1:
        raise ValueError("need at least one monomial")
    for n, _ in monomials.entries:
        if len(n) != D or any(not 0 <= nj <= L for nj in n):
            raise ValueError(f"multi-index {n} outside [0, L]^{D}")
    c_inf = max(abs(c) for _, c in monomials.entries)
    if c_inf == 0:
        raise ValueError("all-zero coefficient list")
    rng = np.random.default_rng(seed)
    angles: list[float] = []
    for n, c in monomials.entries:
        for j, nj in enumerate(n):
            coeffs = [0.0] * (nj + 1)
            coeffs[nj] = (c / c_inf) if j == 0 else 1.0
            angles += _synthesize_branch(UnivariatePoly(tuple(coeffs)), nj, rng).tolist()
    tpl = lcu_circuit_template([n for n, _ in monomials.entries], D, L)
    return cir.bind(tpl, angles), t_count * c_inf


def lcu_circuit_template(multi_indices, D: int, L: int) -> cir.Circuit:
    """Parametric LCU circuit: slots monomial-major, nj+1 per variable j."""
    t_count = len(multi_indices)
    a = _ancilla_count(t_count)
    anc = tuple(range(1, 1 + a))
    sysq = tuple(range(1 + a, 1 + a + D))
    gates: list[cir.Gate] = [cir.h(0)]
    if a:
        if t_count == 1 << a:
            gates += [cir.h(q) for q in anc]
        else:
            amps = np.zeros(1 << a)
            amps[:t_count] = 1.0 / math.sqrt(t_count)
            gates.append(cir.prepare_amplitudes(anc, amps))
    gates += [cir.h(q) for q in sysq]
    slot = 0
    for i, n in enumerate(multi_indices):
        ctl_anc = _ancilla_bits(i, anc)
        for j, nj in enumerate(n):
            gates += _chain_gates(sysq[j], _param_exprs(slot, nj + 1), j, ((0, 1),) + ctl_anc)
            slot += nj + 1
    gates.append(cir.h(0))
    return cir.Circuit(1 + a + D, tuple(gates), n_params=slot, n_inputs=D)


def build_td_circuit(p: TdPoly, seed: int = 0) -> tuple[cir.Circuit, float]:
    """Tensor-decomposed circuit (ancilla-weighted LCU of rank-1 blocks).

    expect_z0 = p(x)/Λ with Λ = Σ_r |λ_r|; ancilla amplitudes are
    √(|λ_r|/Λ) and λ-signs are absorbed into each term's first factor.
    Angles are synthesized and bound as constants.
    """
    lam_total = math.fsum(abs(l) for l in p.lambdas)
    if lam_total <= 0.0:
        raise ValueError("Λ = Σ|λ_r| must be positive")
    for row in p.factors:
        for poly in row:
            if poly.sup_norm_grid() > 0.5 + 1e-12:
                raise BoundError("factor sup-norm exceeds 1/2 on [-1, 1]")
    angles: list[float] = []
    for r in range(p.R):
        for j in range(p.D):
            poly = p.factors[r][j]
            if p.lambdas[r] < 0 and j == 0:
                poly = UnivariatePoly(tuple(-c for c in poly.coeffs))
            theta1, theta2 = synthesize_angles(poly, p.L, seed=seed + 101 * r + j)
            angles += theta1.tolist() + theta2.tolist()
    weights = np.sqrt(np.abs(np.asarray(p.lambdas)) / lam_total)
    return cir.bind(_td_circuit(p.R, p.D, p.L, weights), angles), lam_total


def td_circuit_template(R: int, D: int, L: int) -> cir.Circuit:
    """Parametric TD circuit with uniform ancilla weights: R·D·(2L+1) slots,
    (r, j)-major, θ1 (L slots) before θ2 (L+1).  R = 1 is the rank-1
    Hadamard-test circuit of width 2D+1; R = D = 1 the univariate model."""
    return _td_circuit(R, D, L, 1.0 / math.sqrt(R))


def _td_circuit(R: int, D: int, L: int, weights) -> cir.Circuit:
    """The TD layout: output qubit 0, ancillae weighted by ``weights`` on
    ``amps[:R]``, then a (parity, target) qubit pair per variable."""
    if L < 1:
        raise ValueError("TD circuit requires L >= 1")
    a = _ancilla_count(R)
    anc = tuple(range(1, 1 + a))
    pairs = [(1 + a + 2 * j, 2 + a + 2 * j) for j in range(D)]
    gates: list[cir.Gate] = [cir.h(0)]
    if anc:
        amps = np.zeros(1 << a)
        amps[:R] = weights
        gates.append(cir.prepare_amplitudes(anc, amps))
    for parity, target in pairs:
        gates += [cir.h(parity), cir.h(target)]
    slot = 0
    for r in range(R):
        ctl_anc = _ancilla_bits(r, anc)
        for j in range(D):
            parity, target = pairs[j]
            base_ctl = ((0, 1),) + ctl_anc
            gates += _chain_gates(target, _param_exprs(slot, L), j, base_ctl + ((parity, 0),))
            gates += _chain_gates(target, _param_exprs(slot + L, L + 1), j,
                                  base_ctl + ((parity, 1),))
            slot += 2 * L + 1
    gates.append(cir.h(0))
    return cir.Circuit(1 + a + 2 * D, tuple(gates), n_params=slot, n_inputs=D)


# ---------------------------------------------------------------------------
# JSON writers (nothing reads these documents back)


def td_poly_to_json_dict(p: TdPoly) -> dict:
    return {
        "R": p.R,
        "D": p.D,
        "L": p.L,
        "lambdas": list(p.lambdas),
        "factors": [[list(poly.coeffs) for poly in row] for row in p.factors],
    }


def monomials_to_json_dict(m: MonomialList) -> dict:
    return {"entries": [{"n": list(n), "c": c} for n, c in m.entries]}
