"""Polynomial algebra and the QSP/LCU/tensor-decomposed circuit constructions.

The single-qubit chain ``R_z(θ_d)·∏_{j<d}[R_x(-2 arccos x)·R_z(θ_j)]`` realizes,
through ⟨+|·|+⟩, polynomials of degree ≤ d with parity d mod 2.  A parity
split over two chains removes the parity constraint at the price of a ½
normalization, and LCU ancillae extend the construction to multivariate and
tensor-decomposed polynomials.

Angle synthesis is numerical: Levenberg–Marquardt (damped Gauss–Newton)
least squares on the complex chain value, from random starts.  It targets
both the real part and a vanishing imaginary part, since products over
variables in the multivariate circuits are only exactly polynomial when each
per-variable value is real.  Every chain (a branch) draws its random starts
from its own generator, spawned from the caller's seed, so no branch's starts
depend on another's.  A construction's chains are fitted together, as stacks
of rows with one damping and one stop test per row, and each row's arithmetic
is that of a one-chain-at-a-time fit.
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
from .duals import c_lift, c_mul, shift_offsets, t_sqrt
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
        return float(np.max(np.abs(self(_SUP_GRID))))


_SUP_GRID = np.linspace(-1.0, 1.0, 512)
_SUP_GRID.flags.writeable = False


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
    out = 0.5 * s.T, np.eye(d + 1)[np.count_nonzero(s[:, 1:] != s[:, :-1], axis=1)]
    for a in out:
        a.flags.writeable = False
    return out


class CoefficientPlan(NamedTuple):
    """The path sums of several chains, laid out once for ``plan_coefficients``.

    ``index`` gathers the chains' angles from a parameter row in chain order
    (a slice when they are consecutive columns), ``half_signs`` holds each
    chain's ½·sᵀ rows on the block diagonal, and ``by_changes`` sums patterns
    into coefficients, block-diagonally; it is None when every chain has
    degree ≤ 1, where each pattern is its own coefficient.
    """
    index: slice | np.ndarray
    half_signs: np.ndarray
    by_changes: np.ndarray | None


def _block_diag(mats) -> np.ndarray:
    """``mats`` on the diagonal of a zero matrix; one matrix is returned as it
    is, since its memory layout fixes the order of ``plan_coefficients``'s sums."""
    if len(mats) == 1:
        return mats[0]
    out = np.zeros(tuple(map(sum, zip(*(m.shape for m in mats)))))
    r = c = 0
    for m in mats:
        out[r:r + m.shape[0], c:c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    out.flags.writeable = False
    return out


def coefficient_plan(chains) -> CoefficientPlan:
    """The plan of chains whose angles sit in the given columns of a parameter
    row, one sequence of columns per chain (degree = length − 1)."""
    chains = [np.asarray(c, dtype=np.intp).reshape(-1) for c in chains]
    half_signs, by_changes = zip(*(_sign_patterns(len(c) - 1) for c in chains))
    index = np.concatenate(chains)
    if np.array_equal(index, np.arange(index[0], index[0] + index.size)):
        index = slice(int(index[0]), int(index[0]) + index.size)
    return CoefficientPlan(index, _block_diag(half_signs),
                           None if max(map(len, chains)) <= 2 else _block_diag(by_changes))


def plan_coefficients(plan: CoefficientPlan, params) -> np.ndarray:
    """The real (B, n) coefficients of the planned chains on (B, P) parameter
    rows, chain after chain: one gather, one einsum and one ``cos`` (and a
    second einsum when a chain has degree > 1)."""
    index, half_signs, by_changes = plan
    c = np.cos(np.einsum("bj,jp->bp", params[:, index], half_signs))
    return c if by_changes is None else np.einsum("bp,pc->bc", c, by_changes)


@lru_cache(maxsize=None)
def _chain_plan(k: int) -> CoefficientPlan:
    return coefficient_plan([range(k)])


def chain_coefficients(thetas) -> np.ndarray:
    """Path-sum coefficients C of the chains of degree d = len(θ) − 1.

    Each S(x) step multiplies a path by x or by i√(1 − x²), so

        ⟨+|U_θ(x)|+⟩ = Σ_b C_b(θ)·x^(d−b)·(i√(1 − x²))^b,

    with C depending on θ alone.  A path is a sign pattern s ∈ {±1}^(d+1),
    angle θⱼ contributing e^{i·sⱼ·θⱼ/2} and each sign flip an off-diagonal
    step; pairing s with −s makes C real: C_b(θ) = Σ cos(½·s·θ) over the
    2^d patterns with s₀ = +1 and b sign changes.  ``thetas``: (k,) or
    (B, k) angles; returns real (B, d+1).  This is the one-chain case of
    ``plan_coefficients``.
    """
    th = np.atleast_2d(np.asarray(thetas, dtype=float))
    return plan_coefficients(_chain_plan(th.shape[1]), th)


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
    if dual and not np.all(np.abs(xv[0]) < 1.0):
        raise DomainError("dual chain evaluation requires |x| < 1")
    if not np.all(np.abs(xv[0]) <= 1.0):
        raise DomainError("chain evaluation requires |x| <= 1")
    out = tuple(coeffs @ b for b in _chain_basis(xv, coeffs.shape[1] - 1))
    return out if dual else out[0]


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


_RESTARTS = 15      # Levenberg–Marquardt starts per branch, each θ ~ N(0, 0.6²)
_ITERS = 500        # damped steps per start
_TOL = 1e-10        # max node residual that ends a start early

# There is no start at θ = 0.  There the ±π shift rule gives the two shifted
# chains the same coefficients, since cos is even, so ∂v/∂θ is exactly 0,
# every step is 0 and every candidate is refused until μ > 1e8.  Nor can
# θ = 0 be an answer: v(0, x) = e^{i·d·arccos x}, whose imaginary part alone
# puts the max node residual above 0.96 at degrees 1 to 20.


@lru_cache(maxsize=None)
def _node_basis(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The 4·degree + 8 Chebyshev nodes a branch is fitted on, and their
    (degree + 1, K) ``_chain_basis``."""
    k = 4 * degree + 8
    xs = np.cos(np.pi * (2.0 * np.arange(k) + 1.0) / (2.0 * k))
    out = xs, _chain_basis((xs,), degree)[0]
    for a in out:
        a.flags.writeable = False
    return out


def _residual_jac(thetas: np.ndarray, basis: np.ndarray, targets: np.ndarray):
    """Complex residuals v(θ, x) − q(x) on the nodes, (n, K), and ∂v/∂θ,
    (n, P, K), of n rows of P angles.

    ``basis`` is the (P, K) node basis of ``_chain_basis``.  Each chain
    amplitude is a·e^{−iθⱼ/2} + b·e^{iθⱼ/2} in each angle, so the shift rule
    ∂v/∂θⱼ = [v(θⱼ + π) − v(θⱼ − π)]/4 is exact.  The 2P + 1 shifted chains
    of every row come from one ``plan_coefficients`` call and one ``@``,
    stacked (n, 2P + 1, P) so that each row's product is the one its own
    call would make.
    """
    n, p = thetas.shape
    stack = (thetas[:, None, :] + shift_offsets(p)).reshape(-1, p)
    vals = plan_coefficients(_chain_plan(p), stack).reshape(n, 2 * p + 1, p) @ basis
    return vals[:, 0] - targets, (vals[:, 1::2] - vals[:, 2::2]) / 4.0


def _levenberg_marquardt(thetas: np.ndarray, basis: np.ndarray, targets: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Damped Gauss–Newton on the real and imaginary node residuals of each
    row of ``thetas``, (n, P), against its row of ``targets``, (n, K).

    Every row keeps its own damping μ, accepts a step only when it lowers
    the row's max node residual, and stops at ``_TOL``, at μ > 1e8 or after
    ``_ITERS`` steps; rows that stop leave the stack.  Each row's arithmetic
    is that of a one-row stack.  Returns the final angles and max residuals.
    """
    out, out_err = np.empty_like(thetas), np.empty(len(thetas))
    live = np.arange(len(thetas))
    eye = np.eye(thetas.shape[1])
    res, jac = _residual_jac(thetas, basis, targets)
    err, mu = np.abs(res).max(axis=1), np.full(len(thetas), 1e-3)
    for _ in range(_ITERS):
        jr_t = np.concatenate([jac.real, jac.imag], axis=2)   # (n, P, 2K): Jᵀ of each row
        rr = np.concatenate([res.real, res.imag], axis=1)[..., None]
        step = np.linalg.solve(jr_t @ jr_t.transpose(0, 2, 1) + mu[:, None, None] * eye,
                               -jr_t @ rr)[..., 0]
        cand = thetas + step
        c_res, c_jac = _residual_jac(cand, basis, targets)
        c_err = np.abs(c_res).max(axis=1)
        better = c_err < err
        if better.all():
            thetas, res, jac, err = cand, c_res, c_jac, c_err
        elif better.any():
            rows, planes = better[:, None], better[:, None, None]
            thetas, res, jac, err = (np.where(rows, cand, thetas), np.where(rows, c_res, res),
                                     np.where(planes, c_jac, jac), np.where(better, c_err, err))
        mu = np.where(better, np.maximum(mu * 0.3, 1e-12), mu * 10.0)
        done = np.where(better, err < _TOL, mu > 1e8)
        if done.any():
            out[live[done]], out_err[live[done]] = thetas[done], err[done]
            keep = ~done
            if not keep.any():
                return out, out_err
            live, thetas, res, jac, err, mu, targets = (
                a[keep] for a in (live, thetas, res, jac, err, mu, targets))
    out[live], out_err[live] = thetas, err
    return out, out_err


def _synthesize_branches(branches) -> list[np.ndarray]:
    """Chain angles with ⟨+|U_θ(x)|+⟩ ≈ target(x) (real) for every branch of
    ``branches``, a list of (target, degree, generator); returns the angles
    in branch order.

    A degree-0 branch takes ``_constant_angle``.  Any other branch fits its
    chain to the target on ``_node_basis`` nodes from up to ``_RESTARTS``
    N(0, 0.6²) starts drawn from its own generator, and keeps its best
    start; it stops at the first start that reaches ``_TOL``, and raises
    ``SynthesisError`` when its best residual after the last start exceeds
    1e-9.  Each round draws the next start of every unfinished branch and
    runs one ``_levenberg_marquardt`` per degree.
    """
    best = {i: (np.inf, None) for i, branch in enumerate(branches) if branch[1]}
    live = list(best)       # the branches whose best residual is not yet below _TOL
    for _ in range(_RESTARTS):
        groups = {}
        for i in live:
            groups.setdefault(branches[i][1], []).append(i)
        for degree, group in groups.items():
            xs, basis = _node_basis(degree)
            starts = np.array([branches[i][2].normal(0.0, 0.6, degree + 1) for i in group])
            targets = np.array([branches[i][0](xs) for i in group])
            for i, theta, err in zip(group, *_levenberg_marquardt(starts, basis, targets)):
                if err < best[i][0]:
                    best[i] = (err, theta)
        live = [i for i in live if best[i][0] >= _TOL]
    for i in live:
        if best[i][0] > 1e-9:
            raise SynthesisError(f"branch synthesis stalled at residual {best[i][0]:.3e} "
                                 f"(degree {branches[i][1]})")
    return [best[i][1] if degree else _constant_angle(target)
            for i, (target, degree, _) in enumerate(branches)]


def _branch_generators(seed, n: int) -> list[np.random.Generator]:
    """One generator per branch, the n children of ``seed``'s
    ``SeedSequence`` in branch order; ``seed`` must be an int >= 0."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"synthesis seed must be an int >= 0, not {seed!r}")
    return [np.random.default_rng(s) for s in np.random.SeedSequence(int(seed)).spawn(n)]


def _constant_angle(target: UnivariatePoly) -> np.ndarray:
    """The angle of a degree-0 chain, cos(θ/2) = the target's constant."""
    c = float(np.clip(target.coeffs[0] if target.coeffs else 0.0, -1.0, 1.0))
    return np.array([2.0 * math.acos(c)])


def synthesize_angle_pairs(jobs) -> list[tuple[np.ndarray, np.ndarray]]:
    """``synthesize_angles(target, L, seed)`` of each (target, L, seed) job,
    in one ``_synthesize_branches`` call."""
    jobs = list(jobs)
    branches = []
    for target, L, seed in jobs:
        if L < 1:
            raise ValueError("synthesis requires L >= 1")
        if target.degree > L and any(abs(c) > 0 for c in target.coeffs[L + 1:]):
            raise ValueError(f"target degree exceeds L={L}")
        if target.sup_norm_grid() > 0.5 + 1e-12:
            raise BoundError("target sup-norm exceeds 1/2 on [-1, 1]")
        p_odd, p_even = parity_split(target)
        t1, t2 = (p_odd, p_even) if L % 2 == 0 else (p_even, p_odd)
        rng1, rng2 = _branch_generators(seed, 2)
        branches += [(t1, L - 1, rng1), (t2, L, rng2)]
    angles = _synthesize_branches(branches)
    pairs = list(zip(angles[0::2], angles[1::2]))
    for L in {L for _, L, _ in jobs}:
        mine = [k for k, job in enumerate(jobs) if job[1] == L]
        nodes = np.cos(np.pi * (2.0 * np.arange(4 * L + 4) + 1.0) / (2.0 * (4 * L + 4)))
        theta1, theta2 = (np.array(a) for a in zip(*(pairs[k] for k in mine)))
        combo = 0.5 * (chain_value(theta1, nodes).real + chain_value(theta2, nodes).real)
        residual = float(np.max(np.abs(combo - [jobs[k][0](nodes) for k in mine])))
        if residual > 1e-8:
            raise SynthesisError(f"combined synthesis residual {residual:.3e} exceeds 1e-8")
    return pairs


def synthesize_angles(target: UnivariatePoly, L: int, seed: int = 0
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Parity-split angle pair: ½[Re v(θ1,x) + Re v(θ2,x)] = target(x).

    θ1 (L angles) drives the degree-(L-1) chain for the parity-(L-1 mod 2)
    component, θ2 (L+1 angles) the degree-L chain for the parity-(L mod 2)
    component; each is fitted from starts drawn from its own generator, the
    two children of ``seed``'s ``SeedSequence``.  The one-job case of
    ``synthesize_angle_pairs``.
    """
    return synthesize_angle_pairs([(target, L, seed)])[0]


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
    ``lcu_circuit_template`` as constants; each branch (monomial, variable)
    draws its starts from its own child of ``seed``, in slot order.
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
    branches = []
    for n, c in monomials.entries:
        for j, nj in enumerate(n):
            coeffs = [0.0] * (nj + 1)
            coeffs[nj] = (c / c_inf) if j == 0 else 1.0
            branches.append((UnivariatePoly(tuple(coeffs)), nj))
    rngs = _branch_generators(seed, len(branches))
    thetas = _synthesize_branches([b + (rng,) for b, rng in zip(branches, rngs)])
    angles = np.concatenate(thetas).tolist()
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
    Angles are synthesized and bound as constants, factor (r, j) as the job
    of seed ``seed + 101·r + j``.
    """
    lam_total = math.fsum(abs(l) for l in p.lambdas)
    if lam_total <= 0.0:
        raise ValueError("Λ = Σ|λ_r| must be positive")
    _branch_generators(seed, 0)     # the derived seeds would let True pass as 1
    jobs = []
    for r, row in enumerate(p.factors):
        for j, poly in enumerate(row):
            if p.lambdas[r] < 0 and j == 0:
                poly = UnivariatePoly(tuple(-c for c in poly.coeffs))
            jobs.append((poly, p.L, seed + 101 * r + j))
    angles = np.concatenate([a for pair in synthesize_angle_pairs(jobs) for a in pair]).tolist()
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
