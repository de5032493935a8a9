"""Polynomial algebra and the QSP/LCU/tensor-decomposed circuit constructions.

The single-qubit chain ``R_z(θ_d)·∏_{j<d}[R_x(-2 arccos x)·R_z(θ_j)]`` realizes,
through ⟨+|·|+⟩, polynomials of degree ≤ d with parity d mod 2.  A parity
split over two chains removes the parity constraint at the price of a ½
normalization, and LCU ancillae extend the construction to multivariate and
tensor-decomposed polynomials.

Angle synthesis is a construction, with no search and no seed.  A target p
of parity d is a real symmetric Laurent polynomial F(w) = p((w + 1/w)/2) in
w = e^{i·arccos x}; Fejér–Riesz completion adds the off-diagonal entry of an
SU(2)-valued Laurent polynomial from the roots of 1 − F², and one angle is
peeled off per layer (Haah 2019, arXiv:1806.10236).  The chain value is then
real, which the products over variables in the multivariate circuits need.

Each circuit layout (TD and LCU) is one function that takes its slots' angle
expressions (``_slot_exprs``): ``Param`` slots for a template, and for a
build the synthesized angles as the constants binding that template would
give.  So a builder makes its circuit in one construction pass, gate for
gate the template ``qpinn resources`` audits with its slots bound.
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
from .errors import BoundError, DomainError, SizeError, SynthesisError

try:   # np.einsum's own C call, without the Python layer it dispatches through
    from numpy._core.multiarray import c_einsum as einsum
except ImportError:   # numpy < 2
    einsum = np.einsum

# ---------------------------------------------------------------------------
# coefficient containers


@dataclass(frozen=True)
class UnivariatePoly:
    """Power-basis coefficients c_0..c_L, at least one; trailing zeros permitted."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("need at least one coefficient")

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


def polyval_rows(coeffs, x: np.ndarray) -> np.ndarray:
    """(K, N) values at the points ``x`` of K power-coefficient sequences, in
    one Horner pass with ``polyval``'s steps: c[−1] + x·0, then c[−i] + acc·x.
    A shorter sequence is zero-padded at the top: at a finite x its
    accumulator stays +0.0 until its own top, where +0.0·x has the bits of
    x·0, and at ±inf or NaN both give the same NaN; so each row equals that
    sequence's ``UnivariatePoly.__call__`` bit for bit."""
    m = max(map(len, coeffs), default=1)
    c = np.array([tuple(row) + (0.0,) * (m - len(row)) for row in coeffs],
                 dtype=float).reshape(len(coeffs), m)
    acc = c[:, -1:] + x * 0
    for i in range(2, m + 1):
        acc = c[:, -i, None] + acc * x
    return acc


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
        if not self.entries:
            raise ValueError("need at least one monomial")
        if len({len(n) for n, _ in self.entries}) > 1:
            raise ValueError("need multi-indices of one length, got "
                             f"{sorted({len(n) for n, _ in self.entries})}")
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
    c = np.cos(einsum("bj,jp->bp", params[:, index], half_signs))
    return c if by_changes is None else einsum("bp,pc->bc", c, by_changes)


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


def _chain_basis(x: np.ndarray, d: int) -> np.ndarray:
    """The basis x^(d−b)·(i√(1 − x²))^b, b = 0..d, of the points ``x``,
    (d+1, N); each power is the product of x (or i√(1 − x²)) with the one
    before it."""
    xp, jp = [np.ones_like(x), x], [None, 1j * np.sqrt(1.0 - x * x)]
    for _ in range(d - 1):
        xp.append(x * xp[-1])
        jp.append(jp[1] * jp[-1])
    return np.stack([xp[d]] + [xp[d - b] * jp[b] for b in range(1, d + 1)])


def chain_value(thetas, x):
    """⟨+|U_θ(x)|+⟩ for the chain of degree len(θ)-1.

    ``thetas``: (k,) or (B, k) angles.  ``x``: scalar or (N,) array in
    [-1, 1].  Returns a complex (B, N) array: `chain_coefficients`
    contracted with the basis x^(d−b)·(i√(1 − x²))^b.
    """
    coeffs = chain_coefficients(thetas)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.abs(x) <= 1.0):
        raise DomainError("chain evaluation requires |x| <= 1")
    return coeffs @ _chain_basis(x, coeffs.shape[1] - 1)


# ---------------------------------------------------------------------------
# polynomial plumbing


def parity_split(p: UnivariatePoly) -> tuple[UnivariatePoly, UnivariatePoly]:
    """(p_odd, p_even) with p_odd(x)=p(x)-p(-x), p_even(x)=p(x)+p(-x)."""
    odd = tuple(2.0 * c if k % 2 else 0.0 for k, c in enumerate(p.coeffs))
    even = tuple(0.0 if k % 2 else 2.0 * c for k, c in enumerate(p.coeffs))
    return UnivariatePoly(odd), UnivariatePoly(even)


@lru_cache(maxsize=None)
def _cheb_nodes(k: int) -> np.ndarray:
    """The k Chebyshev nodes cos(π(2i + 1)/(2k)), i = 0..k−1.  Read-only."""
    out = np.cos(np.pi * (2.0 * np.arange(k) + 1.0) / (2.0 * k))
    out.flags.writeable = False
    return out


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
    nodes = _cheb_nodes(L + 1)
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


@lru_cache(maxsize=None)
def _laurent_map(d: int) -> np.ndarray:
    """(d+1, 2d+1): row k holds x^k = 2^(−k)·Σ_j C(k, j)·w^(k−2j) in the
    Laurent basis w^(−d..d), where x = (w + 1/w)/2.  Read-only."""
    out = np.zeros((d + 1, 2 * d + 1))
    for k in range(d + 1):
        for j in range(k + 1):
            out[k, d + k - 2 * j] += math.comb(k, j) / 2.0 ** k
    out.flags.writeable = False
    return out


def _complement(a: np.ndarray) -> np.ndarray:
    """Real Laurent coefficients b of parity d, (n, 2d+1), with b(w)·b(1/w)
    = 1 − F(w)² for the real symmetric F of each row of ``a``.

    1 − F² = (1 − F)(1 + F) is ≥ 0 on |w| = 1 (Fejér–Riesz).  The roots of
    w^d·(1 ∓ F), from one ``eigvals`` call on stacked companion matrices,
    come in pairs z, 1/z̄: reflected inside the circle they are near pairs,
    as is a double root on it, and each pair, closest first, gives one
    averaged root.  b = κ·w^(−d)·∏(w − z), with κ from Parseval:
    Σb² = 1 − Σa².
    """
    n, m = a.shape
    q = np.eye(1, m, m // 2) + np.concatenate([-a, a])
    comp = np.zeros((2 * n, m - 1, m - 1))
    comp[:, np.arange(1, m - 1), np.arange(m - 2)] = 1.0
    comp[:, :, -1] = -q[:, :-1] / q[:, -1:]
    z = np.hstack(np.split(np.linalg.eigvals(comp), 2))
    z = np.where(np.abs(z) <= 1.0, z, 1.0 / z.conj())
    dist = np.abs(z[:, :, None] - z[:, None, :]) + np.diag(np.full(2 * m - 2, np.inf))
    rows, poly = np.arange(n), np.eye(1, m, dtype=complex).repeat(n, axis=0)
    for _ in range(m - 1):
        i, j = np.divmod(dist.reshape(n, -1).argmin(axis=1), 2 * m - 2)
        poly[:, 1:] -= 0.5 * (z[rows, i] + z[rows, j])[:, None] * poly[:, :-1]  # ·(w − root)
        dist[rows, i] = dist[rows, j] = dist[rows, :, i] = dist[rows, :, j] = np.inf
    poly = poly.real
    poly[:, 1::2] = 0.0
    return poly * np.sqrt((1.0 - np.sum(a * a, axis=1)) / np.sum(poly * poly, axis=1))[:, None]


def _peel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The angles θ_0..θ_d, (n, d+1), of U = R_x(θ_d)·D···D·R_x(θ_0) = [[F, i·b],
    [i·b(1/w), F(1/w)]], D = diag(w, 1/w): the chain in the Hadamard frame,
    whose ⟨0|·|0⟩ is ``chain_value``.  Each angle zeroes the w^(−deg) terms
    of R_x(−θ)·U, by the better scaled of two equations; D then divides out."""
    out = np.empty((a.shape[0], (a.shape[1] + 1) // 2))
    for deg in range(out.shape[1] - 1, 0, -1):
        first = np.abs(a[:, 0]) + np.abs(b[:, -1]) >= np.abs(b[:, 0]) + np.abs(a[:, -1])
        half = np.where(first, np.arctan2(a[:, 0], b[:, -1]), np.arctan2(-b[:, 0], a[:, -1]))
        out[:, deg] = 2.0 * half
        c, s = np.cos(half)[:, None], np.sin(half)[:, None]
        a, b = (c * a - s * b[:, ::-1])[:, 2:], (c * b + s * a[:, ::-1])[:, 2:]
    out[:, 0] = 2.0 * np.arctan2(-b[:, 0], a[:, 0])
    return out


def _construct(coeffs: np.ndarray, d: int) -> np.ndarray:
    """Chain angles, (n, d+1), with ⟨+|U_θ(x)|+⟩ = p(x) for each row of
    power coefficients ``coeffs`` (n, d+1) of parity d and |p| ≤ 1.

    A row is built at the degree e of its last Laurent coefficient above
    1e-12 (dropping one moves p by at most twice its size; a smaller leading
    coefficient costs the roots accuracy) and padded with (π, −π) pairs, as
    D·R_x(π)·D = R_x(π).  e = 0 takes cos(θ_0/2) = p; an odd row with nothing
    above 1e-12 is (π, 0, …, 0).  Each row's arithmetic is its own.
    """
    a = einsum("bk,kl->bl", coeffs, _laurent_map(d))
    big = np.abs(a[:, d:]) > 1e-12
    eff = np.where(big.any(axis=1), d - np.argmax(big[:, ::-1], axis=1), -(d % 2))
    out = np.zeros((len(a), d + 1))
    out[eff < 0, 0] = np.pi
    for e in np.unique(eff[eff >= 0]):
        rows, sub = eff == e, a[eff == e, d - e:d + e + 1]
        out[rows, :e + 1] = (_peel(sub, _complement(sub)) if e
                             else 2.0 * np.arccos(np.clip(sub, -1.0, 1.0)))
        out[rows, e + 1:] = np.tile([np.pi, -np.pi], (d - e) // 2)
    return out


def _synthesize_branches(branches) -> list[np.ndarray]:
    """Chain angles with ⟨+|U_θ(x)|+⟩ = target(x) for every (target, degree)
    of ``branches``, in branch order.  The branches of one degree are built
    as one ``_construct`` stack and checked together, targets by one
    ``polyval_rows`` pass, on ``_cheb_nodes(4·degree + 8)``: a complex
    residual above 1e-9 raises ``SynthesisError``."""
    out = [None] * len(branches)
    for d in sorted({degree for _, degree in branches}):
        mine = [i for i, (_, degree) in enumerate(branches) if degree == d]
        thetas = _construct(np.array([(branches[i][0].coeffs + (0.0,) * d)[:d + 1]
                                      for i in mine]), d)
        xs = _cheb_nodes(4 * d + 8)
        want = polyval_rows([branches[i][0].coeffs for i in mine], xs)
        err = np.abs(chain_value(thetas, xs) - want).max(axis=1)
        if not np.all(err <= 1e-9):
            raise SynthesisError(f"a degree-{d} branch missed its target by {np.max(err):.3e}")
        for i, theta in zip(mine, thetas):
            out[i] = theta
    return out


def synthesize_angle_pairs(jobs) -> list[tuple[np.ndarray, np.ndarray]]:
    """``synthesize_angles(target, L)`` of each (target, L) job, in one
    ``_synthesize_branches`` call.  The jobs' grid sup-norms
    (``UnivariatePoly.sup_norm_grid``) and the combined checks of each L
    take one ``polyval_rows`` pass each."""
    jobs = list(jobs)
    sup = np.max(np.abs(polyval_rows([t.coeffs for t, _ in jobs], _SUP_GRID)), axis=1)
    branches = []
    for (target, L), norm in zip(jobs, sup):
        if L < 1:
            raise ValueError("synthesis requires L >= 1")
        if target.degree > L and any(abs(c) > 0 for c in target.coeffs[L + 1:]):
            raise ValueError(f"target degree exceeds L={L}")
        if not norm <= 0.5 + 1e-12:   # NaN fails too
            raise BoundError("target sup-norm exceeds 1/2 on [-1, 1]")
        p_odd, p_even = parity_split(target)
        branches += [(p_odd, L - 1), (p_even, L)] if L % 2 == 0 else [(p_even, L - 1), (p_odd, L)]
    angles = _synthesize_branches(branches)
    pairs = list(zip(angles[0::2], angles[1::2]))
    for L in {L for _, L in jobs}:
        mine = [k for k, job in enumerate(jobs) if job[1] == L]
        nodes = _cheb_nodes(4 * L + 4)
        theta1, theta2 = (np.array(a) for a in zip(*(pairs[k] for k in mine)))
        combo = 0.5 * (chain_value(theta1, nodes).real + chain_value(theta2, nodes).real)
        residual = float(np.max(np.abs(combo - polyval_rows([jobs[k][0].coeffs for k in mine],
                                                            nodes))))
        if not residual <= 1e-8:
            raise SynthesisError(f"combined synthesis residual {residual:.3e} exceeds 1e-8")
    return pairs


def synthesize_angles(target: UnivariatePoly, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Parity-split angle pair: ½[Re v(θ1,x) + Re v(θ2,x)] = target(x).

    θ1 (L angles) drives the degree-(L-1) chain for the parity-(L-1 mod 2)
    component, θ2 (L+1 angles) the degree-L chain for the parity-(L mod 2)
    component.  The one-job case of ``synthesize_angle_pairs``.
    """
    return synthesize_angle_pairs([(target, L)])[0]


# ---------------------------------------------------------------------------
# circuit constructions


def _chain_gates(qubit: int, angle_exprs, arccos: cir.InputArccos, controls) -> list[cir.Gate]:
    """A chain's gates; every S(x) step shares the one ``arccos`` object, so
    the simulator builds its entries once per run (``sim._Memo``)."""
    gates = [cir.controlled(cir.rz(qubit, angle_exprs[0]), controls)]
    for expr in angle_exprs[1:]:
        gates.append(cir.controlled(cir.rx(qubit, arccos), controls))
        gates.append(cir.controlled(cir.rz(qubit, expr), controls))
    return gates


def _slot_exprs(count: int, angles) -> tuple[list[cir.AngleExpr], int]:
    """The angle expression of each of ``count`` slots, and the circuit's
    n_params: ``Param(i)`` slots for a template (``angles`` None), else each
    synthesized angle as the constant that binding the template would give,
    ``1.0·a + 0.0`` (so −0.0 becomes +0.0), and no slots."""
    if angles is None:
        return [cir.Param(i) for i in range(count)], count
    if len(angles) != count:
        raise SizeError(f"the layout takes {count} angles, got {len(angles)}")
    return [cir.Const(1.0 * a + 0.0) for a in angles], 0


def _ancilla_count(terms: int) -> int:
    return math.ceil(math.log2(terms)) if terms > 1 else 0


def _ancilla_bits(i: int, qubits: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    a = len(qubits)
    return tuple((qubits[k], (i >> (a - 1 - k)) & 1) for k in range(a))


def univariate_model_circuit(L: int) -> cir.Circuit:
    """The 3-qubit parity-split model, ``td_circuit_template(1, 1, L)`` (so
    one object per L): slots 0..L-1 = θ1, L..2L = θ2."""
    return td_circuit_template(1, 1, L)


def build_lcu_multivariate(monomials: MonomialList, D: int, L: int, seed: int = 0
                           ) -> tuple[cir.Circuit, float]:
    """LCU circuit over monomial blocks; expect_z0 = p(x)/Λ with Λ = T·‖c‖_∞.

    When the monomial list is the full (L+1)^D grid this Λ coincides with
    ‖c‖_∞·(L+1)^D.  Angles are synthesized and bound into
    ``lcu_circuit_template``'s layout as constants, in one construction
    pass.  ``seed`` is accepted and ignored: the construction has no random
    part.
    """
    t_count = len(monomials.entries)
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
    angles = np.concatenate(_synthesize_branches(branches)).tolist()
    return _lcu_circuit([n for n, _ in monomials.entries], D, angles), t_count * c_inf


def lcu_circuit_template(multi_indices, D: int, L: int) -> cir.Circuit:
    """Parametric LCU circuit: slots monomial-major, nj+1 per variable j.
    Built once per (multi-indices, D, L) and shared: a ``Circuit`` is
    immutable."""
    return _lcu_template(tuple(tuple(n) for n in multi_indices), D, L)


@lru_cache(maxsize=None)
def _lcu_template(multi_indices: tuple, D: int, L: int) -> cir.Circuit:
    return _lcu_circuit(multi_indices, D, None)


def _lcu_circuit(multi_indices, D: int, angles) -> cir.Circuit:
    """The LCU layout, its slots' angles from ``_slot_exprs(·, angles)``."""
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
    arccos = [cir.InputArccos(j) for j in range(D)]
    exprs, n_params = _slot_exprs(sum(nj + 1 for n in multi_indices for nj in n), angles)
    slot = 0
    for i, n in enumerate(multi_indices):
        ctl_anc = _ancilla_bits(i, anc)
        for j, nj in enumerate(n):
            gates += _chain_gates(sysq[j], exprs[slot:slot + nj + 1], arccos[j],
                                  ((0, 1),) + ctl_anc)
            slot += nj + 1
    gates.append(cir.h(0))
    return cir.Circuit(1 + a + D, tuple(gates), n_params=n_params, n_inputs=D)


def build_td_circuit(p: TdPoly, seed: int = 0) -> tuple[cir.Circuit, float]:
    """Tensor-decomposed circuit (ancilla-weighted LCU of rank-1 blocks).

    expect_z0 = p(x)/Λ with Λ = Σ_r |λ_r|; ancilla amplitudes are
    √(|λ_r|/Λ) and λ-signs are absorbed into each term's first factor.
    Angles are synthesized, factor (r, j) as the (r, j)-th job, and laid
    out as constants in one construction pass of ``td_circuit_template``'s
    layout; ``seed`` is accepted and ignored.
    """
    lam_total = math.fsum(abs(l) for l in p.lambdas)
    if lam_total <= 0.0:
        raise ValueError("Λ = Σ|λ_r| must be positive")
    jobs = []
    for r, row in enumerate(p.factors):
        for j, poly in enumerate(row):
            if p.lambdas[r] < 0 and j == 0:
                poly = UnivariatePoly(tuple(-c for c in poly.coeffs))
            jobs.append((poly, p.L))
    angles = np.concatenate([a for pair in synthesize_angle_pairs(jobs) for a in pair]).tolist()
    weights = np.sqrt(np.abs(np.asarray(p.lambdas)) / lam_total)
    return _td_circuit(p.R, p.D, p.L, weights, angles), lam_total


@lru_cache(maxsize=None)
def td_circuit_template(R: int, D: int, L: int) -> cir.Circuit:
    """Parametric TD circuit with uniform ancilla weights: R·D·(2L+1) slots,
    (r, j)-major, θ1 (L slots) before θ2 (L+1).  R = 1 is the rank-1
    Hadamard-test circuit of width 2D+1; R = D = 1 the univariate model.
    Built once per (R, D, L) and shared: a ``Circuit`` is immutable."""
    return _td_circuit(R, D, L, 1.0 / math.sqrt(R), None)


def _td_circuit(R: int, D: int, L: int, weights, angles) -> cir.Circuit:
    """The TD layout: output qubit 0, ancillae weighted by ``weights`` on
    ``amps[:R]``, then a (parity, target) qubit pair per variable; the
    slots' angles come from ``_slot_exprs(·, angles)``."""
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
    arccos = [cir.InputArccos(j) for j in range(D)]
    exprs, n_params = _slot_exprs(R * D * (2 * L + 1), angles)
    slot = 0
    for r in range(R):
        ctl_anc = _ancilla_bits(r, anc)
        for j in range(D):
            parity, target = pairs[j]
            base_ctl = ((0, 1),) + ctl_anc
            gates += _chain_gates(target, exprs[slot:slot + L], arccos[j],
                                  base_ctl + ((parity, 0),))
            gates += _chain_gates(target, exprs[slot + L:slot + 2 * L + 1], arccos[j],
                                  base_ctl + ((parity, 1),))
            slot += 2 * L + 1
    gates.append(cir.h(0))
    return cir.Circuit(1 + a + 2 * D, tuple(gates), n_params=n_params, n_inputs=D)


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
