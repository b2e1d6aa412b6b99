"""Self-contained solver for min <C, X> over {X >= 0, X^T1 >= 0, Tr X = 1}.

Three loops share one problem representation and one certificate:

- a primal-dual interior-point method (the HKM direction of Helmberg,
  Rendl, Vanderbei & Wolkowicz, SIAM J. Optim. 6 (1996), with Mehrotra's
  predictor-corrector) on min <C, X> over X >= 0 and W = X^T1 >= 0 with
  Tr X = 1, scaled by the eigendecompositions of its iterates.  Its Newton
  system has about side^2 / 2 unknowns per block, so `solve` takes it when
  the cost is real and its blocks have side 2 to `IPM_MAX_SIDE` (16): a
  plain real cost of side <= 16, the Hirsch inputs in their parity form
  (eight blocks of side 2), and, through the ancilla's Bell form (blocks
  of side d_A d_B), every other real activation cost with no twirl form
  and d_A d_B <= 16.  It certifies within a few dozen Newton steps where
  the splitting loop needs up to tens of thousands of iterations near a
  sign change.  Its Schur matrix is its Newton operator applied to a basis
  of the symmetric blocks, through the coordinate matrices of the partial
  transpose and its adjoint.  Complex
  costs would double its unknowns, and the splitting loop decides complex
  two-qubit costs faster;
- the same interior-point method on blocks of side 1, written on vectors:
  a linear program in nb unknowns, whose HKM scaling is an entrywise
  division, whose Schur matrix is (nb + 1)-square and whose step lengths
  are ratio tests.  `solve` takes it for a real cost whose blocks all have
  side 1: every twirled Werner, isotropic or wi form at any d (eight
  scalar blocks).  It shares the start point, `STEP_FRACTION`,
  `STALL_STEPS`, the positivity test of every iterate and the certificate
  with the matrix form, whose iterates are its own up to rounding.  After
  every step it also rounds the iterate to a vertex of the LP's polytope
  (`round_to_vertex`, an `LpVertex` with its basis) and offers that
  vertex, with its basis dual, to the same certificate, so a solve ends at
  its optimal vertex with a gap at rounding level, in a few steps.  The
  tests use the matrix form as its reference;
- consensus operator splitting (ADMM) for complex costs and larger blocks:
  one block carries the spectral-simplex constraint {X >= 0, Tr X = 1}
  with the linear cost handled proximally, the other carries the
  partial-transpose cone {Y : Y^T1 >= 0}, and a scaled dual couples X = Y.
  Each iteration costs two or three Hermitian eigendecompositions.  The
  tests also use it as the reference for the matrix interior-point loop.

Every `SdpProblem` is stacked blocks with multiplicities, and so are the
iterates.  A plain problem is one dense block of side n with multiplicity 1
(`SdpProblem.from_cost`).  A cost invariant under a twirl of some of its
factors -- such as the activation cost of a Werner or isotropic input under
U x U or U x conj(U), or of any input under the Pauli twirl of its ancilla
-- is solved as X = sum_b P_b (x) X_b over the invariant projectors P_b,
with small blocks X_b (the symmetry reduction of Gatermann & Parrilo,
J. Pure Appl. Algebra 192 (2004)).  That is the dense iteration exactly,
not an approximation: every step (spectral projections, Newton steps,
partial transpose, the I/n start) commutes with the twirl, so the dense
iterates stay of that form, and on it the spectrum of X is the blocks'
spectra with multiplicities Tr P_b, traces and Frobenius inner products are
the multiplicity-weighted ones, and the partial transpose maps the P_b
algebra linearly onto a second projector algebra Q_c (multiplicities
Tr Q_c) by the problem's one map ``pt_map``: `_Stack.pt`.  Its adjoint
`_Stack.pt_adj` is derived from ``pt_map`` and the multiplicities, and must
also be its inverse, as the dense partial transpose is a self-adjoint
involution.  A cost that also commutes with Z x Z on two qubits (the
Hirsch activation costs) takes its parity as one more factor, in a
relabelled basis (``SdpProblem.relabel``).

All loops feed one certificate of objective bounds:

- lower bound: lambda_min(C - PT(S2)) <= p* for any S2 >= 0 on the
  partial-transpose side; ADMM takes the clamped negative part of its
  Y-projection, the interior-point loops their dual slack on W;
- upper bound: mixing the current X toward I/n absorbs its PPT slack and
  yields an exactly feasible point whose value is reported as `objective`.

The certificate is the only way a solve ends certified: it stops with
``converged`` when the bound gap closes to `tol_objective`, or with
``decided`` (if `objective_cut` is set) as soon as the bounds certify on
which side of the cut the optimum lies -- a sign decision can be certified
long before the gap closes on degenerate instances.  With a cut set, a
solve stops only once the bounds settle it, however small the gap.  Small
consensus residuals alone stop nothing.  `max_iters` caps ADMM iterations
and Newton steps alike.  A solve whose numbers break down (a non-finite
ADMM residual, an interior-point iterate whose smallest eigenvalue is not
positive, or `STALL_STEPS` Newton steps without a tighter gap) ends with
its best bounds and status ``infeasible_numerics``.  A solve checks its minimizer's
blocks against the invariants of a `DensityMatrix` (Hermitian, unit trace,
PSD) and reads its PSD slack, PPT slack and trace error off the blocks;
the dense minimizer is built only on request (`SdpSolution.minimizer`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .linalg import (
    HERM_INPUT_TOL,
    HERMITICITY_TOL,
    PSD_TOL,
    TRACE_TOL,
    DensityMatrix,
    kron,
    permute_mat,
)

MAX_SIDE = 256
# largest block side solved by the interior-point loop: its Newton system has
# about side^2 unknowns per block
IPM_MAX_SIDE = 16
# share of the distance to the cone boundary that an interior-point step covers,
# in both forms of the interior-point loop (matrix blocks and scalar blocks).
# Longer steps leave the iterates so close to the boundary that the Schur solves
# lose accuracy, an accuracy floor near 1e-10 that only the matrix form still
# has: the scalar form ends at a rounded vertex instead.  On the activation
# costs of the real parts of 40 states from random_density((2, 2),
# default_rng(7)) in their Bell form, at tol_objective = 1e-10, 0.9 closes 38
# certified gaps to 1e-10 (604 Newton steps) and the other two to 2.1e-10 and
# 3.9e-10, 0.98 only 16 (the rest to 1.2e-9), and 0.8 all 40 in 657 steps.
# Smaller blocks keep the floor: on 16 Hirsch costs (p in {0.172, 0.175, 0.18,
# 0.2, 0.3, 0.5, 0.8, 1} x q in {1, 0.6}, max_iters 200), the parity form
# (side 2) converges on 16 at tol_objective = 1e-11 and 12 at 1e-12, the Bell
# form (side 4) on 15 and 11.
STEP_FRACTION = 0.9
# interior-point steps without a tighter certified gap after which the loop has stalled
STALL_STEPS = 5
# rounding allowance of a vertex of the scalar problem's polytope: how far it may
# leave the polytope and still be taken as a vertex
VERTEX_TOL = 1e-12
# the splitting loop's initial penalty rho, the iterations between two certificate
# calls, and the iterations between two penalty adaptations
PENALTY = 10.0
CHECK_EVERY = 25
ADAPT_EVERY = 100
# (|0><0|, |1><1|): the factor that carries a relabelled qubit pair's Z x Z parity
PARITY_PROJECTORS = np.eye(2)[:, :, None] * np.eye(2)
PARITY_PROJECTORS.flags.writeable = False

__all__ = [
    "PARITY_PROJECTORS",
    "VERTEX_TOL",
    "LpVertex",
    "SdpOptions",
    "SdpProblem",
    "SdpSolution",
    "basis_vertices",
    "check_side",
    "round_to_vertex",
    "solve",
]


def check_side(n: int) -> None:
    """Reject a problem of side n above `MAX_SIDE`."""
    if n > MAX_SIDE:
        raise ValueError(f"problem side {n} exceeds the desk-scale limit {MAX_SIDE}")


@dataclass(frozen=True)
class SdpOptions:
    """Stop rules of all three loops.

    ``max_iters`` caps ADMM iterations or Newton steps; a solve is
    ``converged`` once its certified gap ub - lb is at most
    ``tol_objective``, and ``decided`` once its bounds lie on one side of
    ``objective_cut``, when that is set.  With a cut set, a solve stops only
    once its bounds lie on one side of it.
    """

    max_iters: int = 50_000
    tol_objective: float = 1e-6
    objective_cut: float | None = None

    def __post_init__(self) -> None:
        # a solve under any other value could never certify a bound
        if not (isinstance(self.max_iters, (int, np.integer)) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer of at least 1, got {self.max_iters!r}")
        if not (math.isfinite(self.tol_objective) and self.tol_objective > 0.0):
            raise ValueError(f"tol_objective must be finite and positive, got {self.tol_objective}")
        if self.objective_cut is not None and not math.isfinite(self.objective_cut):
            raise ValueError(f"objective_cut must be finite, got {self.objective_cut}")


@dataclass(eq=False)
class SdpProblem:
    """A problem as stacked blocks, C = sum_b P_b (x) costs[b], with its layout and options.

    Each P_b is a tensor product with one factor per entry of ``factors``, a
    pair (projectors, subsystems): a stack of orthogonal projectors that sum
    to the identity on those subsystems of ``dims``.  Block b is the
    multi-index (b_1, ..., b_F) over the factors' stacks in C order, and
    P_b = P^1_{b_1} (x) ... (x) P^F_{b_F}; the blocks act on the remaining
    (inner) subsystems, in their order.  No P_b is ever formed: the
    multiplicities and `dense` come from the factors.  The partial transpose
    over the first ``t1_split`` subsystems maps the P_b onto a second set of
    orthogonal projectors Q_c: (P_b (x) X_b)^T1 = sum_c pt_map[c, b] Q_c (x)
    X_b^T1.

    With ``relabel`` = (i, j), the blocks are written in the basis of the
    qubits i and j relabelled by |a, b> -> |a, a xor b>: i is the blocks'
    one inner subsystem in the cut, and the first factor is
    `PARITY_PROJECTORS` on j alone, outside the cut, so its label is the
    Z x Z parity of the pair.  T over i then moves each block's entry between a and
    a xor 1 to the block of the other parity (`_Stack.transpose`), and
    `dense` undoes the relabelling.

    `from_cost` wraps a plain cost matrix as one block with no factor;
    ``cost`` is the dense matrix derived from the blocks, built on first
    access.
    """

    costs: np.ndarray
    factors: tuple[tuple[np.ndarray, tuple[int, ...]], ...]
    pt_map: np.ndarray
    dims: tuple[int, ...]
    t1_split: int = 1
    options: SdpOptions = field(default_factory=SdpOptions)
    relabel: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        self.dims = tuple(int(d) for d in self.dims)
        check_side(int(np.prod(self.dims)))
        costs = self.costs
        inner = int(np.prod([d for i, d in enumerate(self.dims) if i not in self.outer]))
        if costs.shape != (len(self.mult), inner, inner):
            raise ValueError(f"block costs of shape {costs.shape} do not match the factors and dims {self.dims}")
        if np.max(np.abs(costs - costs.conj().swapaxes(-1, -2))) > HERM_INPUT_TOL:
            raise ValueError(f"block costs are not Hermitian within {HERM_INPUT_TOL}")
        for projectors, subsystems in self.factors:
            side = int(np.prod([self.dims[i] for i in subsystems]))
            if projectors.shape[1:] != (side, side):
                raise ValueError(f"block projectors of shape {projectors.shape} do not match dims {self.dims}")
            if np.max(np.abs(projectors.sum(axis=0) - np.eye(side))) > HERM_INPUT_TOL:
                raise ValueError("block projectors do not sum to the identity")
        if not 1 <= self.t1_split < len(self.dims):
            raise ValueError("t1_split must name a proper prefix of dims")
        if self.relabel is not None:
            (i, j), (projectors, subsystems) = self.relabel, (self.factors or ((None, ()),))[0]
            cut = [k for k in range(self.t1_split) if k not in self.outer]
            parity = subsystems == (j,) and j >= self.t1_split and np.array_equal(projectors, PARITY_PROJECTORS)
            if cut != [i] or self.dims[i] != 2 or not parity:
                raise ValueError(f"relabel {self.relabel} needs one cut qubit in the blocks and a parity factor")

    @classmethod
    def from_cost(
        cls, cost: np.ndarray, dims: tuple[int, ...], t1_split: int = 1, options: SdpOptions | None = None
    ) -> SdpProblem:
        """The plain problem of a dense cost: one block of side n with multiplicity 1."""
        cost = np.asarray(cost, dtype=complex)
        n = int(np.prod(dims))
        if cost.shape != (n, n):
            raise ValueError(f"cost shape {cost.shape} does not match dims {tuple(dims)}")
        return cls(cost[None], (), np.ones((1, 1)), dims, t1_split, options or SdpOptions())

    @property
    def outer(self) -> tuple[int, ...]:
        """The subsystems the projectors act on, factor by factor."""
        return tuple(i for _, subsystems in self.factors for i in subsystems)

    @cached_property
    def mult(self) -> np.ndarray:
        """Multiplicities Tr P_b: how often each block's spectrum repeats in X."""
        mult = np.ones(1)
        for projectors, _ in self.factors:
            mult = np.multiply.outer(mult, np.rint(np.trace(projectors, axis1=1, axis2=2).real)).ravel()
        return mult

    def dense(self, blocks: np.ndarray) -> np.ndarray:
        """The dense operator sum_b P_b (x) blocks[b] in the subsystem order ``dims``, in the canonical basis."""
        inner = tuple(i for i in range(len(self.dims)) if i not in self.outer)
        order = self.outer + inner
        stacks = [projectors for projectors, _ in self.factors]
        indices = np.ndindex(*(len(projectors) for projectors in stacks))
        mat = sum(kron(*(p[i] for p, i in zip(stacks, index)), block) for index, block in zip(indices, blocks))
        mat = permute_mat(mat, tuple(self.dims[i] for i in order), tuple(np.argsort(order)))
        if self.relabel is None:
            return mat
        labels = np.indices(self.dims).reshape(len(self.dims), -1)
        labels[self.relabel[1]] ^= labels[self.relabel[0]]
        relabelled = np.ravel_multi_index(tuple(labels), self.dims)
        return mat[np.ix_(relabelled, relabelled)]

    @cached_property
    def cost(self) -> np.ndarray:
        """The dense cost sum_b P_b (x) costs[b]."""
        return self.dense(self.costs)


@dataclass
class SdpSolution:
    """A solve's bounds and status, and its minimizer as blocks of ``problem``.

    ``minimizer`` rebuilds the dense matrix, validated as a `DensityMatrix`,
    on first access.
    """

    objective: float
    objective_lb: float
    iterations: int
    status: str  # converged | decided | max_iters | infeasible_numerics
    residuals: dict[str, float]
    blocks: np.ndarray
    problem: SdpProblem

    @cached_property
    def minimizer(self) -> DensityMatrix:
        return DensityMatrix(self.problem.dense(self.blocks), self.problem.dims)


def _simplex_projection(v: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Projection onto {x >= 0, sum weights * x = 1} in the weights-weighted norm.

    With integer weights this is the probability-simplex projection of the
    vector that repeats each v[i] weights[i] times.
    """
    order = np.argsort(v)[::-1]
    u = v[order]
    wu = weights[order]
    css = np.cumsum(u * wu)
    idx = np.cumsum(wu)
    r = np.nonzero(u - (css - 1.0) / idx > 0)[0][-1]
    theta = (css[r] - 1.0) / idx[r]
    return np.maximum(v - theta, 0.0)


def _compose(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """V diag(w) V^dagger over a stack of eigenbases."""
    return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)


class _Stack:
    """The problem as stacks of blocks with multiplicities, shared by all loops.

    X-side stacks hold the blocks X_b (multiplicities Tr P_b); W-side stacks
    hold the blocks of X^T1 in the Q_c algebra (multiplicities Tr Q_c).
    `transpose` is T, the transpose of the inner subsystems in the cut, as
    one gather of a stack's entries: within each block, and with
    ``relabel`` also onto the block of the other parity.  `pt` maps X-side
    stacks onto W-side ones, PT(X)_c = sum_b pt_map[c, b] T(X)_b, and
    `pt_adj` is its adjoint under the multiplicity-weighted inner
    products, PT*(S)_b = sum_c adjoint[b, c] T(S)_c with adjoint[b, c] =
    pt_map[c, b] Tr Q_c / Tr P_b.  The dense partial transpose is a
    self-adjoint involution, so PT* must also invert PT: a ``pt_map`` whose
    adjoint does not is rejected.
    """

    def __init__(self, problem: SdpProblem) -> None:
        self.problem = problem
        costs = problem.costs
        if np.max(np.abs(costs.imag)) == 0.0:
            costs = costs.real.copy()  # real symmetric fast path
        self.costs = costs
        self.nb, self.s, _ = costs.shape
        # T1 inside a block: the inner factors that fall in the cut (m) come first
        inner = [i for i in range(len(problem.dims)) if i not in problem.outer]
        m = int(np.prod([problem.dims[i] for i in inner if i < problem.t1_split]))
        k = self.s // m
        # entry (b, (a, x), (a', x')) of T(X) is entry (b', (a', x), (a, x')) of X, where b' is b, or with
        # ``relabel`` its parity partner when a != a' (the first factor's label shifts by half the blocks)
        half = self.nb // 2 if problem.relabel else 0
        b, a, x, a2, x2 = np.indices((self.nb, m, k, m, k))
        self.gather = np.ravel_multi_index(((b + half * (a != a2)) % self.nb, a2, x, a, x2), b.shape).ravel()
        self.block_mult = problem.mult
        # X-side multiplicities Tr P_b, then W-side ones Tr Q_c: PT(P_b) = sum_c pt_map[c, b] Q_c
        pt_map = problem.pt_map
        self.mult = np.concatenate([self.block_mult, np.rint(np.linalg.solve(pt_map.T, self.block_mult))])
        self.adjoint = np.ascontiguousarray(pt_map.T * self.mult[self.nb :] / self.block_mult[:, None])
        if np.max(np.abs(self.adjoint @ pt_map - np.eye(self.nb))) > HERM_INPUT_TOL:
            raise ValueError(f"the adjoint of pt_map does not invert it within {HERM_INPUT_TOL}")
        self.n = float(self.block_mult.sum() * self.s)  # side of the dense problem
        self.eye = np.broadcast_to(np.eye(self.s, dtype=costs.dtype), costs.shape)

    def transpose(self, mats: np.ndarray) -> np.ndarray:
        """T of a stack of nb blocks, over any leading axes."""
        return mats.reshape(*mats.shape[:-3], -1)[..., self.gather].reshape(mats.shape)

    def _mixed(self, mix: np.ndarray, mats: np.ndarray) -> np.ndarray:
        out = self.transpose(mats)
        # a lone block spans the whole space, which the transpose maps onto itself
        return out if len(mix) == 1 else np.einsum("cb,...bij->...cij", mix, out)

    def pt(self, mats: np.ndarray) -> np.ndarray:
        return self._mixed(self.problem.pt_map, mats)

    def pt_adj(self, mats: np.ndarray) -> np.ndarray:
        return self._mixed(self.adjoint, mats)

    def objective(self, mats: np.ndarray) -> float:
        return float(self.block_mult @ np.sum(self.costs * mats.conj(), axis=(1, 2)).real)

    def trace(self, mats: np.ndarray) -> complex:
        """Trace of the dense operator of an X-side stack."""
        return self.block_mult @ np.trace(mats, axis1=1, axis2=2)


def _lowest(mats: np.ndarray) -> np.ndarray:
    """The smallest eigenvalue of each block of a stack; a block of side 1 is its own."""
    if mats.shape[-1] == 1:
        return mats[:, 0, 0].real
    return np.linalg.eigvalsh(mats)[:, 0]


def _min_eig(mats: np.ndarray) -> float:
    return float(np.min(_lowest(mats)))


class _Bounds:
    """Best certified objective bounds of a solve, and the feasible point attaining the upper one."""

    def __init__(self, stack: _Stack, opts: SdpOptions) -> None:
        self.stack = stack
        self.opts = opts
        self.ub = math.inf
        self.lb = -math.inf
        self.x = stack.eye / stack.n

    def update(self, x: np.ndarray, s2: np.ndarray) -> str | None:
        """Tighten the bounds from a trace-one PSD X-side stack x and a PSD W-side stack s2.

        - lower bound: lambda_min(C - PT(S2)) <= p* for every S2 >= 0;
        - upper bound: mixing x toward I/n absorbs its PPT slack and yields
          an exactly feasible point.

        Returns the stop status the bounds allow, if any: with an
        ``objective_cut`` set, none until the bounds lie on one side of it,
        however small the gap.
        """
        st = self.stack
        mats = np.concatenate([st.costs - st.pt_adj(s2), st.pt(x)])
        low = _lowest(mats)
        lb = float(low[: st.nb].min())
        slack = max(0.0, -float(low[st.nb :].min()))
        gamma = slack * st.n / (1.0 + slack * st.n)
        x_feas = (1.0 - gamma) * x + gamma * st.eye / st.n
        ub = st.objective(x_feas)
        if ub < self.ub:
            self.ub = ub
            self.x = x_feas
        self.lb = max(self.lb, lb)
        cut = self.opts.objective_cut
        if cut is not None and not (self.lb >= cut or self.ub < cut):
            return None
        if self.ub - self.lb <= self.opts.tol_objective:
            return "converged"
        return None if cut is None else "decided"


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve the problem; deterministic for fixed problem and options.

    The loop is chosen from the blocks: a real cost whose blocks all have
    side 1 goes to the scalar interior-point loop, other real costs in
    blocks of side at most ``IPM_MAX_SIDE`` to the matrix interior-point
    loop, and all others to the splitting loop.
    """
    costs = problem.costs
    side = costs.shape[-1]
    if side > IPM_MAX_SIDE or np.any(np.imag(costs)):
        return _solve(problem, _splitting)
    return _solve(problem, _scalar_interior_point if side == 1 else _interior_point)


def _solve(problem: SdpProblem, loop: Callable[[_Stack, _Bounds, SdpOptions], tuple[int, str]]) -> SdpSolution:
    stack = _Stack(problem)
    bounds = _Bounds(stack, problem.options)
    iterations, status = loop(stack, bounds, problem.options)

    # the invariants of a DensityMatrix, on the blocks: the dense minimizer's
    # spectrum and trace are the blocks' ones with multiplicities, and the
    # spectrum of its partial transpose is that of the W-side stack
    x = bounds.x
    if np.max(np.abs(x - x.conj().swapaxes(-1, -2))) > HERMITICITY_TOL:
        raise ValueError(f"density matrix is not Hermitian within {HERMITICITY_TOL}")
    trace = stack.trace(x)
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {trace} is not 1 within {TRACE_TOL}")
    low = _min_eig(x)
    if low < -PSD_TOL:
        raise ValueError(f"smallest eigenvalue {low} below {-PSD_TOL}")
    residuals = {
        "psd_slack": max(0.0, -low),
        "ppt_slack": max(0.0, -_min_eig(stack.pt(x))),
        "trace_err": abs(float(trace.real) - 1.0),
        "certified_gap": bounds.ub - bounds.lb,
    }
    return SdpSolution(
        objective=bounds.ub,
        objective_lb=bounds.lb,
        iterations=iterations,
        status=status,
        residuals=residuals,
        blocks=x,
        problem=problem,
    )


def _splitting(st: _Stack, bounds: _Bounds, opts: SdpOptions) -> tuple[int, str]:
    """Consensus ADMM; returns (iterations, status)."""
    nb, s = st.nb, st.s
    mult = np.repeat(st.block_mult, s)  # eigenvalue multiplicities, block by block
    root_mult = np.sqrt(st.block_mult)[:, None, None]

    def norm(mats: np.ndarray) -> float:
        return float(np.linalg.norm(mats * root_mult))

    rho = PENALTY
    x = st.eye / st.n
    y = x.copy()
    u = np.zeros_like(x)

    for it in range(1, opts.max_iters + 1):
        w, v = np.linalg.eigh(y - u - st.costs / rho)
        x = _compose(v, _simplex_projection(w.ravel(), mult).reshape(nb, s))
        z = st.pt(x + u)
        w, v = np.linalg.eigh(z)
        y_new = st.pt_adj(_compose(v, np.maximum(w, 0.0)))
        r_dual = rho * norm(y_new - y)
        y = y_new
        u = u + x - y
        r_prim = norm(x - y)

        if not math.isfinite(r_prim) or not math.isfinite(r_dual):
            return it, "infeasible_numerics"

        if it % CHECK_EVERY == 0:
            # dual certificate: S2 = rho * (negative part of PT(x+u)) is PSD exactly
            stop = bounds.update(x, _compose(v, np.maximum(-w, 0.0)) * rho)
            if stop is not None:
                return it, stop

        if it % ADAPT_EVERY == 0:
            if r_prim > 10.0 * r_dual:
                rho *= 2.0
                u /= 2.0
            elif r_dual > 10.0 * r_prim:
                rho /= 2.0
                u *= 2.0
    return opts.max_iters, "max_iters"


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.swapaxes(-1, -2))


@lru_cache(maxsize=None)
def _symmetric_basis(s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, basis) of real symmetric s x s blocks: basis[u] is E_ij + E_ji at (i, j) = (i[u], j[u]).

    The pairs i < j come first, then the diagonal, where basis[u] is E_ii.
    """
    i, j = (np.concatenate([upper, np.arange(s)]) for upper in np.triu_indices(s, 1))
    basis = np.zeros((len(i), s, s))
    basis[np.arange(len(i)), i, j] = basis[np.arange(len(i)), j, i] = 1.0
    basis.flags.writeable = False
    return i, j, basis


def _start(st: _Stack) -> np.ndarray:
    """The stacks (X, W, S1, S2) = (I/n, I/n, C - y I - PT*(I), I), with y chosen so that lambda_min(S1) = 1."""
    nb = st.nb
    eye = np.broadcast_to(np.eye(st.s), (2 * nb, st.s, st.s))
    y = _min_eig(st.costs - st.pt_adj(eye[:nb])) - 1.0
    return np.concatenate([eye / st.n, st.costs - (y + 1.0) * eye[:nb], eye[:nb]])


def _follow_path(bounds: _Bounds, opts: SdpOptions, newton: Callable[[], tuple | None]) -> tuple[int, str]:
    """The outer loop of both interior-point forms; returns (Newton steps, status).

    ``newton`` takes one step and returns the pairs (trace-one X-side stack,
    S2 stack) it offers the certificate, in order, or None once the numbers
    have broken down.
    """
    best_gap, since_best = math.inf, 0
    for it in range(1, opts.max_iters + 1):
        try:
            points = newton()
        except np.linalg.LinAlgError:
            points = None
        if points is None:
            return it, "infeasible_numerics"
        for point in points:
            stop = bounds.update(*point)
            if stop is not None:
                return it, stop
        if bounds.ub - bounds.lb < best_gap:
            best_gap, since_best = bounds.ub - bounds.lb, 0
        else:
            since_best += 1
            if since_best >= STALL_STEPS:
                return it, "infeasible_numerics"
    return opts.max_iters, "max_iters"


def _interior_point(st: _Stack, bounds: _Bounds, opts: SdpOptions) -> tuple[int, str]:
    """Primal-dual path following: HKM direction with Mehrotra's predictor-corrector.

    Primal: min <C, X> over X >= 0 and W = PT(X) >= 0 with tr X = 1.  Dual:
    max y over S1, S2 >= 0 with S1 = C - y I - PT*(S2).  The cost must be
    real.  The start is feasible and every step keeps the linear
    constraints; the rounding left in tr X is fed back into the next step.
    Traces and inner products carry the multiplicities Tr P_b on the X side
    and Tr Q_c on the W side, so the block iterates are the dense ones.

    With Xi(D) = sym(Zi D Si^-1), (Z1, Z2) = (X, W), and H = sym(target S^-1),
    a step has dS1 = -dy I - PT*(dS2) and dX = H1 - X1(dS1), so dW = PT(dX) reads
    (X2 + PT X1 PT*)(dS2) + dy PT(X1(I)) = H2 - PT(H1), bordered by the trace
    row.  Its Schur matrix holds, for each element E of `_symmetric_basis`
    put in block d, the image's W-side entries (i, j), i <= j: P X1 A plus
    X2 block by block, with P and A the coordinate matrices of PT and PT*
    (T may move an entry between blocks), read off the basis once per
    solve.  dS2 and the trace row are read from the same basis.  Returns
    (Newton steps, status).
    """
    nb, s = st.nb, st.s  # PT maps the nb blocks of X onto as many blocks of W
    i, j, basis = _symmetric_basis(s)
    per_block = len(i)
    size = nb * per_block
    eye = np.broadcast_to(np.eye(s), (2 * nb, s, s))
    # column (d, u) of the coordinate matrices: basis[u] put in block d, under PT and PT*
    units = np.einsum("de,uij->dueij", np.eye(nb), basis).reshape(size, nb, s, s)
    pt_coords = st.pt(units)[..., i, j].reshape(nb, per_block, size)
    adj_coords = st.pt_adj(units)[..., i, j].reshape(size, size).T
    # Schur operator on dS2: K = X2 + PT X1 PT*, bordered by dy and the trace row;
    # its diagonal blocks K[c, :, c, :] as a view
    schur = np.empty((size + 1, size + 1))
    diagonal = np.einsum("cicj->cij", schur[:size, :size].reshape(nb, per_block, nb, per_block))
    rhs = np.empty(size + 1)

    def trace(a: np.ndarray) -> float:
        return float(st.trace(a))

    def mean_gap(a: np.ndarray, b: np.ndarray) -> float:
        """<A, B> over both sides per unit of dense side: mu for A = (X, W), B = (S1, S2)."""
        return float(st.mult @ np.sum(a * b, axis=(1, 2))) / (2.0 * st.n)

    state = _start(st)

    def newton() -> tuple[np.ndarray, np.ndarray] | None:
        nonlocal state
        z, dual, x = state[: 2 * nb], state[2 * nb :], state[:nb]
        mu = mean_gap(z, dual)
        r_trace = 1.0 - trace(x)
        if not math.isfinite(mu):
            return None
        # scale by the spectra: F = diag(w)^-1/2 V^T gives F Z F^T = I and F^T F = Z^-1
        w, v = np.linalg.eigh(state)
        if not w[:, 0].min() > 0.0:  # rounding has left an iterate on or outside its cone
            return None
        factors = (v / np.sqrt(w)[:, None, :]).swapaxes(-1, -2)
        dual_inv = factors[2 * nb :].swapaxes(-1, -2) @ factors[2 * nb :]
        # [block, basis element, row]: the images of the basis under each block's Xi
        x_side = _sym(x[:, None] @ basis @ dual_inv[:nb, None])[..., i, j]
        w_side = _sym(z[nb:, None] @ basis @ dual_inv[nb:, None])[..., i, j]
        schur[:size, :size] = (x_side @ pt_coords).reshape(size, size).T @ adj_coords
        diagonal[:] += w_side.swapaxes(1, 2)
        u = _sym(x @ dual_inv[:nb])
        pt_u = st.pt(u)
        # border: dy in each equation, and the trace row <PT(u), dS2> over the W side
        schur[:size, size] = pt_u[:, i, j].ravel()
        schur[size, :size] = (st.mult[nb:, None] * np.einsum("cij,uij->cu", pt_u, basis)).ravel()
        schur[size, size] = trace(u)

        def direction(target: np.ndarray) -> np.ndarray:
            """Newton step (dX, dW, dS1, dS2) that moves Z S by target."""
            h = _sym(target @ dual_inv)
            rhs[:size] = (h[nb:] - st.pt(h[:nb]))[:, i, j].ravel()
            rhs[size] = r_trace - trace(h[:nb])
            sol = np.linalg.solve(schur, rhs)
            ds2 = np.einsum("cu,uij->cij", sol[:size].reshape(nb, per_block), basis)
            ds1 = -sol[size] * eye[:nb] - st.pt_adj(ds2)  # sol[size] is dy
            dx = h[:nb] - _sym(x @ ds1 @ dual_inv[:nb])
            return np.concatenate([dx, st.pt(dx), ds1, ds2])

        def steps(d: np.ndarray) -> np.ndarray:
            """Largest primal and dual steps <= 1 that stay in the cones, per block."""
            lam = np.linalg.eigvalsh(factors @ d @ factors.swapaxes(-1, -2))[:, 0]
            reach = -1.0 / np.minimum(lam, -1.0)
            return np.repeat([reach[: 2 * nb].min(), reach[2 * nb :].min()], 2 * nb)

        d = direction(-z @ dual)
        moved = state + steps(d)[:, None, None] * d
        sigma_mu = min(1.0, (mean_gap(moved[: 2 * nb], moved[2 * nb :]) / mu) ** 3) * mu
        d = direction(sigma_mu * eye - z @ dual - d[: 2 * nb] @ d[2 * nb :])
        state = _sym(state + STEP_FRACTION * steps(d)[:, None, None] * d)
        return ((state[:nb] / trace(state[:nb]), state[3 * nb :]),)

    return _follow_path(bounds, opts, newton)


@dataclass(frozen=True)
class LpVertex:
    """A vertex of the scalar problem's polytope {x >= 0, pt_map x >= 0, mult . x = 1}, with its basis.

    ``basis`` indexes its nb - 1 active rows among the slacks' rows
    (I; pt_map); ``system`` holds those rows and then the trace row, so
    ``system @ blocks`` is (0, ..., 0, 1).  The methods take scalar costs c.
    Every field but ``mult`` may carry leading stack axes, one entry per
    vertex (`basis_vertices`); the methods then broadcast costs of shape
    (..., nb) over them and return one number per vertex.
    """

    blocks: np.ndarray
    basis: np.ndarray
    system: np.ndarray
    mult: np.ndarray

    def value(self, costs: np.ndarray) -> float | np.ndarray:
        """The vertex's objective sum_b m_b c_b v_b, an upper bound on the LP's optimum."""
        return np.sum(costs * (self.mult * self.blocks), axis=-1)

    def multipliers(self, costs: np.ndarray) -> np.ndarray:
        """The basis multipliers z of system^T z = m * c (complementary slackness), the trace row's last."""
        return np.linalg.solve(self.system.swapaxes(-1, -2), (self.mult * costs)[..., None])[..., 0]

    def dual_bound(self, costs: np.ndarray, multipliers: np.ndarray | None = None) -> float | np.ndarray:
        """A lower bound on the LP's optimum from the basis dual: the `_Bounds` certificate on the LP.

        min_b (m c - A^T z)_b / m_b over the multipliers' positive part z on
        the active rows A: certified whatever the rounding, and the vertex's
        value exactly when the basis is dual feasible at c.  Any
        ``multipliers`` certify a bound, not only the basis's own at c,
        which are solved for when none are given.
        """
        z = self.multipliers(costs) if multipliers is None else multipliers
        active = np.maximum(z[..., None, :-1], 0.0) @ self.system[..., :-1, :]
        return np.min((self.mult * costs - active[..., 0, :]) / self.mult, axis=-1)


def basis_vertices(
    bases: np.ndarray, pt_map: np.ndarray, mult: np.ndarray, costs: np.ndarray
) -> tuple[LpVertex, np.ndarray]:
    """The feasible vertices that a stack of bases fixes, and their multipliers at each row of ``costs``.

    One batched `np.linalg.solve` takes every basis's system (its nb - 1
    rows of (I; pt_map) over the trace row, as in `LpVertex`) and the
    transposed system, whose right-hand sides are m * c for each cost
    vector c.  A basis whose vertex leaves the polytope by more than
    `VERTEX_TOL` is dropped.  Returns the vertex stack and the multipliers
    [cost, vertex, row]; LinAlgError if any system is singular.
    """
    nb = len(mult)
    rows = np.concatenate([np.eye(nb), pt_map])
    systems = np.empty((len(bases), nb, nb))
    systems[:, :-1], systems[:, -1] = rows[bases], mult
    rhs = np.zeros((2, len(bases), nb, len(costs)))
    rhs[0, :, -1] = 1.0
    rhs[1] = (mult * costs).T
    solution = np.linalg.solve(np.stack([systems, systems.swapaxes(-1, -2)]), rhs)
    blocks = solution[0, :, :, 0]
    feasible = np.min(blocks @ rows.T, axis=-1) >= -VERTEX_TOL
    vertices = LpVertex(blocks=blocks[feasible], basis=bases[feasible], system=systems[feasible], mult=mult)
    return vertices, np.moveaxis(solution[1, feasible], -1, 0)


def round_to_vertex(x: np.ndarray, pt_map: np.ndarray, mult: np.ndarray) -> LpVertex:
    """The vertex of the scalar problem's polytope that a point x approaches.

    The nb - 1 smallest of the 2 nb slacks (x, pt_map x) are taken as
    active; with the trace row they fix the vertex.  Near an optimal edge
    those rows can be dependent; only then are the smallest slacks taken
    whose rows are independent together with the trace row, chosen
    greedily.  The rows count as dependent when either the system or its
    transpose, which `LpVertex.multipliers` solves, is singular to the
    solver.  ValueError unless the rows fix a vertex that is feasible
    within `VERTEX_TOL`.
    """
    nb = len(x)
    rows = np.concatenate([np.eye(nb), pt_map])
    order = np.argsort(rows @ x, kind="stable")
    unit = np.zeros((2, nb, 1))
    unit[:, -1] = 1.0

    def solve_basis(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The basis rows over the trace row, and the vertex they fix; the transpose is solved too."""
        pair = np.empty((2, nb, nb))
        pair[0, :-1], pair[0, -1] = rows[basis], mult
        pair[1] = pair[0].T
        return pair[0], np.linalg.solve(pair, unit)[0, :, 0]

    basis = order[: nb - 1]
    try:
        system, v = solve_basis(basis)
    except np.linalg.LinAlgError:
        # the rows of I alone span, so the greedy choice always completes a basis
        picked: list[int] = []
        for row in order:
            if np.linalg.matrix_rank(np.vstack([rows[picked + [row]], mult])) == len(picked) + 2:
                picked.append(row)
                if len(picked) == nb - 1:
                    break
        basis = np.array(picked)
        system, v = solve_basis(basis)
    infeasible = -float(np.min(rows @ v))
    if not infeasible <= VERTEX_TOL:  # also when v is not finite
        raise ValueError(f"the rounded vertex is infeasible by {infeasible:.3g}")
    return LpVertex(blocks=v, basis=basis, system=system, mult=mult)


def _scalar_interior_point(st: _Stack, bounds: _Bounds, opts: SdpOptions) -> tuple[int, str]:
    """`_interior_point` on blocks of side 1, written on vectors, ended at a vertex.

    With every block a number the problem is a linear program in nb
    unknowns: X, W = pt_map x, S1 and S2 are vectors, the HKM scaling is an
    entrywise division, the Schur operator on dS2 is the (nb + 1)-square
    matrix pt_map diag(x / s1) PT* + diag(w / s2) bordered by the
    trace row, and a step length is the ratio test d / state.  The start, the
    step fraction, the stall rule and the certificate are those of
    `_interior_point`.

    An optimum of a linear program is a vertex, which the iterates approach
    long before their own gap closes.  After every step the iterate is
    rounded to a vertex (`round_to_vertex`), and the vertex is offered to
    the certificate ahead of the iterate, with S2 the basis dual: the
    vertex's `LpVertex.multipliers` at the costs, their W-side part clamped
    at 0 and divided by the W-side multiplicities.  lambda_min(C - PT*(S2)) is then
    the basis dual's bound, so an optimal vertex whose basis is dual
    feasible certifies a gap at rounding level.  A rounding that fixes no
    feasible vertex is skipped for that step.  Returns (Newton steps, status).
    """
    nb = st.nb
    pt_map, adjoint = st.problem.pt_map, st.adjoint
    x_mult, w_mult = st.mult[:nb], st.mult[nb:]
    costs = st.costs.ravel()
    diagonal = np.arange(nb)
    schur = np.empty((nb + 1, nb + 1))
    rhs = np.empty(nb + 1)

    def mean_gap(a: np.ndarray, b: np.ndarray) -> float:
        return float(st.mult @ (a * b)) / (2.0 * st.n)

    def vertex(x: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """The certificate pair of the vertex that x approaches, or None if x fixes none."""
        try:
            vertex = round_to_vertex(x, pt_map, x_mult)
            z = vertex.multipliers(costs)[:-1]
        except (ValueError, np.linalg.LinAlgError):
            return None
        basis = vertex.basis
        w_side = basis >= nb
        s2 = np.zeros(nb)
        s2[basis[w_side] - nb] = np.maximum(z[w_side], 0.0) / w_mult[basis[w_side] - nb]
        v = np.maximum(vertex.blocks, 0.0)  # PSD exactly; the mix toward I/n absorbs the W side's rounding
        return (v / (x_mult @ v))[:, None, None], s2[:, None, None]

    state = _start(st).ravel()  # (x, w, s1, s2)

    def newton() -> tuple[tuple[np.ndarray, np.ndarray], ...] | None:
        nonlocal state
        z, dual, x = state[: 2 * nb], state[2 * nb :], state[:nb]
        mu = mean_gap(z, dual)
        r_trace = 1.0 - float(x_mult @ x)
        if not (math.isfinite(mu) and state.min() > 0.0):
            return None
        inv = 1.0 / dual
        u = x * inv[:nb]
        schur[:nb, :nb] = (pt_map * u) @ adjoint
        schur[diagonal, diagonal] += z[nb:] * inv[nb:]
        schur[:nb, nb] = pt_map @ u
        schur[nb, :nb] = w_mult * schur[:nb, nb]
        schur[nb, nb] = x_mult @ u

        def direction(target: np.ndarray) -> np.ndarray:
            h = target * inv
            rhs[:nb] = h[nb:] - pt_map @ h[:nb]
            rhs[nb] = r_trace - x_mult @ h[:nb]
            sol = np.linalg.solve(schur, rhs)  # (dS2, dy)
            ds1 = -sol[nb] - adjoint @ sol[:nb]
            dx = h[:nb] - u * ds1
            return np.concatenate([dx, pt_map @ dx, ds1, sol[:nb]])

        def steps(d: np.ndarray) -> np.ndarray:
            reach = -1.0 / np.minimum(d / state, -1.0)
            return np.repeat([reach[: 2 * nb].min(), reach[2 * nb :].min()], 2 * nb)

        d = direction(-z * dual)
        moved = state + steps(d) * d
        sigma_mu = min(1.0, (mean_gap(moved[: 2 * nb], moved[2 * nb :]) / mu) ** 3) * mu
        d = direction(sigma_mu - z * dual - d[: 2 * nb] * d[2 * nb :])
        state = state + STEP_FRACTION * steps(d) * d
        x = state[:nb]
        iterate = (x / (x_mult @ x))[:, None, None], state[3 * nb :, None, None]
        rounded = vertex(x)
        return (iterate,) if rounded is None else (rounded, iterate)

    return _follow_path(bounds, opts, newton)
