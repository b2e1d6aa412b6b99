"""Self-contained solver for min <C, X> over {X >= 0, X^T1 >= 0, Tr X = 1}.

Three loops share one problem representation, one certificate and one
entry, `solve`, which picks the loop from the cost's field and the blocks:

- a primal-dual interior-point method (the HKM direction of Helmberg,
  Rendl, Vanderbei & Wolkowicz, SIAM J. Optim. 6 (1996), with Mehrotra's
  predictor-corrector) on min <C, X> over X >= 0 and W = X^T1 >= 0 with
  Tr X = 1, scaled by a factor of each block of its iterates.  Its Newton
  system has about side^2 / 2 unknowns per block, so `solve` takes it for
  a real cost in blocks of side 2 to `IPM_MAX_SIDE` (16): a plain real
  cost of side <= 16, the Hirsch inputs in their parity form (eight
  blocks of side 2), and, through the ancilla's Bell form (blocks of side
  d_A d_B), every other real activation cost with no twirl form and
  d_A d_B <= 16.  It certifies within a few dozen Newton steps where the
  splitting loop needs up to tens of thousands of iterations near a sign
  change (`_interior_point` says how a step is assembled);
- consensus operator splitting (ADMM) for complex costs and larger blocks:
  one block carries the spectral-simplex constraint {X >= 0, Tr X = 1}
  with the linear cost handled proximally, the other carries the
  partial-transpose cone {Y : Y^T1 >= 0}, and a scaled dual couples X = Y.
  Each iteration costs two or three Hermitian eigendecompositions.  No
  command-line route reaches it.  It stays as the tests' reference for the
  interior point, which is slower on dense blocks of side 24 to 64 and
  converges less often on complex costs;
- an active-set simplex for a real cost in blocks of side 1 (every
  twirled Werner, isotropic or wi form at any d: eight scalar blocks), a
  linear program whose optimum is a vertex of its polytope.  It pivots on
  the dual from the vertex s = 0, y = min_b c_b, which is feasible for
  every cost, so it needs no phase 1 and no stored basis, and offers the
  certificate the optimal vertex and its dual once (`_simplex`).  The
  tests use the matrix interior-point loop on the same blocks as its
  reference.  Its Bland loop (`_pivot`) takes its rows and start basis as
  arguments, and `onset` runs it once more on the LP whose optimum is the
  largest t with sigma >= 0 along a segment of costs, from the basis that
  a solve at the segment's start ends in (`SdpSolution.basis`); that LP
  certifies sigma >= 0 at t* by its S2 and sigma < 0 beyond t* by its
  primal vertex.

Every `SdpProblem` is stacked blocks with multiplicities on an `SdpLayout`,
and so are the iterates.  A plain problem is one dense block of side n with
multiplicity 1 (`SdpProblem.from_cost`).  A cost invariant under a twirl of some of its
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
Tr Q_c) by the layout's one map ``pt_map``: `SdpLayout.pt`.  Its adjoint
`SdpLayout.pt_adj` is derived from ``pt_map`` and the multiplicities, and
must also invert it, as the dense partial transpose is a self-adjoint
involution.  A cost that also commutes with Z x Z on two qubits (the
Hirsch activation costs) takes its parity as one more factor, in a
relabelled basis (``SdpLayout.relabel``).

A sequence of problems that differ only in their cost (a threshold search
along p) can reoptimize: the feasible set {X >= 0, X^T1 >= 0, Tr X = 1}
does not depend on the cost, so `solve(problem, start)` starts the
interior-point loop from a stored state of an earlier solve on the same
layout (`SdpSolution.iterates`).  The dual variable y absorbs the cost's
change: a state whose four stacks are interior stays feasible with its
dual slack S1 moved by the change and shifted by t I, for the least t >= 0
that keeps S1's smallest eigenvalue.  The start is the state of least gap
mu after that shift among those whose mu grows by at most
`WARM_GAP_GROWTH` (Gondzio & Grothey, SIAM J. Optim. 13 (2002); John &
Yildirim, Comput. Optim. Appl. 41 (2008)), and the cold start I/n when
there is none; `SdpSolution.warm_start` names it.  Nor does anything
derived from the layout alone (the gather of T, the multiplicities, the
adjoint, `_Operators`, the simplex's rows), so every loop takes the shared
`SdpLayout`, which derives them once, for warm and cold solves alike.  A
warm solve that ends ``infeasible_numerics`` is run again cold, so a warm
start never costs a certificate that the cold start would give.

Every smallest eigenvalue the loops read -- the warm start's shift, the
interior point's step lengths, the certificate's bounds and the minimizer's
checks -- comes from `_lowest`.  It reads a block of side 1 and a real
block of side 2 in closed form, where a step would otherwise spend more
time in eigvalsh's wrapper than in its arithmetic: a side-1 block is its
own eigenvalue, and [[a, b], [b, c]] has (a + c)/2 - hypot((a - c)/2, b).
Complex blocks of side 2 and all larger ones go through eigvalsh.  Beside
it, `_scaling` gives the interior point's factors F with F Z F^T = I, and
so F^T F = Z^-1, of its iterates' blocks Z: for a real block of side 2 the
inverse of its Cholesky factor, in closed form once a > 0 and ac - b^2 > 0,
and for any larger block diag(w)^-1/2 V^T from eigh.  So a solve in the
parity form (the Hirsch inputs) makes no LAPACK eigendecomposition at all.

The three loops feed one certificate of objective bounds:

- lower bound: lambda_min(C - PT(S2)) <= p* for any S2 >= 0 on the
  partial-transpose side; ADMM takes the clamped negative part of its
  Y-projection, the interior-point loop its dual slack on W, the simplex
  its dual s;
- upper bound: mixing the current X toward I/n absorbs its PPT slack and
  yields an exactly feasible point whose value is reported as `objective`.

The certificate is the only way a solve ends certified: it stops with
``converged`` when the bound gap closes to `tol_objective`, or with
``decided`` (if `objective_cut` is set) as soon as the bounds certify on
which side of the cut the optimum lies -- a sign decision can be certified
long before the gap closes on degenerate instances.  With a cut set, a
solve stops only once the bounds settle it, however small the gap.  Small
consensus residuals alone stop nothing.  `max_iters` caps ADMM iterations,
Newton steps and pivots alike.  A solve whose numbers break down (a non-finite
ADMM residual, an interior-point iterate that is not positive definite,
`STALL_STEPS` Newton steps without a tighter gap, or an optimal
vertex whose bounds stay apart) ends with its best bounds and status
``infeasible_numerics``.  A solve checks its minimizer's blocks against
the invariants of a `DensityMatrix` (Hermitian, unit trace, PSD) and
reads its PSD slack, PPT slack and trace error off the blocks; the dense
minimizer is built only on request (`SdpSolution.minimizer`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .linalg import (
    HERM_INPUT_TOL,
    HERMITICITY_TOL,
    PSD_TOL,
    TRACE_TOL,
    DensityMatrix,
    is_hermitian,
    kron,
    permute_mat,
)

MAX_SIDE = 256
# largest block side solved by the interior-point loop: its Newton system has
# about side^2 unknowns per block
IPM_MAX_SIDE = 16
# share of the distance to the cone boundary that an interior-point step covers.
# Longer steps leave the iterates so close to the boundary that the Schur solves
# lose accuracy, an accuracy floor near 1e-10 (the twirled linear programs
# escape it: their scalar blocks go to the simplex).  On the activation
# costs of the real parts of 40 states from random_density((2, 2),
# default_rng(7)) in their Bell form, at tol_objective = 1e-10, 0.9 closes 38
# certified gaps to 1e-10 (604 Newton steps) and the other two to 2.1e-10 and
# 3.9e-10, 0.98 only 16 (the rest to 1.2e-9), and 0.8 all 40 in 657 steps.
# Smaller blocks keep the floor: on 16 Hirsch costs (p in {0.172, 0.175, 0.18,
# 0.2, 0.3, 0.5, 0.8, 1} x q in {1, 0.6}, max_iters 200), the parity form
# (side 2) converges on 16 at tol_objective = 1e-11 and 11 at 1e-12, the Bell
# form (side 4) on 16 and 11.
STEP_FRACTION = 0.9
# interior-point steps without a tighter certified gap after which the loop has stalled
STALL_STEPS = 5
# the most a warm start's gap mu' may exceed its stored state's mu (`_warm_start`).
# The five hirsch1 and hirsch2 tlf searches of the tests take 172, 159, 154, 151,
# 154 and 158 Newton steps in all at 2, 4, 8, 16, 32 and 64 (207 from the latest
# stored state that stays interior unshifted).  From 64 on, a start whose shift
# dominates its gap (p = 0.22 from the solve at 0.12 has mu' = 180 mu when
# unbounded) carries 1-ulp differences of `_lowest` into up to 5e-15 of its
# lower bound.
WARM_GAP_GROWTH = 16.0
# rounding allowance of the simplex: how far below 0 a multiplier (an entry of
# the primal vertex) may lie and the vertex still be taken as feasible
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
    "Onset",
    "SdpLayout",
    "SdpOptions",
    "SdpProblem",
    "SdpSolution",
    "check_side",
    "onset",
    "solve",
]


def check_side(n: int) -> None:
    """Reject a problem of side n above `MAX_SIDE`."""
    if n > MAX_SIDE:
        raise ValueError(f"problem side {n} exceeds the desk-scale limit {MAX_SIDE}")


@dataclass(frozen=True)
class SdpOptions:
    """Stop rules of the three loops.

    ``max_iters`` caps ADMM iterations, Newton steps or pivots; a solve is
    ``converged`` once its certified gap ub - lb is at most
    ``tol_objective``, and ``decided`` once its bounds lie on one side of
    ``objective_cut``, when that is set.  With a cut set, a solve stops only
    once its bounds lie on one side of it.  A warm interior-point solve (one
    started from a stored iterate of ``solve``'s ``start``) that ends
    ``infeasible_numerics`` is run again from the cold start under the same
    options: ``max_iters`` caps each run, and the solution's ``iterations``
    counts the Newton steps of both.
    """

    max_iters: int = 50_000
    tol_objective: float = 1e-6
    objective_cut: float | None = None

    def __post_init__(self) -> None:
        # a solve under any other value could never certify a bound; a bool is an int
        # subclass, and True would otherwise pass as a budget of 1 or a tolerance of 1.0
        flag = (bool, np.bool_)
        budget, tol, cut = self.max_iters, self.tol_objective, self.objective_cut
        if isinstance(budget, flag) or not (isinstance(budget, (int, np.integer)) and budget >= 1):
            raise ValueError(f"max_iters must be an integer of at least 1, got {budget!r}")
        if isinstance(tol, flag) or not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"tol_objective must be finite and positive, got {tol}")
        if isinstance(cut, flag) or not (cut is None or math.isfinite(cut)):
            raise ValueError(f"objective_cut must be finite, got {cut}")


@dataclass(frozen=True, eq=False)
class SdpLayout:
    """The cost-independent half of a problem C = sum_b P_b (x) costs[b]; layouts compare by identity.

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
    a xor 1 to the block of the other parity (`transpose`), and
    `dense` undoes the relabelling.

    X-side stacks hold blocks X_b (multiplicities ``mult``, Tr P_b), W-side
    ones blocks of X^T1 (``pt_mult``, Tr Q_c).  `transpose` is T over the
    inner subsystems in the cut, one gather of a stack's entries; `pt` is
    PT(X)_c = sum_b pt_map[c, b] T(X)_b, and `pt_adj` its adjoint under the
    multiplicity-weighted inner products.  Every loop takes the layout, which
    derives these, its `_Operators` and the simplex's ``lp_rows`` on first
    use.  It is validated whole when built: the adjoint must invert
    ``pt_map``, and every entry be finite.
    """

    factors: tuple[tuple[np.ndarray, tuple[int, ...]], ...]
    pt_map: np.ndarray
    dims: tuple[int, ...]
    t1_split: int = 1
    relabel: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        check_side(int(np.prod(self.dims)))
        if not all(np.all(np.isfinite(a)) for a in (self.pt_map, *(p for p, _ in self.factors))):
            raise ValueError("layout entries must be finite")
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
        if np.max(np.abs(self.adjoint @ self.pt_map - np.eye(len(self.mult)))) > HERM_INPUT_TOL:
            raise ValueError(f"the adjoint of pt_map does not invert it within {HERM_INPUT_TOL}")

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

    @cached_property
    def pt_mult(self) -> np.ndarray:
        """Multiplicities Tr Q_c of the W side: PT(P_b) = sum_c pt_map[c, b] Q_c."""
        return np.rint(np.linalg.solve(self.pt_map.T, self.mult))

    @cached_property
    def adjoint(self) -> np.ndarray:
        """PT*(S)_b = sum_c adjoint[b, c] T(S)_c, with adjoint[b, c] = pt_map[c, b] Tr Q_c / Tr P_b."""
        return np.ascontiguousarray(self.pt_map.T * self.pt_mult / self.mult[:, None])

    @cached_property
    def shape(self) -> tuple[int, int, int]:
        """A block stack's shape (blocks, side, side), the side that of the inner subsystems."""
        side = int(np.prod([d for i, d in enumerate(self.dims) if i not in self.outer]))
        return len(self.mult), side, side

    @cached_property
    def n(self) -> float:
        """The side of the dense problem."""
        return float(self.mult.sum() * self.shape[1])

    @cached_property
    def center(self) -> np.ndarray:
        """The X-side stack of I/n: the splitting loop's start and the point the certificate mixes toward."""
        nb, s, _ = self.shape
        return np.broadcast_to(np.eye(s) / self.n, (nb, s, s))

    @cached_property
    def trace_weights(self) -> np.ndarray:
        """Tr of the dense operator of an X-side stack as one dot with its flattened entries."""
        return np.outer(self.mult, np.eye(self.shape[1])).ravel()

    @cached_property
    def gather(self) -> np.ndarray:
        """T as indices into a flattened stack: T inside each block, with ``relabel`` also across parities."""
        nb, s, _ = self.shape
        # T1 inside a block: the inner factors that fall in the cut (m) come first
        inner = [i for i in range(len(self.dims)) if i not in self.outer]
        m = int(np.prod([self.dims[i] for i in inner if i < self.t1_split]))
        k = s // m
        # entry (b, (a, x), (a', x')) of T(X) is entry (b', (a', x), (a, x')) of X, where b' is b, or with
        # ``relabel`` its parity partner when a != a' (the first factor's label shifts by half the blocks)
        half = nb // 2 if self.relabel else 0
        b, a, x, a2, x2 = np.indices((nb, m, k, m, k))
        return np.ravel_multi_index(((b + half * (a != a2)) % nb, a2, x, a, x2), b.shape).ravel()

    def transpose(self, mats: np.ndarray) -> np.ndarray:
        """T of a stack of nb blocks, over any leading axes."""
        return mats.reshape(*mats.shape[:-3], -1)[..., self.gather].reshape(mats.shape)

    def _mixed(self, mix: np.ndarray, mats: np.ndarray) -> np.ndarray:
        out = self.transpose(mats)
        # a lone block spans the whole space, which the transpose maps onto itself
        return out if len(mix) == 1 else np.einsum("cb,...bij->...cij", mix, out)

    def pt(self, mats: np.ndarray) -> np.ndarray:
        return self._mixed(self.pt_map, mats)

    def pt_adj(self, mats: np.ndarray) -> np.ndarray:
        return self._mixed(self.adjoint, mats)

    def trace(self, mats: np.ndarray) -> complex:
        """Trace of the dense operator of an X-side stack."""
        return self.trace_weights @ mats.reshape(-1)

    @cached_property
    def operators(self) -> _Operators:
        return _Operators(self)

    @cached_property
    def lp_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The simplex's rows on blocks of side 1: the dual's x-rows and s-rows, and the primal's (I; pt_map; mult)."""
        nb = len(self.mult)
        dual = np.zeros((2 * nb, nb + 1))
        dual[:nb, 0], dual[:nb, 1:], dual[nb:, 1:] = self.mult, self.pt_map.T, -np.eye(nb)
        return dual, np.concatenate([np.eye(nb), self.pt_map, self.mult[None]])

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


@dataclass(frozen=True, eq=False)
class SdpProblem:
    """A problem as stacked blocks on a layout, C = sum_b P_b (x) costs[b], with its options.

    `from_cost` wraps a plain cost matrix as one block with no factor; ``cost``
    is the dense matrix of the blocks, built on first access.  A complex cost
    with zero imaginary part is stored real, so its dtype settles the loop.
    The problem is frozen, so its costs are always the checked ones.
    """

    costs: np.ndarray
    layout: SdpLayout
    options: SdpOptions = field(default_factory=SdpOptions)

    def __post_init__(self) -> None:
        costs = self.costs
        if costs.shape != self.layout.shape:
            raise ValueError(f"block costs of shape {costs.shape} do not match the layout's {self.layout.shape}")
        if not is_hermitian(costs, HERM_INPUT_TOL):
            raise ValueError(f"block costs are not finite and Hermitian within {HERM_INPUT_TOL}")
        if np.iscomplexobj(costs) and not np.any(costs.imag):
            object.__setattr__(self, "costs", costs.real.copy())

    @classmethod
    def from_cost(
        cls, cost: np.ndarray, dims: tuple[int, ...], t1_split: int = 1, options: SdpOptions | None = None
    ) -> SdpProblem:
        """The plain problem of a dense cost: one block of side n with multiplicity 1."""
        cost = np.asarray(cost, dtype=complex)
        n = int(np.prod(dims))
        if cost.shape != (n, n):
            raise ValueError(f"cost shape {cost.shape} does not match dims {tuple(dims)}")
        return cls(cost[None], SdpLayout((), np.ones((1, 1)), dims, t1_split), options or SdpOptions())

    @cached_property
    def cost(self) -> np.ndarray:
        """The dense cost sum_b P_b (x) costs[b]."""
        return self.layout.dense(self.costs)


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
    # the interior-point states (X, W, S1, S2) from the start onward, stacked;
    # the simplex's one state, its vertex before the certificate mixes it toward
    # I/n; None for the splitting loop
    iterates: np.ndarray | None = None
    # (index into the start's iterates, shift t of its dual slack) of a warm
    # interior-point solve (`_warm_start`); None for a cold one
    warm_start: tuple[int, float] | None = None
    # the simplex's last basis, its active rows of `SdpLayout.lp_rows`, from
    # which `onset` starts; None for the other loops
    basis: np.ndarray | None = None

    @cached_property
    def minimizer(self) -> DensityMatrix:
        return DensityMatrix(self.problem.layout.dense(self.blocks), self.problem.layout.dims)


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
    """V diag(w) V^dagger over a stack of eigenvector matrices."""
    return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)


class _Operators:
    """The interior-point loop's linear maps on one layout, each one matrix.

    All act on flattened stacks from the right, flat(f(A)) = flat(A) @ f,
    and are read off `SdpLayout.pt` and `SdpLayout.pt_adj` applied to unit
    stacks, so `SdpLayout.transpose` stays the only definition of T.  A
    symmetric block is written in its coordinates on `_symmetric_basis`,
    its entries (i, j) with i <= j, and a map that takes the symmetric part
    of its argument first has that part folded in.  The layout derives them
    once, as its ``operators``.  They hold about 6 (nb s^2)^2 numbers: 60 KB
    for the parity form, 45 MB for four blocks of side 16.

    - ``pt``, ``adj``: PT and PT* on X-side and W-side stacks;
    - ``gap``: the weights of <(X, W), (S1, S2)> / (2 n), which is mu;
    - ``sym_coords``: a block's entries to the coordinates of its symmetric part;
    - ``pt_coords``, ``adj_coords``: the coordinate matrices of PT and PT*
      on the symmetric blocks, from which the Schur matrix is assembled;
    - ``border``: U to the coordinates of PT(sym U), the Schur matrix's
      last column, and Tr U, its corner; times ``inner`` (the
      multiplicity-weighted inner products with the basis) the coordinates
      give its last row;
    - ``rhs``: H = (H1, H2) to the Newton right-hand side, the coordinates
      of sym H2 - PT(sym H1) and then -Tr H1;
    - ``dual``: the Schur solution (dS2's coordinates, dy) to (dS1, dS2),
      with dS1 = -dy I - PT*(dS2);
    - ``halves``, ``half_of``: where the primal and the dual half of a
      state start, and the half of each block.
    """

    def __init__(self, layout: SdpLayout) -> None:
        nb, s, _ = layout.shape
        flat = nb * s * s
        i, j, self.basis = _symmetric_basis(s)
        per_block = len(i)
        self.size = size = nb * per_block
        units = np.eye(flat).reshape(flat, nb, s, s)
        self.pt = layout.pt(units).reshape(flat, flat)
        self.adj = layout.pt_adj(units).reshape(flat, flat)
        self.gap = np.repeat(np.concatenate([layout.mult, layout.pt_mult]), s * s) / (2.0 * layout.n)
        # coordinate (c, u) of a block stack is entry (c, i[u], j[u]); of its symmetric part, the mean with (c, j, i)
        entry, mirror = ((np.arange(nb)[:, None] * s * s + index).ravel() for index in (i * s + j, j * s + i))
        coords = np.zeros((flat, size))
        coords[entry, np.arange(size)] += 0.5
        coords[mirror, np.arange(size)] += 0.5
        self.sym_coords = coords[: s * s, :per_block].copy()
        # row (d, u): basis[u] put in block d, and its images under PT and PT*
        lift = np.zeros((size, flat))
        lift[np.arange(size), entry] = lift[np.arange(size), mirror] = 1.0
        lifted = lift.reshape(size, nb, s, s)
        self.pt_coords = layout.pt(lifted)[..., i, j].reshape(nb, per_block, size)
        self.adj_coords = layout.pt_adj(lifted)[..., i, j].reshape(size, size).T
        # the symmetric part of a stack, as a map on its entries
        swapped = np.arange(flat).reshape(nb, s, s).swapaxes(1, 2).ravel()
        pt_sym = 0.5 * (self.pt + self.pt[swapped]) @ coords
        self.border = np.column_stack([pt_sym, layout.trace_weights])
        # <PT(U), basis[u] in block c> over the W side, from PT(U)'s coordinates: Tr Q_c (2 - [i == j]) PT(U)[c, i, j]
        self.inner = np.outer(layout.pt_mult, np.where(i == j, 1.0, 2.0)).ravel()
        self.rhs = np.zeros((2 * flat, size + 1))
        self.rhs[:flat, :size] = -pt_sym
        self.rhs[:flat, size] = -layout.trace_weights
        self.rhs[flat:, :size] = coords
        self.dual = np.zeros((size + 1, 2 * flat))
        self.dual[:size, :flat] = -(lift @ self.adj)
        self.dual[:size, flat:] = lift
        self.dual[size, :flat] = -np.tile(np.eye(s).ravel(), nb)
        self.halves = np.array([0, 2 * nb])
        self.half_of = np.repeat([0, 1], 2 * nb)[:, None, None]


def _lowest(mats: np.ndarray) -> np.ndarray:
    """The smallest eigenvalue of each block of a stack, over any leading axes.

    A block of side 1 is its own.  A real block [[a, b], [b, c]] of side 2
    has (a + c)/2 - hypot((a - c)/2, b), with b read off the lower triangle
    as eigvalsh reads it; any other block takes eigvalsh.
    """
    side = mats.shape[-1]
    if side == 1:
        return mats[..., 0, 0].real
    if side == 2 and not np.iscomplexobj(mats):
        a, b, c = mats[..., 0, 0], mats[..., 1, 0], mats[..., 1, 1]
        return 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)
    return np.linalg.eigvalsh(mats)[..., 0]


def _min_eig(mats: np.ndarray) -> float:
    return float(np.min(_lowest(mats)))


def _scaling(mats: np.ndarray) -> np.ndarray | None:
    """Factors F with F Z F^T = I, so F^T F = Z^-1, of a stack of real blocks Z; None unless all are positive definite.

    A block [[a, b], [b, c]] of side 2, with b read off the lower triangle
    as in `_lowest`, is positive definite when a > 0 and det = ac - b^2 > 0,
    tested before any square root.  F is then the inverse of its Cholesky
    factor: [[1, 0], [-b / sqrt(det), a / sqrt(det)]] / sqrt(a).  Any other
    block takes eigh, Z = V diag(w) V^T, and F = diag(w)^-1/2 V^T.
    """
    if mats.shape[-1] == 2:
        a, b, c = mats[..., 0, 0], mats[..., 1, 0], mats[..., 1, 1]
        det = a * c - b * b
        if not (a.min() > 0.0 and det.min() > 0.0):
            return None
        root_a, root_det = np.sqrt(a), np.sqrt(det)
        factors = np.zeros_like(mats)
        factors[..., 0, 0] = 1.0 / root_a
        factors[..., 1, 0] = -b / (root_a * root_det)
        factors[..., 1, 1] = root_a / root_det
        return factors
    w, v = np.linalg.eigh(mats)
    if not w[..., 0].min() > 0.0:
        return None
    return (v / np.sqrt(w)[..., None, :]).swapaxes(-1, -2)


class _Bounds:
    """Best certified objective bounds of a solve at its cost, and the feasible point attaining the upper one."""

    def __init__(self, layout: SdpLayout, costs: np.ndarray, opts: SdpOptions) -> None:
        self.layout = layout
        self.costs = costs
        self.weighted_costs = layout.mult[:, None, None] * costs
        self.opts = opts
        self.ub = math.inf
        self.lb = -math.inf
        self.x = layout.center

    def update(self, x: np.ndarray, pt_x: np.ndarray, adj_s2: np.ndarray) -> str | None:
        """Tighten the bounds from a trace-one PSD X-side stack x with PT(x), and PT*(S2) of a PSD W-side stack S2.

        - lower bound: lambda_min(C - PT*(S2)) <= p* for every S2 >= 0;
        - upper bound: mixing x toward I/n absorbs its PPT slack and yields
          an exactly feasible point.

        Each loop applies PT and PT* in its own form.  Returns the stop
        status the bounds allow, if any: with an ``objective_cut`` set, none
        until the bounds lie on one side of it, however small the gap.
        """
        low = np.minimum.reduceat(_lowest(np.concatenate([self.costs - adj_s2, pt_x])), (0, len(self.costs)))
        slack = max(0.0, -float(low[1]))
        gamma = slack * self.layout.n / (1.0 + slack * self.layout.n)
        x_feas = (1.0 - gamma) * x + gamma * self.layout.center
        ub = float(np.vdot(x_feas, self.weighted_costs).real)
        if ub < self.ub:
            self.ub = ub
            self.x = x_feas
        self.lb = max(self.lb, float(low[0]))
        cut = self.opts.objective_cut
        if cut is not None and not (self.lb >= cut or self.ub < cut):
            return None
        if self.ub - self.lb <= self.opts.tol_objective:
            return "converged"
        return None if cut is None else "decided"


def solve(problem: SdpProblem, start: SdpSolution | None = None) -> SdpSolution:
    """Solve the problem; deterministic for a fixed problem, options and start.

    The one solve entry: a real cost in blocks of side 1 goes to the
    simplex, one in blocks of side at most ``IPM_MAX_SIDE`` to the
    interior-point loop, all others to the splitting loop.  ``start``, an
    earlier solution of a problem on the same layout object (ValueError
    otherwise, even for an equal copy), lets the interior-point loop start
    from one of that solve's iterates (`_warm_start`), which the solution's
    ``warm_start`` names; the others ignore them.  The stop rules are the
    same either way, and a warm start never costs the certificate: a warm
    solve that ends ``infeasible_numerics`` is run again cold, and the
    solution is that run's, with the steps of both.
    """
    if start is not None and start.problem.layout is not problem.layout:
        raise ValueError("the start solves a problem of another layout")
    if problem.costs.shape[-1] > IPM_MAX_SIDE or np.iscomplexobj(problem.costs):
        return _solve(problem, _splitting)
    if problem.costs.shape[-1] == 1:
        return _solve(problem, _simplex)
    warm = _warm_start(problem.layout, problem.costs, start)
    if warm is None:
        return _solve(problem, _interior_point)
    solution = _solve(problem, lambda layout, bounds, opts: _interior_point(layout, bounds, opts, warm[2]))
    if solution.status != "infeasible_numerics":
        solution.warm_start = warm[:2]
        return solution
    cold = _solve(problem, _interior_point)
    cold.iterations += solution.iterations
    return cold


def _solve(problem: SdpProblem, loop: Callable[[SdpLayout, _Bounds, SdpOptions], tuple]) -> SdpSolution:
    layout = problem.layout
    bounds = _Bounds(layout, problem.costs, problem.options)
    iterations, status, iterates, basis = loop(layout, bounds, problem.options)

    # the invariants of a DensityMatrix, on the blocks: the dense minimizer's
    # spectrum and trace are the blocks' ones with multiplicities, and the
    # spectrum of its partial transpose is that of the W-side stack
    x = bounds.x
    if not is_hermitian(x, HERMITICITY_TOL):
        raise ValueError(f"density matrix is not Hermitian within {HERMITICITY_TOL}")
    trace = layout.trace(x)
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {trace} is not 1 within {TRACE_TOL}")
    low = _min_eig(x)
    if low < -PSD_TOL:
        raise ValueError(f"smallest eigenvalue {low} below {-PSD_TOL}")
    residuals = {
        "psd_slack": max(0.0, -low),
        "ppt_slack": max(0.0, -_min_eig(layout.pt(x))),
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
        iterates=iterates,
        basis=basis,
    )


def _splitting(layout: SdpLayout, bounds: _Bounds, opts: SdpOptions) -> tuple[int, str, None, None]:
    """Consensus ADMM; returns (iterations, status, None, None)."""
    nb, s, _ = layout.shape
    mult = np.repeat(layout.mult, s)  # eigenvalue multiplicities, block by block
    root_mult = np.sqrt(layout.mult)[:, None, None]

    def norm(mats: np.ndarray) -> float:
        return float(np.linalg.norm(mats * root_mult))

    costs = bounds.costs
    rho = PENALTY
    x = layout.center
    y = x.copy()
    u = np.zeros_like(x)

    for it in range(1, opts.max_iters + 1):
        w, v = np.linalg.eigh(y - u - costs / rho)
        x = _compose(v, _simplex_projection(w.ravel(), mult).reshape(nb, s))
        z = layout.pt(x + u)
        w, v = np.linalg.eigh(z)
        y_new = layout.pt_adj(_compose(v, np.maximum(w, 0.0)))
        r_dual = rho * norm(y_new - y)
        y = y_new
        u = u + x - y
        r_prim = norm(x - y)

        if not math.isfinite(r_prim) or not math.isfinite(r_dual):
            return it, "infeasible_numerics", None, None

        if it % CHECK_EVERY == 0:
            # dual certificate: S2 = rho * (negative part of PT(x+u)) is PSD exactly
            stop = bounds.update(x, layout.pt(x), layout.pt_adj(_compose(v, np.maximum(-w, 0.0)) * rho))
            if stop is not None:
                return it, stop, None, None

        if it % ADAPT_EVERY == 0:
            if r_prim > 10.0 * r_dual:
                rho *= 2.0
                u /= 2.0
            elif r_dual > 10.0 * r_prim:
                rho /= 2.0
                u *= 2.0
    return opts.max_iters, "max_iters", None, None


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.swapaxes(-1, -2))


def _symmetric_basis(s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, basis) of real symmetric s x s blocks: basis[u] is E_ij + E_ji at (i, j) = (i[u], j[u]).

    The pairs i < j come first, then the diagonal, where basis[u] is E_ii.
    """
    i, j = (np.concatenate([upper, np.arange(s)]) for upper in np.triu_indices(s, 1))
    basis = np.zeros((len(i), s, s))
    basis[np.arange(len(i)), i, j] = basis[np.arange(len(i)), j, i] = 1.0
    basis.flags.writeable = False
    return i, j, basis


def _start(layout: SdpLayout, costs: np.ndarray) -> np.ndarray:
    """The stacks (X, W, S1, S2) = (I/n, I/n, C - y I - PT*(I), I), with y chosen so that lambda_min(S1) = 1."""
    nb, s, _ = layout.shape
    eye = np.broadcast_to(np.eye(s), (2 * nb, s, s))
    y = _min_eig(costs - layout.pt_adj(eye[:nb])) - 1.0
    return np.concatenate([eye / layout.n, costs - (y + 1.0) * eye[:nb], eye[:nb]])


def _warm_start(
    layout: SdpLayout, costs: np.ndarray, start: SdpSolution | None
) -> tuple[int, float, np.ndarray] | None:
    """The stored state of ``start`` to start from at this real cost, as (index, shift t, state), else None.

    The constraints on (X, W) do not involve the cost, and S1 = C - y I -
    PT*(S2) moves with it, so a stored state (X, W, S1, S2) whose four
    stacks are positive definite stays feasible at the new cost as (X, W,
    S1 + C - C_start + t I, S2): y -> y - t keeps the dual equation exact.
    With t = max(0, lambda_min(S1) - lambda_min(S1 + C - C_start)) the
    shift restores S1's smallest eigenvalue, and the gap becomes mu' =
    mu(X, W, S1 + C - C_start, S2) + t / (2 n), as Tr X = 1.  The start is
    the state of least mu' among those whose mu' is at most
    `WARM_GAP_GROWTH` times their stored mu: the reoptimization of Gondzio
    & Grothey, SIAM J. Optim. 13 (2002), with the dual slack shifted as in
    John & Yildirim, Comput. Optim. Appl. 41 (2008).  One batched `_lowest`
    reads the stored states, and one the moved S1.  None (the cold start)
    for no start, a start with no iterates, or one with no such state.
    """
    if start is None or start.iterates is None:
        return None
    nb, s, _ = layout.shape
    stored, s1 = start.iterates, slice(2 * nb, 3 * nb)
    low = _lowest(stored)
    warm = stored.copy()
    warm[:, s1] += costs - start.problem.costs
    shift = np.maximum(0.0, low[:, s1].min(axis=-1) - _lowest(warm[:, s1]).min(axis=-1))
    warm[:, s1] += shift[:, None, None, None] * np.eye(s)
    mu, mu_warm = ((z[:, : 2 * nb] * z[:, 2 * nb :]).reshape(len(z), -1) @ layout.operators.gap for z in (stored, warm))
    kept = np.flatnonzero((low.min(axis=-1) > 0.0) & (mu_warm <= WARM_GAP_GROWTH * mu))
    if not len(kept):
        return None
    k = int(kept[np.argmin(mu_warm[kept])])
    return k, float(shift[k]), warm[k]


def _interior_point(
    layout: SdpLayout, bounds: _Bounds, opts: SdpOptions, state: np.ndarray | None = None
) -> tuple[int, str, np.ndarray]:
    """Primal-dual path following: HKM direction with Mehrotra's predictor-corrector.

    Primal: min <C, X> over X >= 0 and W = PT(X) >= 0 with tr X = 1.  Dual:
    max y over S1, S2 >= 0 with S1 = C - y I - PT*(S2).  The cost must be
    real.  The start (``state``, a `_warm_start`, else `_start`) is feasible
    and every step keeps the linear constraints; the rounding left in tr X
    is fed back into the next step.  Traces and inner products carry the
    multiplicities Tr P_b on the X side and Tr Q_c on the W side, so the
    block iterates are the dense ones.

    With Xi(D) = sym(Zi D Si^-1), (Z1, Z2) = (X, W), and H = sym(target S^-1),
    a step has dS1 = -dy I - PT*(dS2) and dX = H1 - X1(dS1), so dW = PT(dX) reads
    (X2 + PT X1 PT*)(dS2) + dy PT(X1(I)) = H2 - PT(H1), bordered by the trace
    row.  Its Schur matrix holds, for each element E of `_symmetric_basis`
    put in block d, the image's W-side entries (i, j), i <= j: P X1 A plus
    X2 block by block, with P and A the coordinate matrices of PT and PT*
    (T may move an entry between blocks).  Every linear map of a step and
    of its certificate -- PT, PT*, traces, mu, the Schur border, the
    right-hand side and the dual step -- is one product with the layout's
    `_Operators`, derived once per layout.  Returns (Newton steps, status,
    iterates, None): the certificate's stop, ``max_iters``, or
    ``infeasible_numerics`` once an iterate leaves its cone or
    `STALL_STEPS` steps bring no tighter gap, and the states from the start
    onward.
    """
    nb, s, _ = layout.shape  # PT maps the nb blocks of X onto as many blocks of W
    ops = layout.operators
    size, flat = ops.size, nb * s * s
    per_block = size // nb
    eye = np.broadcast_to(np.eye(s), (2 * nb, s, s))
    # Schur operator on dS2: K = X2 + PT X1 PT*, bordered by dy and the trace row;
    # its diagonal blocks K[c, :, c, :] as a view
    schur = np.empty((size + 1, size + 1))
    diagonal = np.einsum("cicj->cij", schur[:size, :size].reshape(nb, per_block, nb, per_block))
    state = _start(layout, bounds.costs) if state is None else state
    iterates = [state]

    def newton() -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """One Newton step: the certificate's trace-one X, PT(X) and PT*(S2), or None once the numbers break down."""
        nonlocal state
        z, dual, x = state[: 2 * nb], state[2 * nb :], state[:nb]
        mu = (z * dual).reshape(-1) @ ops.gap
        r_trace = 1.0 - layout.trace(x)
        if not math.isfinite(mu):
            return None
        factors = _scaling(state)
        if factors is None:  # rounding has left an iterate on or outside its cone
            return None
        scaled = factors.swapaxes(-1, -2)
        dual_inv = scaled[2 * nb :] @ factors[2 * nb :]
        # [block, basis element, coordinate]: the images of the basis under each block's Xi
        sides = (z[:, None] @ ops.basis @ dual_inv[:, None]).reshape(2 * nb, per_block, s * s) @ ops.sym_coords
        schur[:size, :size] = (sides[:nb] @ ops.pt_coords).reshape(size, size).T @ ops.adj_coords
        diagonal[:] += sides[nb:].swapaxes(1, 2)
        # border: dy in each equation, and the trace row <PT(u), dS2> over the W side, u = sym(X1 S1^-1)
        border = (x @ dual_inv[:nb]).reshape(flat) @ ops.border
        schur[:size, size] = border[:size]
        schur[size, :size] = border[:size] * ops.inner
        schur[size, size] = border[size]

        def direction(target: np.ndarray) -> np.ndarray:
            """Newton step (dX, dW, dS1, dS2) that moves Z S by target."""
            g = target @ dual_inv
            rhs = g.reshape(2 * flat) @ ops.rhs
            rhs[size] += r_trace
            dual_step = np.linalg.solve(schur, rhs) @ ops.dual
            dx = _sym(g[:nb] - x @ dual_step[:flat].reshape(nb, s, s) @ dual_inv[:nb]).reshape(flat)
            return np.concatenate([dx, dx @ ops.pt, dual_step]).reshape(state.shape)

        def steps(d: np.ndarray) -> np.ndarray:
            """Largest primal and dual steps <= 1 that stay in the cones, per block."""
            lam = np.minimum.reduceat(_lowest(factors @ d @ scaled), ops.halves)
            return (-1.0 / np.minimum(lam, -1.0))[ops.half_of]

        gap = z @ dual
        d = direction(-gap)
        moved = state + steps(d) * d
        sigma_mu = min(1.0, ((moved[: 2 * nb] * moved[2 * nb :]).reshape(-1) @ ops.gap / mu) ** 3) * mu
        d = direction(sigma_mu * eye - gap - d[: 2 * nb] @ d[2 * nb :])
        state = _sym(state + STEP_FRACTION * steps(d) * d)
        unit = state[:nb] / layout.trace(state[:nb])
        pt_unit, adj_s2 = unit.reshape(flat) @ ops.pt, state[3 * nb :].reshape(flat) @ ops.adj
        return unit, pt_unit.reshape(x.shape), adj_s2.reshape(x.shape)

    best_gap, since_best = math.inf, 0
    for it in range(1, opts.max_iters + 1):
        try:
            point = newton()
        except np.linalg.LinAlgError:
            point = None
        if point is None:
            return it, "infeasible_numerics", np.stack(iterates), None
        iterates.append(state)
        stop = bounds.update(*point)
        if stop is not None:
            return it, stop, np.stack(iterates), None
        if bounds.ub - bounds.lb < best_gap:
            best_gap, since_best = bounds.ub - bounds.lb, 0
        else:
            since_best += 1
            if since_best >= STALL_STEPS:
                return it, "infeasible_numerics", np.stack(iterates), None
    return opts.max_iters, "max_iters", np.stack(iterates), None


def _start_basis(layout: SdpLayout, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The simplex's start basis, x-row b and every s-row of `SdpLayout.lp_rows`, and its inverse.

    The basis is [[m_b, pt_map[:, b]^T], [0, -I]], whose inverse is
    [[1/m_b, pt_map[:, b]^T / m_b], [0, -I]].
    """
    nb = len(layout.mult)
    inverse = -np.eye(nb + 1)
    inverse[0, 0], inverse[0, 1:] = 1.0 / layout.mult[b], layout.pt_map[:, b] / layout.mult[b]
    return np.array([b, *range(nb, 2 * nb)]), inverse


def _pivot(rows: np.ndarray, rhs: np.ndarray, active: np.ndarray, inverse: np.ndarray, max_iters: int) -> tuple[int, str]:
    """Bland's loop: max u[0] over rows @ u <= rhs, from the feasible vertex of the basis ``active``.

    ``inverse`` is the inverse of rows[active], and its first row holds the
    multipliers of the active rows.  Each pivot lets the smallest active row
    whose multiplier lies below -`VERTEX_TOL` leave (Bland, Math. Oper. Res.
    2, 103 (1977)) and the first row that the step reaches enter, the
    smallest on a tie, and updates the basis inverse and the slacks by rank
    one; ``active`` and ``inverse`` are updated in place.  Returns (pivots,
    end): ``optimal`` once no multiplier is negative, ``max_iters`` at the
    cap, or ``unbounded`` where the step reaches no row.
    """
    slack, pivots = rhs - rows @ (inverse @ rhs[active]), 0
    while True:
        # the smallest active row whose multiplier is negative, if any (len(rows) stands for none)
        leaving = np.where(inverse[0] < -VERTEX_TOL, active, len(rows)).argmin()
        if inverse[0, leaving] >= -VERTEX_TOL:
            return pivots, "optimal"
        if pivots == max_iters:
            return pivots, "max_iters"
        step = -inverse[:, leaving]
        reach = rows @ step
        ratios = np.where(reach > VERTEX_TOL, np.maximum(slack, 0.0), np.inf) / np.maximum(reach, VERTEX_TOL)
        entering = ratios.argmin()
        if ratios[entering] == np.inf:
            return pivots, "unbounded"
        slack -= ratios[entering] * reach
        # the inverse with row `entering` in place of `leaving` (Sherman-Morrison)
        shift = rows[entering] @ inverse / reach[entering]
        shift[leaving] -= 1.0 / reach[entering]
        inverse -= np.outer(step, shift)
        active[leaving] = entering
        pivots += 1


def _vertex(layout: SdpLayout, active: np.ndarray) -> np.ndarray:
    """The primal vertex of a dual basis at trace one: zero on the rows of (I; pt_map) outside the basis.

    Rows past the 2 nb of `SdpLayout.lp_rows` (those of `onset`) are skipped.
    """
    nb = len(layout.mult)
    _, primal = layout.lp_rows
    vanishing = np.ones(2 * nb + 1, dtype=bool)
    vanishing[active[active < 2 * nb]] = False
    return np.linalg.solve(primal[vanishing], np.eye(nb)[-1])


def _simplex(layout: SdpLayout, bounds: _Bounds, opts: SdpOptions) -> tuple[int, str, np.ndarray, np.ndarray]:
    """Active-set simplex on the dual of a problem in blocks of side 1.

    With scalar costs c the problem is the linear program min sum_b m_b c_b
    x_b over x >= 0, pt_map x >= 0 and mult . x = 1, whose dual is max y
    over u = (y, s) with the x-rows y m_b + (pt_map^T s)_b <= m_b c_b and
    the s-rows -s_c <= 0.  The dual is feasible at s = 0, y = min_b c_b, so
    the loop starts at that vertex (its x-row b and every s-row active) with
    no phase 1, and with that basis's inverse in closed form
    (`_start_basis`), and pivots by Bland's rule (`_pivot`).  The
    multipliers of the active rows are the primal x on the x-rows and
    pt_map x on the s-rows, so once none is negative the primal vertex is
    feasible and optimal.  The certificate then takes that vertex, solved
    afresh from its nb - 1 vanishing rows of (I; pt_map) and the trace row
    (`_vertex`), and S2 = s / pt_mult, once.  Returns (pivots, status,
    vertex, basis): the certificate's stop, else ``max_iters`` at the cap
    or ``infeasible_numerics``, the vertex before the certificate mixes it,
    and the last basis.
    """
    nb, mult = len(layout.mult), layout.mult
    rows, _ = layout.lp_rows
    costs = bounds.costs.ravel()
    rhs = np.concatenate([mult * costs, np.zeros(nb)])
    active, inverse = _start_basis(layout, costs.argmin())
    pivots, end = _pivot(rows, rhs, active, inverse, opts.max_iters)
    u, vertex = inverse @ rhs[active], _vertex(layout, active)
    x = np.maximum(vertex, 0.0)
    x /= mult @ x
    # PT and PT* of scalar blocks are pt_map and its adjoint
    s2 = np.maximum(u[1:], 0.0) / layout.pt_mult
    stop = bounds.update(x[:, None, None], (layout.pt_map @ x)[:, None, None], (layout.adjoint @ s2)[:, None, None])
    return pivots, stop or ("max_iters" if end == "max_iters" else "infeasible_numerics"), vertex[None, :, None, None], active


@dataclass
class Onset:
    """The largest t with sigma >= 0 on the costs C(t) = C(0) - t A, and its two certificates (`onset`).

    ``s2`` (a W-side stack, PSD) has C(t) - PT*(s2) >= 0, so sigma >= 0 at
    t; ``x`` (an X-side stack, PSD, PPT and of trace one) has <C(t'), x> < 0
    for every t' > t, so sigma < 0 there.  ``x`` is None unless the LP ended
    ``optimal``.
    """

    t: float
    pivots: int
    status: str  # optimal | max_iters | unbounded (`_pivot`)
    x: np.ndarray | None
    s2: np.ndarray


def onset(low: SdpSolution, high: SdpProblem) -> Onset:
    """The onset of sigma on the segment of costs from ``low``'s problem (t = 0) to ``high``'s (t = 1), by one LP.

    For scalar blocks sigma(t) >= 0 exactly where some s >= 0 has
    m_b c_b(t) - (pt_map^T s)_b >= 0 for every b, and c(t) = c(0) - t a
    with a = c(0) - c(1) is affine in t, so the largest such t is the linear
    program max t over (t, y, s) >= 0 with the x-rows
    t m_b a_b + y m_b + (pt_map^T s)_b <= m_b c_b(0) (Charnes & Cooper,
    Naval Res. Logist. Q. 9, 181 (1962)).  It starts from ``low``'s basis
    (a simplex solve on the same layout) plus the row t >= 0: that vertex,
    (0, y, s) of ``low``'s dual, is feasible with y = sigma(0), so no phase
    1 is needed, and `_pivot` runs under ``high``'s ``max_iters``.  With
    y > 0 at the start, t can grow while y falls, so t* > 0, and at the
    optimum y = 0: the LP certifies both sides of t*:

    - lower: its s gives S2 = s / pt_mult with C(t*) - PT*(S2) >= 0, so
      sigma(t*) >= 0, and sigma >= 0 on [0, t*] by concavity;
    - upper: its multipliers x >= 0 on the x-rows, with pt_map x >= 0 on
      the s-rows and <m a, x> = 1 from the t column, give the trace-one
      PPT point X = x / <m, x> with <C(t), X> = (t* - t) / <m, x>, below 0
      for every t > t*.  `Onset.x` is that X, solved at trace one from its
      vanishing rows as the simplex solves its own vertex (`_vertex`).

    ValueError for a ``low`` that is no simplex solve on ``high``'s layout
    or whose dual point has y <= 0.
    """
    layout = high.layout
    if low.problem.layout is not layout or low.basis is None:
        raise ValueError("the onset starts from a simplex solve on the same layout")
    nb, mult = len(layout.mult), layout.mult
    dual, _ = layout.lp_rows
    start = low.problem.costs.ravel()
    # the columns (t, y, s) and the rows: x-rows, s-rows, then y >= 0 and t >= 0
    rows = np.zeros((2 * nb + 2, nb + 2))
    rows[: 2 * nb, 1:] = dual
    rows[:nb, 0] = mult * (start - high.costs.ravel())
    rows[2 * nb, 1] = rows[2 * nb + 1, 0] = -1.0
    rhs = np.concatenate([mult * start, np.zeros(nb + 2)])
    active = np.append(low.basis, 2 * nb + 1)
    inverse = np.linalg.inv(rows[active])
    if not (inverse @ rhs[active])[1] > 0.0:
        raise ValueError("the onset needs a start whose dual point has y > 0")
    pivots, status = _pivot(rows, rhs, active, inverse, high.options.max_iters)
    u = inverse @ rhs[active]
    s2 = (np.maximum(u[2:], 0.0) / layout.pt_mult)[:, None, None]
    # at the optimum y's row is active (y = 0) and t's is not (t > 0 as y > 0 at the start)
    x = _vertex(layout, active)[:, None, None] if status == "optimal" else None
    return Onset(float(u[0]), pivots, status, x, s2)
