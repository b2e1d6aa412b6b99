"""Self-contained solver for min <C, X> over {X >= 0, X^T1 >= 0, Tr X = 1}.

The algorithm is consensus operator splitting (ADMM): one block carries the
spectral-simplex constraint {X >= 0, Tr X = 1} with the linear cost handled
proximally, the other carries the partial-transpose cone {Y : Y^T1 >= 0},
and a scaled dual couples X = Y.  Each iteration costs two or three
Hermitian eigendecompositions.

The iterates are stacks of blocks with multiplicities.  A plain problem is
one dense block of side n with multiplicity 1.  A problem that carries a
`BlockForm` -- a cost invariant under a twirl of some of its factors, such
as the activation cost of a Werner or isotropic input -- is solved as
X = sum_b P_b (x) X_b over the invariant projectors P_b, with small blocks
X_b.  That is the dense iteration exactly, not an approximation: every
step (spectral projections, partial transpose, the I/n start) commutes with
the twirl, so the dense iterates stay of that form, and on it the spectrum
of X is the blocks' spectra with multiplicities Tr P_b, the Frobenius norm
is the multiplicity-weighted one, and the partial transpose maps the P_b
algebra linearly onto a second projector algebra Q_c.

On top of the residual test, the solver tracks certified objective bounds:

- lower bound: the Y-projection's clamped negative part gives an exactly
  PSD dual multiplier S2, and lambda_min(C - PT(S2)) <= p* for any S2 >= 0;
- upper bound: mixing the current X toward I/n absorbs its PPT slack and
  yields an exactly feasible point whose value is reported as `objective`.

The solve stops when the bound gap closes to `tol_objective`, when both
consensus residuals fall below `tol_feasibility`, or (if `objective_cut`
is set) as soon as the bounds certify on which side of the cut the optimum
lies -- a sign decision can be certified long before the gap closes on
degenerate instances.  The minimizer is rebuilt densely once per solve and
the reported residuals are measured on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import HERM_INPUT_TOL, DensityMatrix, is_hermitian, partial_transpose_mat, permute_mat

MAX_SIDE = 256

__all__ = ["BlockForm", "SdpOptions", "SdpProblem", "SdpSolution", "project_psd", "project_density", "solve"]


@dataclass(frozen=True)
class SdpOptions:
    max_iters: int = 50_000
    tol_objective: float = 1e-6
    tol_feasibility: float = 1e-8
    penalty: float = 10.0
    objective_cut: float | None = None
    check_every: int = 25
    adapt_every: int = 100


@dataclass(frozen=True, eq=False)
class BlockForm:
    """A twirl-invariant problem as stacked blocks: C = sum_b P_b (x) costs[b].

    The orthogonal projectors P_b sum to the identity on the problem's
    ``outer`` factors; the blocks act on the remaining (inner) factors, in
    their order.  The
    partial transpose maps the P_b onto a second set of orthogonal projectors
    Q_c: (P_b (x) X_b)^T1 = sum_c pt_map[c, b] Q_c (x) X_b^T1, and back with
    ``pt_inverse``.
    """

    costs: np.ndarray
    projectors: np.ndarray
    pt_map: np.ndarray
    pt_inverse: np.ndarray
    outer: tuple[int, ...]

    @property
    def mult(self) -> np.ndarray:
        """Multiplicities Tr P_b: how often each block's spectrum repeats in X."""
        return np.rint(np.trace(self.projectors, axis1=1, axis2=2).real)

    def dense(self, blocks: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
        """The dense operator sum_b P_b (x) blocks[b] in the subsystem order ``dims``."""
        inner = tuple(i for i in range(len(dims)) if i not in self.outer)
        order = self.outer + inner
        mat = sum(np.kron(p, b) for p, b in zip(self.projectors, blocks))
        return permute_mat(mat, tuple(dims[i] for i in order), tuple(np.argsort(order)))


@dataclass
class SdpProblem:
    """Cost matrix, subsystem layout, and the prefix length defining the T1 cut.

    ``blocks``, when set, is the same cost in twirl-reduced form; the solver
    then iterates on it instead of the dense matrix.
    """

    cost: np.ndarray
    dims: tuple[int, ...]
    t1_split: int = 1
    options: SdpOptions = field(default_factory=SdpOptions)
    blocks: BlockForm | None = None

    def __post_init__(self) -> None:
        self.cost = np.asarray(self.cost, dtype=complex)
        self.dims = tuple(int(d) for d in self.dims)
        n = int(np.prod(self.dims))
        if self.cost.shape != (n, n):
            raise ValueError(f"cost shape {self.cost.shape} does not match dims {self.dims}")
        if n > MAX_SIDE:
            raise ValueError(f"problem side {n} exceeds the desk-scale limit {MAX_SIDE}")
        if not is_hermitian(self.cost, HERM_INPUT_TOL):
            raise ValueError(f"cost matrix is not Hermitian within {HERM_INPUT_TOL}")
        if not 1 <= self.t1_split < len(self.dims):
            raise ValueError("t1_split must name a proper prefix of dims")
        if self.blocks is not None:
            projectors = self.blocks.projectors
            if np.max(np.abs(projectors.sum(axis=0) - np.eye(projectors.shape[1]))) > HERM_INPUT_TOL:
                raise ValueError("block projectors do not sum to the identity")
            gap = np.max(np.abs(self.blocks.dense(self.blocks.costs, self.dims) - self.cost))
            if gap > HERM_INPUT_TOL:
                raise ValueError(f"block costs differ from the dense cost by {gap}")


@dataclass
class SdpSolution:
    minimizer: DensityMatrix
    objective: float
    objective_lb: float
    iterations: int
    status: str  # converged | decided | max_iters | infeasible_numerics
    residuals: dict[str, float]


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


def _check_hermitian(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h)
    if not is_hermitian(h, HERM_INPUT_TOL):
        raise ValueError(f"input is not Hermitian within {HERM_INPUT_TOL}")
    return h


def _compose(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """V diag(w) V^dagger over a stack of eigenbases."""
    return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # a lone dense block goes to LAPACK as a plain matrix, so that profiles
    # of dense solves see the matrix side
    if len(h) == 1:
        w, v = np.linalg.eigh(h[0])
        return w[None], v[None]
    return np.linalg.eigh(h)


def project_psd(h: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) PSD matrix: clamp negative eigenvalues at zero."""
    w, v = np.linalg.eigh(_check_hermitian(h))
    return _compose(v, np.maximum(w, 0.0))


def project_density(h: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) trace-one PSD matrix: project eigenvalues onto the simplex."""
    w, v = np.linalg.eigh(_check_hermitian(h))
    return _compose(v, _simplex_projection(w, np.ones_like(w)))


def _dense_form(problem: SdpProblem) -> BlockForm:
    """The plain problem as one block of side n with multiplicity 1."""
    one = np.ones((1, 1))
    return BlockForm(
        costs=problem.cost[None],
        projectors=one[None],
        pt_map=one,
        pt_inverse=one,
        outer=(),
    )


def solve(problem: SdpProblem) -> SdpSolution:
    """Run the splitting iteration; deterministic for fixed problem and options."""
    opts = problem.options
    form = problem.blocks if problem.blocks is not None else _dense_form(problem)
    costs = form.costs
    if np.max(np.abs(costs.imag)) == 0.0:
        costs = costs.real.copy()  # real symmetric fast path
    nb, s, _ = costs.shape
    # T1 inside a block: the inner factors that fall in the cut come first
    inner = [i for i in range(len(problem.dims)) if i not in form.outer]
    m = int(np.prod([problem.dims[i] for i in inner if i < problem.t1_split]))
    k = s // m
    block_mult = form.mult
    n = float(block_mult.sum() * s)  # side of the dense problem
    mult = np.repeat(block_mult, s)  # eigenvalue multiplicities, block by block
    root_mult = np.sqrt(block_mult)[:, None, None]
    eye = np.broadcast_to(np.eye(s, dtype=costs.dtype), costs.shape)

    def pt(mats: np.ndarray, mix: np.ndarray) -> np.ndarray:
        out = mats.reshape(nb, m, k, m, k).swapaxes(1, 3).reshape(nb, s, s)
        # a lone block spans the whole space, which the transpose maps onto itself
        return out if nb == 1 else np.einsum("cb,bij->cij", mix, out)

    def norm(mats: np.ndarray) -> float:
        return float(np.linalg.norm(mats * root_mult))

    def objective_of(mats: np.ndarray) -> float:
        return float(block_mult @ np.sum(costs * mats.conj(), axis=(1, 2)).real)

    def min_eig(mats: np.ndarray) -> float:
        return float(np.min(np.linalg.eigvalsh(mats)[:, 0]))

    rho = float(opts.penalty)
    x = eye / n
    y = x.copy()
    u = np.zeros_like(x)
    r_prim = r_dual = math.inf

    best_ub = math.inf
    best_lb = -math.inf
    best_x = x.copy()
    status = "max_iters"
    iterations = opts.max_iters

    for it in range(1, opts.max_iters + 1):
        w, v = _eigh(y - u - costs / rho)
        x = _compose(v, _simplex_projection(w.ravel(), mult).reshape(nb, s))
        z = pt(x + u, form.pt_map)
        w, v = _eigh(z)
        y_new = pt(_compose(v, np.maximum(w, 0.0)), form.pt_inverse)
        r_dual = rho * norm(y_new - y)
        y = y_new
        u = u + x - y
        r_prim = norm(x - y)

        if not math.isfinite(r_prim) or not math.isfinite(r_dual):
            status = "infeasible_numerics"
            iterations = it
            break

        residual_ok = r_prim <= opts.tol_feasibility and r_dual <= opts.tol_feasibility
        if residual_ok or it % opts.check_every == 0:
            # dual certificate: S2 = rho * (negative part of PT(x+u)) is PSD exactly
            s2 = _compose(v, np.maximum(-w, 0.0)) * rho
            lb = min_eig(costs - pt(s2, form.pt_inverse))
            # feasible primal: mix toward I/n to absorb the PPT slack of x
            slack = max(0.0, -min_eig(pt(x, form.pt_map)))
            gamma = slack * n / (1.0 + slack * n)
            x_feas = (1.0 - gamma) * x + gamma * eye / n
            ub = objective_of(x_feas)
            if ub < best_ub:
                best_ub = ub
                best_x = x_feas
            best_lb = max(best_lb, lb)

            if best_ub - best_lb <= opts.tol_objective or residual_ok:
                status = "converged"
                iterations = it
                break
            if opts.objective_cut is not None and (
                best_lb >= opts.objective_cut or best_ub < opts.objective_cut
            ):
                status = "decided"
                iterations = it
                break

        if it % opts.adapt_every == 0:
            if r_prim > 10.0 * r_dual:
                rho *= 2.0
                u /= 2.0
            elif r_dual > 10.0 * r_prim:
                rho /= 2.0
                u *= 2.0

    minimizer = DensityMatrix(form.dense(best_x, problem.dims), problem.dims)
    pt_min = partial_transpose_mat(minimizer.mat, problem.dims, tuple(range(problem.t1_split)))
    residuals = {
        "psd_slack": max(0.0, -float(np.linalg.eigvalsh(minimizer.mat)[0])),
        "ppt_slack": max(0.0, -float(np.linalg.eigvalsh(pt_min)[0])),
        "trace_err": abs(float(minimizer.mat.trace().real) - 1.0),
        "consensus_gap": r_prim if math.isfinite(r_prim) else float("inf"),
        "certified_gap": best_ub - best_lb,
    }
    return SdpSolution(
        minimizer=minimizer,
        objective=best_ub,
        objective_lb=best_lb,
        iterations=iterations,
        status=status,
        residuals=residuals,
    )
