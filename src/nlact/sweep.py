"""Property curves over parameter grids and threshold location.

A threshold is certified by a boolean property indicator (entangled, CHSH
violated, filter-violated, teleportation-useful, activation certified,
CGLMP violated): the final bracket is off at its low end and on at its high
end.  One routing rule, ``evaluator``, maps a (family, d, property) triple
to its evaluator or rejects it; every entry point applies it before
evaluating any point, and a table routes each of its columns by it (a
searched entry is one `find_threshold` over the family's range).
`find_threshold` has one route per question.  A closed-form property is
root-found to `EXACT_TOL` on the signed margin that its evaluator returns,
the unclipped quantity its indicator compares with zero (the values are
clipped at the onset, so they cannot serve).  The p_TLF of a twirled family
(wi, Werner, isotropic) is exact: the largest p at which sigma >= 0, one LP
in (p, S2) between the problems at the bracket's ends (`sdp.onset`), always
under `DEFAULT_OPTIONS`, certified to `EXACT_TOL` on both sides.  A Hirsch
p_TLF is bisected to `SDP_TOL` on certified activation signs, at most one
solve per point under the caller's options: a point whose sign the earlier
solves' certificates settle is not solved, and each solve starts from the
previous one.  A search assumes a monotone indicator, and a point whose
solve certifies nothing (indicator None) stops it with ``ValueError``.  A
sampled curve solves every point cold and records such a point as missing,
with the solve's status and bounds, instead of aborting the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import activation, measures
from .activation import bisection_options, build_cost, certified_sign, sigma_min
from .linalg import check_side
from .sdp import SdpOptions, SdpProblem, SdpSolution, onset
from .states import FamilySpec, TwirledState

PROPERTIES = ("eof", "chsh", "hn", "sa", "tlf", "cglmp")

SDP_TOL = 1e-3
PRESCAN_POINTS = 20
# the least tol of a search, in float spacings at its bracket's larger end:
# a point strictly inside a wider bracket keeps shrinking it
TOL_ULPS = 4
# the stated tolerance of a closed-form threshold and of an exact p_TLF entry,
# which their certificates must meet
EXACT_TOL = 1e-12

__all__ = [
    "PROPERTIES",
    "SDP_TOL",
    "EXACT_TOL",
    "PointResult",
    "PropertyCurve",
    "ThresholdReport",
    "evaluator",
    "evaluate_point",
    "sample_curve",
    "find_threshold",
    "prescan_bracket",
    "TABLE_FAMILIES",
    "build_table",
]


@dataclass
class PointResult:
    value: float | None
    indicator: bool | None
    error: str | None = None
    # a closed-form point's signed margin: the indicator is margin > 0
    margin: float | None = None
    # a tlf point's solve; None where the search's earlier solves settle its sign
    witness: SdpSolution | None = None


@dataclass
class PropertyCurve:
    spec: FamilySpec
    prop: str
    grid: list[float]
    values: list[float | None]
    indicators: list[bool | None]
    failures: dict[int, str] = field(default_factory=dict)


@dataclass
class ThresholdReport:
    """A threshold, the bracket that certifies it to ``tolerance``, its cost, and its route (``provenance``)."""

    family: str
    d: int
    prop: str
    threshold: float
    bracket: tuple[float, float]
    tolerance: float
    evaluations: int
    # summed over the search's solves (the onset LP's pivots for a twirled
    # family); 0 where no point solves (closed-form columns)
    newton_steps: int
    # the evaluations that were solved: a Hirsch tlf point whose sign the
    # earlier solves settle is not, and a closed-form point never is
    solves: int = 0
    # "exact (LP vertex)" for a twirled p_TLF (2 end problems, 1 onset LP), else "computed"
    provenance: str = "computed"


# a tlf point already solved: (p, its solve)
Solved = tuple[float, SdpSolution]
# an evaluator maps (spec, p, sdp_options, earlier) to the point's result; the
# closed-form ones ignore the solver options and the earlier points
Evaluator = Callable[[FamilySpec, float, SdpOptions | None, Sequence[Solved]], PointResult]


def _settled(problem: SdpProblem, p: float, earlier: Sequence[Solved]) -> PointResult | None:
    """The point at p, whose problem is ``problem``, where the certificates of ``earlier`` settle its sign; else None.

    The earlier points are of the same family, so their problems differ
    from this one only in the costs, which are affine in p:

    - each earlier minimizer is exactly feasible for every cost, so its
      value at this cost (`SdpProblem.value`, as its own solve computed
      its value; ValueError for another layout) bounds sigma(p) above;
    - sigma is the minimum of those affine costs over one feasible set, so
      it is concave in p, and the chord between the certified lower bounds
      of two earlier points a < p < b bounds sigma(p) below.

    The bounds give the indicator that `sigma_min` gives a certified solve
    (`certified_sign`).  The value is the least upper bound.
    """
    if not earlier:
        return None
    upper = min(problem.value(witness) for _, witness in earlier)
    at, low = np.array([(q, witness.objective_lb) for q, witness in earlier]).T
    a, b = at < p, at > p
    chords = ((at[b] - p) * low[a][:, None] + (p - at[a][:, None]) * low[b]) / (at[b] - at[a][:, None])
    sign = certified_sign(upper, chords.max(initial=-math.inf))
    return None if sign is None else PointResult(upper, sign)


def _tlf_point(spec: FamilySpec, p: float, sdp_options: SdpOptions | None, earlier: Sequence[Solved]) -> PointResult:
    # at most one solve under the caller's options, from the last earlier
    # point's; a point whose solve certifies nothing (out of budget, stalled,
    # or bounds on both sides of the cut) is recorded missing, with no indicator
    problem = activation.build_cost(spec.state(p), sdp_options)
    settled = _settled(problem, p, earlier)
    if settled is not None:
        return settled
    result = sigma_min(problem, start=earlier[-1][1] if earlier else None)
    witness = result.witness
    if result.activated is None:
        bounds = f"sigma in [{witness.objective_lb:.6g}, {witness.objective:.6g}]"
        return PointResult(result.sigma, None, f"sdp certified no sign: {witness.status}, {bounds}", witness=witness)
    return PointResult(result.sigma, result.activated, witness=witness)


def _closed_form(value: float, margin: float) -> PointResult:
    return PointResult(value, margin > 0.0, margin=margin)


def _cglmp_point(spec: FamilySpec, p: float, *_) -> PointResult:
    value = measures.cglmp_value(spec.state(p))
    return _closed_form(value, value - 2.0)


def _isotropic_sa_point(spec: FamilySpec, p: float, *_) -> PointResult:
    fef = measures.fef_isotropic(spec.d, p)
    fot = (spec.d * fef + 1.0) / (spec.d + 1.0)
    return _closed_form(max(0.0, fot - 2.0 / (spec.d + 1.0)), fef - 1.0 / spec.d)


def _filtered_hn_point(spec: FamilySpec, p: float, *_) -> PointResult:
    # the fixed two-dim filter is the hidden-nonlocality route for qudit
    # Werner states; the criterion is CHSH violation of the filtered state.
    # Weighted by the filter's success probability, the margin is affine in p.
    # Both come from one M of the filtered state
    popescu = measures.popescu_filter(spec.d, p)
    excess = measures.chsh_M(popescu.filtered) - 1.0
    return _closed_form(measures.chsh_value_from_excess(excess), popescu.weight * measures.chsh_margin(excess))


def _eof_point(spec: FamilySpec, p: float, *_) -> PointResult:
    # the entropy underflows to 0 for concurrences below ~2e-8: the sign is the concurrence's
    margin = measures.concurrence_margin(spec.state(p))
    return _closed_form(measures.eof_from_concurrence(margin), margin)


def _chsh_point(spec: FamilySpec, p: float, *_) -> PointResult:
    state = spec.state(p)
    excess = measures.chsh_M(state) - 1.0
    return _closed_form(measures.chsh_value(state), measures.chsh_margin(excess))


def _sa_point(spec: FamilySpec, p: float, *_) -> PointResult:
    use = measures.sa_value(spec.state(p))
    return _closed_form(use.value, use.margin)


def _hn_point(spec: FamilySpec, p: float, *_) -> PointResult:
    hn = measures.hidden_nonlocality(spec.state(p))
    return _closed_form(hn.value, hn.margin)


_TWO_QUBIT_POINTS = {"eof": _eof_point, "chsh": _chsh_point, "sa": _sa_point, "hn": _hn_point}


def evaluator(spec: FamilySpec, prop: str) -> Evaluator:
    """The evaluator of (family, d, property); ValueError for a pair that has none."""
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}; expected one of {PROPERTIES}")
    if prop in ("tlf", "cglmp"):
        # the d^2-sided matrix that the point builds: the twirl projectors of
        # a tlf problem's layout, or the d x d state of a cglmp point
        check_side(spec.d * spec.d)
        return _tlf_point if prop == "tlf" else _cglmp_point
    if prop == "sa" and spec.family == "isotropic":
        return _isotropic_sa_point
    if prop == "hn" and spec.family == "werner" and spec.d > 2:
        return _filtered_hn_point
    if spec.d > 2:
        raise ValueError(f"property {prop!r} requires a two-qubit state (d={spec.d})")
    return _TWO_QUBIT_POINTS[prop]


def evaluate_point(
    spec: FamilySpec,
    prop: str,
    p: float,
    sdp_options: SdpOptions | None = None,
    earlier: Sequence[Solved] = (),
) -> PointResult:
    """Evaluate one (family, property) pair at parameter p.

    ``earlier`` holds tlf points of the same family already solved, as (p,
    witness) in solve order; the other properties ignore it.  A tlf point
    whose sign their certificates settle is not solved (`_settled`), and any
    other starts its solve from the last one's witness (see `sdp.solve`).
    """
    return evaluator(spec, prop)(spec, p, sdp_options, earlier)


def sample_curve(
    spec: FamilySpec,
    prop: str,
    grid: list[float] | np.ndarray,
    sdp_options: SdpOptions | None = None,
) -> PropertyCurve:
    """Pointwise evaluation over an increasing finite grid in the family's p range; failures are recorded, not fatal."""
    evaluator(spec, prop)
    grid = [float(p) for p in grid]
    if not all(map(math.isfinite, grid)):
        raise ValueError("grid points must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    lo, hi = spec.p_range()
    # with the rounding slack that `werner_state` allows at the range ends
    if grid and not lo - 1e-12 <= grid[0] <= grid[-1] <= hi + 1e-12:
        raise ValueError(f"grid [{grid[0]}, {grid[-1]}] leaves the {spec.family} range [{lo}, {hi}]")
    results = []
    for p in grid:
        try:
            results.append(evaluate_point(spec, prop, p, sdp_options))
        except ValueError as exc:
            results.append(PointResult(None, None, str(exc)))
    curve = PropertyCurve(
        spec=spec,
        prop=prop,
        grid=grid,
        values=[r.value for r in results],
        indicators=[r.indicator for r in results],
        failures={i: r.error for i, r in enumerate(results) if r.error is not None},
    )
    _check_monotone(curve)
    return curve


def _check_monotone(curve: PropertyCurve) -> None:
    seen_true_at = None
    for p, ind in zip(curve.grid, curve.indicators):
        if ind is None:
            continue
        if ind:
            seen_true_at = p
        elif seen_true_at is not None:
            raise RuntimeError(
                f"indicator for {curve.spec.family}/{curve.prop} is not monotone: "
                f"true at p={seen_true_at} but false at p={p}"
            )


def _certified(result: PointResult, p: float) -> bool:
    """A bisection's indicator at p; a point whose solve certifies nothing (None) stops it."""
    if result.indicator is None:
        raise ValueError(f"no certified indicator at p={p} ({result.error})")
    return result.indicator


def _next_point(lo: float, hi: float, f_lo: float | None, f_hi: float | None, tol: float) -> float:
    """The secant root of the ends' margins, at least tol/2 inside the bracket; else the midpoint.

    The midpoint is taken where a margin is missing or its sign disagrees
    with its end's indicator (off at lo, on at hi).
    """
    if f_lo is None or f_hi is None or not f_lo <= 0.0 < f_hi:
        return 0.5 * (lo + hi)
    root = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
    return min(max(root, lo + 0.5 * tol), hi - 0.5 * tol)


def find_threshold(
    spec: FamilySpec,
    prop: str,
    bracket: tuple[float, float],
    tol: float | None = None,
    sdp_options: SdpOptions | None = None,
) -> ThresholdReport:
    """Locate the indicator's onset in a straddling bracket, down to a bracket of width tol.

    The p_TLF of a twirled family (a `TwirledState` at lo) is exact: sigma
    is concave and piecewise linear in p, and its first root is one LP,
    `sdp.onset` between the problems at lo and hi under `DEFAULT_OPTIONS`,
    whatever ``sdp_options`` are.  The threshold is its vertex line's root,
    and the bracket spans the LP's rounding allowances below and above it,
    each within the tolerance min(tol, `EXACT_TOL`).  A bracket that does
    not straddle the onset raises `sdp.onset`'s ``ValueError``.

    Each step evaluates one point, and its indicator decides which end of
    the bracket moves there, so the final bracket (off at its low end, on at
    its high end) certifies the threshold, and its width is the stated
    tolerance.  The margins only place the points: each step is the Illinois
    variant of regula falsi (Dowell & Jarratt, BIT 11, 168, 1971) on the
    ends' margins, clamped at least tol/2 inside the bracket, so an affine
    margin closes in four evaluations.  The midpoint is taken instead where a
    margin is missing (every Hirsch tlf point) or has the wrong sign, and wherever
    the last two steps did not halve the bracket.  So a poor margin costs
    evaluations, never the certificate.

    A Hirsch tlf point is solved only where the certificates of the search's
    earlier solves leave its sign open (`_settled`), whose bounds certify
    the indicator that a cold solve would.  Each solve starts from the
    previous solve's witness and stops only on its certificate, as a cold
    solve does, so any sign it certifies is the cold solve's.  ``solves``
    counts the solved points and ``newton_steps`` sums their steps.  A
    ``tol`` below `TOL_ULPS` float spacings at the bracket's larger end
    raises ``ValueError``: the points could no longer shrink the bracket.
    """
    evaluator(spec, prop)
    tol = (SDP_TOL if prop == "tlf" else EXACT_TOL) if tol is None else float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    resolution = TOL_ULPS * float(np.spacing(max(abs(lo), abs(hi))))
    if tol < resolution:
        raise ValueError(f"tol {tol:.3g} is below the float resolution {resolution:.3g} of the bracket")
    if prop == "tlf" and isinstance(low := spec.state(lo), TwirledState):
        lp = onset(build_cost(low), build_cost(spec.state(hi)))
        root, below, above = lo + (hi - lo) * lp.root, lp.below * (hi - lo), lp.above * (hi - lo)
        tol = min(tol, EXACT_TOL)
        if max(below, above) > tol:
            raise ValueError(f"the onset LP certifies no root at p={root}: the onset may lie {max(below, above):.3g} away")
        return ThresholdReport(spec.family, spec.d, prop, root, (root - below, root + above), tol,
                               evaluations=2, newton_steps=lp.pivots, solves=1, provenance="exact (LP vertex)")
    # the search only consumes the indicator, so the sign-decision stop applies
    sdp_options = bisection_options(sdp_options)
    solved: list[Solved] = []  # the tlf points solved so far, in order

    def point(p: float) -> PointResult:
        result = evaluate_point(spec, prop, p, sdp_options, solved)
        if result.witness is not None:
            solved.append((p, result.witness))
        return result

    low, high = point(lo), point(hi)
    if _certified(low, lo) or not _certified(high, hi):
        raise ValueError("bracket does not straddle")
    f_lo, f_hi = low.margin, high.margin
    evaluations = 2
    moved = None  # the end that the last step moved
    widths = (math.inf, math.inf)  # the bracket's width before each of the last two steps
    while hi - lo > tol:
        halved = hi - lo <= 0.5 * widths[0]
        p = _next_point(lo, hi, f_lo, f_hi, tol) if halved else 0.5 * (lo + hi)
        widths = (widths[1], hi - lo)
        result = point(p)
        evaluations += 1
        # Illinois: an end that stays put twice running has its margin halved
        if _certified(result, p):
            hi, f_hi = p, result.margin
            if moved == "hi" and f_lo is not None:
                f_lo *= 0.5
            moved = "hi"
        else:
            lo, f_lo = p, result.margin
            if moved == "lo" and f_hi is not None:
                f_hi *= 0.5
            moved = "lo"
    return ThresholdReport(
        family=spec.family,
        d=spec.d,
        prop=prop,
        threshold=0.5 * (lo + hi),
        bracket=(lo, hi),
        tolerance=tol,
        evaluations=evaluations,
        newton_steps=sum(witness.iterations for _, witness in solved),
        solves=len(solved),
    )


def prescan_bracket(
    spec: FamilySpec, prop: str, sdp_options: SdpOptions | None = None
) -> tuple[float, float] | None:
    """The last off and first on point of a coarse grid over the family's default range.

    Bisects the indices of a ``PRESCAN_POINTS`` grid, which assumes a
    monotone indicator, as `find_threshold` does: about log2 of the grid's
    size evaluations instead of one per point up to the onset.  A point
    whose evaluation raises ``ValueError`` is indeterminate and leaves the
    grid; a point whose solve certifies nothing (indicator None) raises
    ``ValueError``, since a bracket that rests on it would be uncertified.
    Returns None when the indicator is on at the first determinate point,
    i.e. at every p > 0; ValueError when it is on at none.
    """
    evaluator(spec, prop)
    lo, hi = spec.p_range()
    lo = max(lo, 0.0)  # sweeps default to [0, 1] even where the family allows p < 0
    grid = [float(p) for p in np.linspace(lo, hi, PRESCAN_POINTS)]
    sdp_options = bisection_options(sdp_options)
    off, on = -1, len(grid)  # last index known off, first known on; past the ends if none
    while on - off > 1:
        mid = (off + on) // 2
        try:
            result = evaluate_point(spec, prop, grid[mid], sdp_options)
        except ValueError:
            del grid[mid]  # indeterminate point: the indices above it shift down
            on -= 1
            continue
        if _certified(result, grid[mid]):
            on = mid
        else:
            off = mid
    if on == len(grid):
        raise ValueError(f"indicator for {spec.family}/{prop} never turns on in [{lo}, {hi}]")
    if off < 0:
        return None  # on at the first determinate point: onset at the origin
    return (grid[off], grid[on])


# column -> property of each table's computed columns, in output order
_TABLE_COLUMNS = {
    "wi": {"p_E": "eof", "p_SA": "sa", "p_TLF": "tlf", "p_HN": "hn", "p_NL": "chsh"},
    "werner": {"p_E": "eof", "p_SA": "sa", "p_TLF": "tlf", "p_HN": "hn"},
    "isotropic": {"p_E": "eof", "p_SA": "sa", "p_TLF": "tlf", "p_NL": "cglmp"},
    "hirsch1": {"p_E": "eof", "p_HN": "hn", "p_TLF": "tlf", "p_SA": "sa", "p_NL": "chsh"},
}
TABLE_FAMILIES = tuple(_TABLE_COLUMNS)


def _computed_entry(spec: FamilySpec, prop: str, sdp_options: SdpOptions | None) -> dict:
    """A searched entry: one `find_threshold` over the family's range, from p = 0 where the range reaches below."""
    lo, hi = spec.p_range()
    report = find_threshold(spec, prop, (max(lo, 0.0), hi), sdp_options=sdp_options)
    return {"value": report.threshold, "tolerance": report.tolerance, "provenance": report.provenance}


def _stored_entry(bound: measures.ReferenceBound) -> dict:
    return {"value": bound.value, "provenance": bound.provenance, "note": bound.note}


def _route_row(family: str, d: int) -> dict[str, str | dict]:
    """A table row's entries: the property of each computed column, or the entry printed as it is.

    A column is computed where `evaluator` accepts its property at d, else it
    prints the row's stored reference (p_E past d = 2), or X for the Werner
    p_SA past d = 2 (qudit Werner states are never teleportation-useful), or
    fails the table.  The row's other stored references follow the columns.
    """
    spec = FamilySpec(family=family, d=d)
    references = measures.reference_bounds(family, d)
    route: dict[str, str | dict] = {}
    for column, prop in _TABLE_COLUMNS[family].items():
        try:
            evaluator(spec, prop)
            route[column] = prop
        except ValueError as exc:
            if column in references:
                route[column] = _stored_entry(references[column])
            elif (family, column) == ("werner", "p_SA"):
                route[column] = {"value": None, "marker": "X", "provenance": "paper-constant"}
            else:
                raise ValueError(f"{family} d={d} {column}: {exc}") from None
    for name, bound in references.items():
        route.setdefault(name, _stored_entry(bound))
    return route


def build_table(
    family: str, d_max: int = 6, sdp_options: SdpOptions | None = None
) -> dict:
    """Assemble one family's threshold table: computed columns plus stored references.

    Every row is routed before any entry is computed, one row at a time, so
    a d_max past the desk-scale limit fails at the first row it reaches.
    """
    if family not in _TABLE_COLUMNS:
        raise ValueError(f"no table for family {family!r}")
    # as `FamilySpec.d`: a bool is an int subclass, and a float would pass for the two-qubit tables
    if isinstance(d_max, bool) or not isinstance(d_max, (int, np.integer)):
        raise ValueError(f"d_max must be an integer, got {d_max!r}")
    if d_max < 2:
        raise ValueError(f"d_max must be at least 2, got {d_max}")
    d_values = range(2, 3 if family in ("wi", "hirsch1") else d_max + 1)
    rows = [{"d": d, "thresholds": _route_row(family, d)} for d in d_values]
    for row in rows:
        spec = FamilySpec(family=family, d=row["d"])
        for column, entry in row["thresholds"].items():
            if isinstance(entry, str):
                try:
                    row["thresholds"][column] = _computed_entry(spec, entry, sdp_options)
                except ValueError as exc:
                    raise ValueError(f"{family} d={spec.d} {column}: {exc}") from None
    return {"family": family, "rows": rows}
