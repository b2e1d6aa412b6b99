"""Property curves over parameter grids and threshold location by bisection.

Thresholds are found on boolean property indicators (entangled, CHSH
violated, filter-violated, teleportation-useful, activation certified,
CGLMP violated) rather than by root-finding on the values, which are
non-smooth at onset.  SDP-backed points get a coarse pre-scan to bracket
and a 4x iteration budget; points that still do not converge are recorded
as missing instead of aborting a sweep.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import measures
from .activation import bisection_options, sigma_min
from .sdp import SdpOptions
from .states import FamilySpec

PROPERTIES = ("eof", "chsh", "hn", "sa", "tlf", "cglmp")

CLOSED_FORM_TOL = 5e-4
SDP_TOL = 1e-3
PRESCAN_POINTS = 20

__all__ = [
    "PROPERTIES",
    "CLOSED_FORM_TOL",
    "SDP_TOL",
    "PointResult",
    "PropertyCurve",
    "ThresholdReport",
    "check_supported",
    "evaluate_point",
    "sample_curve",
    "find_threshold",
    "prescan_bracket",
    "build_table",
]


@dataclass
class PointResult:
    value: float | None
    indicator: bool | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


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
    family: str
    d: int
    prop: str
    threshold: float
    bracket: tuple[float, float]
    tolerance: float
    evaluations: int
    reference: measures.ReferenceBound | None = None


def default_tolerance(prop: str) -> float:
    return SDP_TOL if prop == "tlf" else CLOSED_FORM_TOL


def _tlf_point(
    spec: FamilySpec, p: float, sdp_options: SdpOptions | None, bisect: bool = False
) -> PointResult:
    base = sdp_options
    if base is None:
        # bisection only consumes the indicator, so the sign-decision stop
        # applies; curve sampling needs accurate sigma values instead
        base = bisection_options() if bisect else SdpOptions(tol_objective=1e-7)
    elif bisect and base.objective_cut is None:
        base = replace(base, objective_cut=bisection_options().objective_cut)
    # one solve with a 4x iteration budget; a point that still runs out is
    # recorded missing
    result = sigma_min(spec.state(p), replace(base, max_iters=4 * base.max_iters))
    if result.witness.status == "max_iters":
        return PointResult(result.sigma, False, "sdp did not converge")
    return PointResult(result.sigma, result.activated)


def evaluate_point(
    spec: FamilySpec,
    prop: str,
    p: float,
    sdp_options: SdpOptions | None = None,
    bisect: bool = False,
) -> PointResult:
    """Evaluate one (family, property) pair at parameter p."""
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}; expected one of {PROPERTIES}")

    if prop == "tlf":
        return _tlf_point(spec, p, sdp_options, bisect)

    if prop == "cglmp":
        value = measures.cglmp_value(spec.state(p))
        return PointResult(value, value > 2.0)

    if prop == "sa" and spec.family == "isotropic":
        fef = measures.fef_isotropic(spec.d, p)
        fot = (spec.d * fef + 1.0) / (spec.d + 1.0)
        return PointResult(max(0.0, fot - 2.0 / (spec.d + 1.0)), fef > 1.0 / spec.d)

    if prop == "hn" and spec.family == "werner" and spec.d > 2:
        # the fixed two-dim filter is the hidden-nonlocality route for qudit
        # Werner states; the criterion is CHSH violation of the filtered state
        filtered = measures.popescu_filter(spec.d, p).filtered
        return PointResult(measures.chsh_value(filtered), measures.chsh_M(filtered) > 1.0)

    if spec.family in ("werner", "isotropic") and spec.d > 2:
        raise ValueError(f"property {prop!r} requires a two-qubit state (d={spec.d})")

    state = spec.state(p)
    if prop == "eof":
        value = measures.eof(state)
        return PointResult(value, value > 0.0)
    if prop == "chsh":
        return PointResult(measures.chsh_value(state), measures.chsh_M(state) > 1.0)
    if prop == "sa":
        use = measures.sa_value(state)
        return PointResult(use.value, use.indicator)
    # hn: a degenerate correlation matrix only happens at product-state
    # corners, where no filtering can create a violation
    try:
        hn = measures.hidden_nonlocality(state)
    except ValueError as exc:
        if "degenerate" in str(exc):
            return PointResult(0.0, False)
        raise
    return PointResult(hn.value, hn.indicator)


def check_supported(spec: FamilySpec, prop: str) -> None:
    """Reject structurally unsupported (family, property) pairings upfront."""
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}; expected one of {PROPERTIES}")
    if prop == "cglmp" and not 2 <= spec.d <= measures.CGLMP_MAX_D:
        raise ValueError(f"cglmp supports 2 <= d <= {measures.CGLMP_MAX_D}, got d={spec.d}")
    if prop in ("tlf", "cglmp"):
        return
    if prop == "sa" and spec.family == "isotropic":
        return
    if prop == "hn" and spec.family == "werner":
        return
    if spec.d > 2:
        raise ValueError(f"property {prop!r} requires a two-qubit state (d={spec.d})")


def sample_curve(
    spec: FamilySpec,
    prop: str,
    grid: list[float] | np.ndarray,
    sdp_options: SdpOptions | None = None,
    workers: int = 1,
) -> PropertyCurve:
    """Pointwise evaluation over an increasing grid; failures are recorded, not fatal."""
    check_supported(spec, prop)
    grid = [float(p) for p in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")

    def run(p: float) -> PointResult:
        try:
            return evaluate_point(spec, prop, p, sdp_options)
        except ValueError as exc:
            return PointResult(None, None, str(exc))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, grid))
    else:
        results = [run(p) for p in grid]

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


def find_threshold(
    spec: FamilySpec,
    prop: str,
    bracket: tuple[float, float],
    tol: float | None = None,
    sdp_options: SdpOptions | None = None,
    reference: measures.ReferenceBound | None = None,
) -> ThresholdReport:
    """Bisect the indicator over a straddling bracket down to width tol."""
    tol = default_tolerance(prop) if tol is None else float(tol)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    ind_lo = evaluate_point(spec, prop, lo, sdp_options, bisect=True).indicator
    ind_hi = evaluate_point(spec, prop, hi, sdp_options, bisect=True).indicator
    if ind_lo or not ind_hi:
        raise ValueError("bracket does not straddle")
    evaluations = 2
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        evaluations += 1
        if evaluate_point(spec, prop, mid, sdp_options, bisect=True).indicator:
            hi = mid
        else:
            lo = mid
    return ThresholdReport(
        family=spec.family,
        d=spec.d,
        prop=prop,
        threshold=0.5 * (lo + hi),
        bracket=(lo, hi),
        tolerance=tol,
        evaluations=evaluations,
        reference=reference,
    )


def prescan_bracket(
    spec: FamilySpec,
    prop: str,
    sdp_options: SdpOptions | None = None,
    points: int = PRESCAN_POINTS,
) -> tuple[float, float] | None:
    """Coarse scan over the family's default range; None when true at every p > 0."""
    lo, hi = spec.p_range()
    lo = max(lo, 0.0)  # sweeps default to [0, 1] even where the family allows p < 0
    grid = np.linspace(lo, hi, points)
    last_false: float | None = None
    for p in grid:
        try:
            ind = evaluate_point(spec, prop, float(p), sdp_options, bisect=True).indicator
        except ValueError:
            continue  # indeterminate point (unsupported corner)
        if ind:
            if last_false is None:
                return None  # on at the first determinate point: onset at the origin
            return (last_false, float(p))
        last_false = float(p)
    raise ValueError(f"indicator for {spec.family}/{prop} never turns on in [{lo}, {hi}]")


_TABLE_PROPS = {
    "wi": ("p_E", "p_SA", "p_TLF", "p_HN", "p_NL"),
    "werner": ("p_E", "p_SA", "p_TLF", "p_HN"),
    "isotropic": ("p_E", "p_SA", "p_TLF", "p_NL"),
    "hirsch1": ("p_E", "p_HN", "p_TLF", "p_SA", "p_NL"),
}

_PROP_OF_COLUMN = {"p_E": "eof", "p_SA": "sa", "p_TLF": "tlf", "p_HN": "hn", "p_NL": "chsh"}


def _computed_entry(spec: FamilySpec, column: str, sdp_options: SdpOptions | None) -> dict:
    prop = _PROP_OF_COLUMN[column]
    if column == "p_NL" and spec.family == "isotropic":
        prop = "cglmp"
    bracket = prescan_bracket(spec, prop, sdp_options)
    if bracket is None:
        # the indicator is on at every sampled p > 0: the threshold is the origin
        return {"value": 0.0, "tolerance": default_tolerance(prop), "provenance": "computed"}
    report = find_threshold(spec, prop, bracket, sdp_options=sdp_options)
    return {
        "value": report.threshold,
        "tolerance": report.tolerance,
        "provenance": "computed",
    }


def build_table(
    family: str, d_max: int = 6, sdp_options: SdpOptions | None = None
) -> dict:
    """Assemble one family's threshold table: computed columns plus stored references."""
    if family not in _TABLE_PROPS:
        raise ValueError(f"no table for family {family!r}")
    d_values = [2] if family in ("wi", "hirsch1") else list(range(2, d_max + 1))
    rows = []
    for d in d_values:
        spec = FamilySpec(family=family, d=d)
        thresholds: dict[str, dict] = {}
        for column in _TABLE_PROPS[family]:
            if family == "werner" and d > 2 and column == "p_SA":
                # qudit Werner states are never teleportation-useful, so the
                # superactivation route gives no threshold: marked X
                thresholds[column] = {"value": None, "marker": "X", "provenance": "paper-constant"}
                continue
            if family in ("werner", "isotropic") and d > 2 and column == "p_E":
                bound = measures.reference_bounds(family, d)["p_E"]
                thresholds[column] = {
                    "value": bound.value,
                    "provenance": bound.provenance,
                    "note": bound.note,
                }
                continue
            thresholds[column] = _computed_entry(spec, column, sdp_options)
        for name, bound in measures.reference_bounds(family, d).items():
            if name in thresholds:
                continue
            thresholds[name] = {
                "value": bound.value,
                "provenance": bound.provenance,
                "note": bound.note,
            }
        rows.append({"d": d, "thresholds": thresholds})
    return {"family": family, "rows": rows}
