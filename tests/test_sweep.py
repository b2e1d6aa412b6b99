import dataclasses
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from nlact import activation, measures, sweep
from nlact.activation import (
    ACTIVATION_TOL,
    ActivationResult,
    bisection_options,
    build_cost,
    sigma_min,
)
from nlact.linalg import partial_transpose_mat
from nlact.measures import cglmp_value, popescu_threshold
from nlact.sdp import SdpOptions, onset, solve
from nlact.states import FamilySpec, isotropic_state
from nlact.sweep import (
    PointResult,
    build_table,
    evaluate_point,
    find_threshold,
    prescan_bracket,
    sample_curve,
)

WI = FamilySpec("wi")
HIRSCH1 = FamilySpec("hirsch1")


def test_evaluate_point_routing():
    result = evaluate_point(WI, "eof", 0.8)
    assert result.value > 0 and result.indicator
    result = evaluate_point(WI, "chsh", 0.5)
    assert result.value == 0.0 and not result.indicator
    with pytest.raises(ValueError, match="unknown property"):
        evaluate_point(WI, "magic", 0.5)
    with pytest.raises(ValueError, match="two-qubit"):
        evaluate_point(FamilySpec("werner", d=3), "eof", 0.5)


def test_evaluate_point_hn_degenerate_corner():
    # the product corner is an ordinary reading, off with a zero margin
    result = evaluate_point(HIRSCH1, "hn", 0.0)
    assert result == PointResult(0.0, False, margin=0.0)


@pytest.mark.parametrize("d", range(3, 9))
def test_filtered_hn_point_reads_one_correlation_matrix(monkeypatch, d):
    # the value and margin of a qudit Werner p_HN point come from one M of the
    # filtered state, bit for bit those of chsh_value and chsh_margin
    spec = FamilySpec("werner", d)
    correlations = []
    correlation_matrix = measures.correlation_matrix
    monkeypatch.setattr(measures, "correlation_matrix", lambda rho: correlations.append(rho) or correlation_matrix(rho))
    for p in np.linspace(*spec.p_range(), 41):
        correlations.clear()
        result = evaluate_point(spec, "hn", float(p))
        assert len(correlations) == 1, p
        popescu = measures.popescu_filter(d, float(p))
        margin = popescu.weight * measures.chsh_margin(measures.chsh_M(popescu.filtered) - 1.0)
        assert (result.value, result.margin) == (measures.chsh_value(popescu.filtered), margin), p


def test_evaluate_point_hn_passes_other_errors_on(monkeypatch):
    # hn catches nothing: an error from the measure reaches the caller, whatever it says
    for message in ("non-Lorentzian spectrum", "degenerate in another way"):

        def fail(rho, message=message):
            raise ValueError(message)

        monkeypatch.setattr(sweep.measures, "hidden_nonlocality", fail)
        with pytest.raises(ValueError, match=message):
            evaluate_point(HIRSCH1, "hn", 0.3)


def test_eof_indicator_sees_weak_entanglement():
    # the entropy underflows to 0 at this concurrence; the indicator reads the concurrence
    result = evaluate_point(WI, "eof", 1 / 3 + 1e-8)
    assert result.indicator is True
    assert result.value == 0.0
    assert abs(result.margin - 1.5e-8) <= 1e-15


def test_sample_curve_wi_eof():
    curve = sample_curve(WI, "eof", np.linspace(0, 1, 11))
    values = np.array(curve.values)
    assert np.all(values[:4] == 0.0)  # p <= 0.3 is separable
    assert np.all(np.diff(values[4:]) > 0)


def test_sample_curve_wi_chsh():
    curve = sample_curve(WI, "chsh", np.linspace(0, 1, 11))
    for p, value in zip(curve.grid, curve.values):
        assert (value > 0) == (p > 1 / np.sqrt(2) + 1e-12)


def test_sample_curve_hirsch_hn_all_on():
    curve = sample_curve(HIRSCH1, "hn", np.linspace(0, 1, 11))
    assert curve.indicators[0] is False  # product corner
    assert all(curve.indicators[1:])


def test_hirsch2_hn_region_edges():
    # the q=1 edge of the two-parameter scan is the one-parameter family
    # (filter criterion fires for every p > 0); the q=0 edge is the WI
    # family, where it only fires past the CHSH threshold
    top = sample_curve(FamilySpec("hirsch2", q=1.0), "hn", np.linspace(0, 1, 9))
    assert all(top.indicators[1:])
    bottom = sample_curve(FamilySpec("hirsch2", q=0.0), "hn", np.linspace(0, 1, 9))
    for p, ind in zip(bottom.grid, bottom.indicators):
        assert ind == (2 * p * p > 1)


def test_sample_curve_grid_must_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        sample_curve(WI, "eof", [0.5, 0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sample_curve_rejects_a_non_finite_point_before_any_evaluation(monkeypatch, bad):
    # a NaN compares false, so it would pass the "strictly increasing" check
    # and come back as a recorded failure; it is refused up front instead
    def no_point(*args, **kwargs):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(sweep, "evaluate_point", no_point)
    for grid in ([0.0, bad, 1.0], [bad], np.array([0.0, bad])):
        with pytest.raises(ValueError, match="grid points must be finite"):
            sample_curve(WI, "chsh", grid)


def test_find_threshold_chsh():
    report = find_threshold(WI, "chsh", (0.6, 0.8))
    assert abs(report.threshold - 1 / np.sqrt(2)) < 5e-4
    assert report.bracket[0] < report.threshold < report.bracket[1]
    assert report.bracket[1] - report.bracket[0] <= report.tolerance


def test_find_threshold_consistency_under_refinement():
    coarse = find_threshold(WI, "sa", (0.2, 0.5), tol=5e-4)
    fine = find_threshold(WI, "sa", (0.2, 0.5), tol=2.5e-4)
    assert abs(coarse.threshold - fine.threshold) <= 5e-4


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf])
def test_find_threshold_rejects_bad_tol(monkeypatch, tol):
    # rejected before any point is evaluated; tol=0 would bisect forever
    monkeypatch.setattr(sweep, "evaluate_point", lambda *args, **kwargs: pytest.fail("point evaluated"))
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        find_threshold(WI, "chsh", (0.6, 0.8), tol=tol)


def test_find_threshold_requires_straddle():
    with pytest.raises(ValueError, match="does not straddle"):
        find_threshold(WI, "chsh", (0.8, 0.9))
    with pytest.raises(ValueError, match="does not straddle"):
        find_threshold(WI, "chsh", (0.1, 0.3))


@pytest.mark.parametrize(
    "spec, prop, message",
    [
        (FamilySpec("werner", d=3), "eof", "requires a two-qubit state"),
        (FamilySpec("isotropic", d=3), "hn", "requires a two-qubit state"),
        (FamilySpec("isotropic", d=17), "cglmp", "problem side 289 exceeds the desk-scale limit 256"),
    ],
    ids=["werner3-eof", "isotropic3-hn", "isotropic17-cglmp"],
)
def test_unsupported_pair_raises_routing_error(spec, prop, message):
    # every entry point rejects the pair up front with the same message,
    # instead of recording it at each point or prescanning past it
    calls = [
        lambda: evaluate_point(spec, prop, 0.5),
        lambda: sample_curve(spec, prop, [0.25, 0.5]),
        lambda: prescan_bracket(spec, prop),
        lambda: find_threshold(spec, prop, (0.25, 0.75)),
    ]
    messages = []
    for call in calls:
        with pytest.raises(ValueError, match=message) as info:
            call()
        messages.append(str(info.value))
    assert len(set(messages)) == 1


@pytest.mark.parametrize("status", ["infeasible_numerics", "max_iters"])
def test_uncertified_activation_point_is_missing(monkeypatch, status):
    # a solve that certifies nothing (sigma_min's activated None) is a missing
    # point, not a certified "not activated"
    stalled = ActivationResult(sigma=math.inf, witness=SimpleNamespace(status=status, objective_lb=-math.inf, objective=math.inf), activated=None)
    monkeypatch.setattr(sweep, "sigma_min", lambda problem, options=None, start=None: stalled)
    result = evaluate_point(WI, "tlf", 0.7)
    assert result.error is not None and result.indicator is None
    assert sorted(sample_curve(WI, "tlf", [0.6, 0.7]).failures) == [0, 1]


@pytest.mark.parametrize("bisect", [False, True])
def test_tlf_point_passes_budget_through(monkeypatch, bisect):
    # --sdp-max-iters N means N for every solve, bisection points included
    # the point builds its problem under those options and hands it to sigma_min
    seen = []
    done = ActivationResult(sigma=0.0, witness=SimpleNamespace(status="converged"), activated=False)

    def fake(problem, options=None, start=None):
        assert options is None
        seen.append(problem.options)
        return done

    monkeypatch.setattr(sweep, "sigma_min", fake)
    budget = SdpOptions(max_iters=123)
    evaluate_point(WI, "tlf", 0.7, bisection_options(budget) if bisect else budget)
    assert [options.max_iters for options in seen] == [123]
    assert seen[0].objective_cut == (-ACTIVATION_TOL if bisect else None)


def test_prescan_bracket_closed_form():
    bracket = prescan_bracket(WI, "chsh")
    assert bracket[0] < 1 / np.sqrt(2) < bracket[1]


def test_prescan_never_on_raises():
    # the default CGLMP settings are tuned to |psi_d>, against which the
    # two-qubit Werner family scores ~0 for every p
    with pytest.raises(ValueError, match="never turns on"):
        prescan_bracket(FamilySpec("werner", d=2), "cglmp")


def _linear_scan(grid, indicator):
    """The reference prescan: walk the grid up to the first point that is on."""
    last_off = None
    for p in grid:
        try:
            on = indicator(p)
        except ValueError:
            continue
        if on:
            return None if last_off is None else (last_off, p)
        last_off = p
    return "never turns on"


@pytest.mark.parametrize("raising", ["none", "first", "onset", "below", "all three"])
@pytest.mark.parametrize("uncertified_below", [False, True])
def test_prescan_bisection_equals_linear_scan(monkeypatch, raising, uncertified_below):
    # a step indicator with its onset at every grid index, or never on; some
    # points raise (indeterminate), and the point below the onset may be
    # uncertified (indicator None), which stops the prescan wherever it meets it
    grid = [float(p) for p in np.linspace(0.0, 1.0, sweep.PRESCAN_POINTS)]
    met_uncertified = 0
    for first_on in range(len(grid) + 1):
        raises = {
            "none": set(),
            "first": {0},
            "onset": {first_on},
            "below": {first_on - 1},
            "all three": {0, first_on - 1, first_on},
        }[raising]

        def indicator(p):
            i = grid.index(p)
            if i in raises:
                raise ValueError("indeterminate point")
            if uncertified_below and i == first_on - 1:
                return None
            return i >= first_on

        seen = []

        def fake_point(spec, prop, p, sdp_options=None):
            assert sdp_options == bisection_options()
            seen.append(indicator(p))
            return sweep.PointResult(None, seen[-1])

        monkeypatch.setattr(sweep, "evaluate_point", fake_point)
        try:
            got = prescan_bracket(WI, "chsh")
        except ValueError as exc:
            got = str(exc)
        if None in seen:
            # the prescan stops at the first uncertified point it evaluates
            met_uncertified += 1
            assert seen[-1] is None and f"no certified indicator at p={grid[first_on - 1]}" in got, first_on
            continue
        # uncertified points the prescan never met leave it as the linear scan over the others
        expected = _linear_scan(grid, lambda p: bool(indicator(p)))
        if expected == "never turns on":
            assert "never turns on" in got, first_on
        else:
            assert got == expected, first_on
        if raising == "none":
            assert len(seen) <= 5, first_on  # ceil(log2(PRESCAN_POINTS + 1))
    # the uncertified point is met wherever it lies on the bisection's path
    assert (met_uncertified > 0) == (uncertified_below and raising in ("none", "first", "onset"))


# per table: evaluate_point calls (the closed-form columns, each a root search
# on its margin over the family's range), onset LPs and their pivots: every
# p_TLF entry is exact, one onset LP between the ends of the range, and
# evaluates no tlf point
_TABLE_EVALUATIONS = {("wi", 6): (54, 1, 7), ("werner", 6): (94, 5, 35), ("isotropic", 6): (151, 5, 35)}


@pytest.mark.parametrize("family,d_max", list(_TABLE_EVALUATIONS), ids=str)
def test_build_table_evaluation_budget(monkeypatch, family, d_max):
    evaluations, lps = [], []

    def counted(*args, **kwargs):
        evaluations.append(args)
        return evaluate_point(*args, **kwargs)

    monkeypatch.setattr(sweep, "evaluate_point", counted)
    monkeypatch.setattr(sweep, "onset", lambda low, high: lps.append(onset(low, high)) or lps[-1])
    build_table(family, d_max=d_max)
    max_evaluations, max_lps, max_pivots = _TABLE_EVALUATIONS[family, d_max]
    assert len(evaluations) <= max_evaluations
    assert len(lps) <= max_lps
    assert sum(lp.pivots for lp in lps) <= max_pivots
    assert not [args for args in evaluations if args[1] == "tlf"]  # every p_TLF entry is exact


_SQRT2 = math.sqrt(2.0)


def _closed_form_tlf(family, d):
    """p_TLF of the Werner (wi is Werner at d = 2) and isotropic families in closed form."""
    if family == "isotropic":
        return (3 - _SQRT2) / ((_SQRT2 - 1) * d + 3 - _SQRT2)
    return ((2 - _SQRT2) * d + _SQRT2 - 1) / (d - 1 + _SQRT2)


_TWIRLED_ROWS = [("wi", 2)] + [(family, d) for family in ("werner", "isotropic") for d in range(2, 9)]


@pytest.mark.parametrize("family,d", _TWIRLED_ROWS, ids=str)
def test_exact_tlf_entry_matches_closed_form(monkeypatch, family, d):
    solves, lps = [], []
    monkeypatch.setattr(activation, "solve", lambda problem: solves.append(problem) or solve(problem))
    monkeypatch.setattr(sweep, "onset", lambda low, high: lps.append(high) or onset(low, high))
    entry = sweep._computed_entry(FamilySpec(family, d), "tlf", None)
    assert entry["provenance"] == "exact (LP vertex)"
    assert entry["tolerance"] <= 1e-12
    closed = _closed_form_tlf(family, d)
    assert abs(entry["value"] - closed) <= 4.4e-16
    assert (len(lps), solves) == (1, [])  # one onset LP, and no solve
    if d == 2:
        assert abs(closed - (4 * _SQRT2 - 5)) <= 1e-15


@pytest.mark.parametrize("family,d", [("wi", 2)] + [(f, d) for f in ("werner", "isotropic") for d in range(2, 7)], ids=str)
def test_exact_tlf_entry_inside_bisected_bracket(family, d):
    # the prescan-plus-bisection route, which the table took before, as the reference
    spec = FamilySpec(family, d)
    report = find_threshold(spec, "tlf", prescan_bracket(spec, "tlf"))
    exact = sweep._computed_entry(spec, "tlf", None)["value"]
    assert report.bracket[0] - report.tolerance <= exact <= report.bracket[1] + report.tolerance


@pytest.mark.parametrize("family,d", _TWIRLED_ROWS, ids=str)
def test_exact_tlf_entry_is_the_sign_change(family, d):
    # tight solves on both sides of the exact value certify the sign of sigma there
    spec = FamilySpec(family, d)
    exact = sweep._computed_entry(spec, "tlf", None)["value"]
    options = SdpOptions(tol_objective=1e-10)
    above = sigma_min(spec.state(exact + 1e-5), options).witness
    below = sigma_min(spec.state(exact - 1e-5), options).witness
    assert above.status == below.status == "converged"
    assert above.objective < 0.0 < below.objective_lb


@pytest.mark.parametrize("family,d", [("wi", 2)] + [(f, d) for f in ("werner", "isotropic") for d in (2, 3)], ids=str)
def test_exact_tlf_entry_certificates_hold_densely(monkeypatch, family, d):
    # both certificates of the onset LP, re-checked on dense matrices with no
    # solver: its X is a trace-one PSD and PPT point whose cost falls below 0
    # just above the entry, so sigma < 0 there; its S2 is PSD on the
    # partial-transpose side W, and C(p*) - PT(W) >= 0 makes every PPT X cost
    # at least 0 at the entry, since <C, X> = <C - PT(W), X> + <W, PT(X)>.
    # Dense eigensolvers round to ~1e-16, hence the allowance
    lps = []
    monkeypatch.setattr(sweep, "onset", lambda low, high: lps.append(onset(low, high)) or lps[-1])
    spec = FamilySpec(family, d)
    p = sweep._computed_entry(spec, "tlf", None)["value"]
    (lp,) = lps
    assert abs(lp.t - p) <= 1e-15  # the LP's optimum is the entry: the range is [0, 1]
    layout = build_cost(spec.state(p)).layout

    def pt(mat):
        return partial_transpose_mat(mat, layout.dims, (0, 1))

    def lowest(mat):
        return np.linalg.eigvalsh(mat)[0]

    x = layout.dense(lp.x)
    assert abs(np.trace(x) - 1.0) <= 1e-15
    assert min(lowest(x), lowest(pt(x))) >= -1e-15
    assert np.vdot(x, activation._dense_cost(spec.state(p + 1e-9))).real < 0.0
    w = pt(layout.dense(layout.pt_adj(lp.s2)))
    assert lowest(w) >= -1e-15
    assert lowest(activation._dense_cost(spec.state(p)) - pt(w)) >= -1e-15


def _cap_pivots(monkeypatch, end):
    """Stop the onset's run at the low end of the range (``low``) or its LP (``root``) after one pivot."""
    one = SdpOptions(max_iters=1)
    if end == "low":
        monkeypatch.setattr(sweep, "onset", lambda low, high: onset(dataclasses.replace(low, options=one), high))
    else:
        monkeypatch.setattr(sweep, "onset", lambda low, high: onset(low, dataclasses.replace(high, options=one)))


@pytest.mark.parametrize(
    "family,d,end,message",
    [
        ("werner", 3, "root", "ended max_iters"),
        ("isotropic", 6, "root", "ended max_iters"),
        ("isotropic", 6, "low", "no sigma > 0"),
    ],
    ids=["werner-3-root", "isotropic-6-root", "isotropic-6-low"],
)
def test_exact_tlf_entry_missing_an_optimal_basis_raises(monkeypatch, family, d, end, message):
    # a run stopped one pivot in lacks its optimal basis: the onset LP (which
    # places the root) then has no primal vertex to certify sigma < 0 above
    # it, and at p = 0 the first run's dual bound certifies no sigma > 0.  The
    # entry is refused, never printed
    _cap_pivots(monkeypatch, end)
    with pytest.raises(ValueError, match=message):
        sweep._computed_entry(FamilySpec(family, d), "tlf", None)


def test_sweep_point_whose_solve_lacks_the_optimal_basis_is_missing():
    # a simplex stopped before its optimal basis certifies no closed gap: the
    # solve ends max_iters, and the sweep records the point as missing, with no
    # indicator, under that status.  Two pivots reach the basis at p = 0.3, not at 0.8
    spec, options = FamilySpec("werner", 3), SdpOptions(max_iters=2)
    witness = sigma_min(spec.state(0.8), options).witness
    assert (witness.status, witness.iterations) == ("max_iters", 2)
    assert witness.objective - witness.objective_lb > options.tol_objective
    curve = sample_curve(spec, "tlf", [0.3, 0.8], options)
    bounds = f"sigma in [{witness.objective_lb:.6g}, {witness.objective:.6g}]"
    assert curve.failures == {1: f"sdp certified no sign: max_iters, {bounds}"}
    assert curve.indicators == [False, None]


def test_missing_point_whose_bounds_straddle_the_cut_names_them():
    # a converged solve under a loose gap certifies no sign next to the onset:
    # the point is missing, with the bounds that lie on both sides of the cut
    options = SdpOptions(tol_objective=1e-3)
    witness = sigma_min(HIRSCH1.state(0.1757), options).witness
    assert witness.status == "converged"
    assert witness.objective_lb < -ACTIVATION_TOL <= witness.objective
    curve = sample_curve(HIRSCH1, "tlf", [0.1757], options)
    assert curve.indicators == [None]
    bounds = f"sigma in [{witness.objective_lb:.6g}, {witness.objective:.6g}]"
    assert curve.failures == {0: f"sdp certified no sign: converged, {bounds}"}


def test_hirsch1_tlf_entry_is_one_bisection_of_the_range(monkeypatch):
    # no prescan: find_threshold bisects [0, 1] to SDP_TOL, 2 ends and 10 midpoints,
    # each one evaluation, solved or settled by the earlier solves
    points = []

    def counted(spec, prop, p, sdp_options=None, earlier=()):
        points.append(p)
        return evaluate_point(spec, prop, p, sdp_options, earlier)

    monkeypatch.setattr(sweep, "prescan_bracket", lambda *args, **kwargs: pytest.fail("prescan called"))
    monkeypatch.setattr(sweep, "evaluate_point", counted)
    entry = sweep._computed_entry(HIRSCH1, "tlf", None)
    assert points[:2] == [0.0, 1.0] and len(points) == 12
    assert entry == {"value": 0.17529296875, "tolerance": sweep.SDP_TOL, "provenance": "computed"}


# (family, q, bracket) -> (threshold, bracket, evaluations) of the tlf searches
# with every solve started cold, at I/n
_TLF_SEARCHES = {
    ("hirsch1", 1.0, (0.12, 0.22)): (0.17585937499999998, (0.17546875, 0.17625), 9),
    ("hirsch1", 1.0, (0.0, 1.0)): (0.17529296875, (0.1748046875, 0.17578125), 12),
    ("hirsch2", 0.0, (0.0, 1.0)): (0.65673828125, (0.65625, 0.6572265625), 12),
    ("hirsch2", 0.6, (0.0, 1.0)): (0.61376953125, (0.61328125, 0.6142578125), 12),
    ("hirsch2", 0.9, (0.0, 1.0)): (0.49560546875, (0.4951171875, 0.49609375), 12),
}


@pytest.mark.parametrize("family,q,bracket", list(_TLF_SEARCHES), ids=str)
def test_warm_started_tlf_search_reports_the_cold_search(family, q, bracket):
    report = find_threshold(FamilySpec(family, q=q), "tlf", bracket)
    assert (report.threshold, report.bracket, report.evaluations) == _TLF_SEARCHES[family, q, bracket]


# Newton steps and solves of the hirsch1 searches, where each solve starts from the
# previous one's witness and a point that the earlier solves settle is not solved:
# 33 steps in 7 solves and 43 in 9, of 9 and 12 evaluations (every point solved,
# 38 and 50; every point solved cold, 95 and 107).  Tighten these budgets, never
# loosen them.  The ids keep the first budgets, 60 and 75, so the cases keep their
# names as they tighten
@pytest.mark.parametrize(
    "bracket,budget,solve_budget",
    [
        pytest.param((0.12, 0.22), 33, 7, id="(0.12, 0.22)-60"),
        pytest.param((0.0, 1.0), 43, 9, id="(0.0, 1.0)-75"),
    ],
)
def test_hirsch1_tlf_search_newton_step_budget(monkeypatch, bracket, budget, solve_budget):
    solves = []

    def counted_solve(problem, start=None):
        solves.append(solve(problem, start))
        return solves[-1]

    monkeypatch.setattr(activation, "solve", counted_solve)
    report = find_threshold(HIRSCH1, "tlf", bracket)
    assert len(solves) == report.solves <= solve_budget
    assert report.newton_steps == sum(solution.iterations for solution in solves) <= budget


def test_search_without_a_solve_takes_no_newton_step():
    # closed-form points make no solve
    assert find_threshold(WI, "chsh", (0.0, 1.0)).newton_steps == 0


def test_twirled_search_sums_the_simplex_pivots(monkeypatch):
    solves = []

    def counted_solve(problem, start=None):
        solves.append(solve(problem, start))
        return solves[-1]

    monkeypatch.setattr(activation, "solve", counted_solve)
    report = find_threshold(WI, "tlf", (0.5, 0.9))
    # 12 pivots in 4 solves of 11 evaluations (33 pivots with every point solved)
    assert len(solves) == report.solves <= 4 and report.evaluations == 11
    assert 0 < report.newton_steps == sum(solution.iterations for solution in solves) <= 12


def _settled_points(spec, bracket):
    """The (p, indicator) of every point of a tlf search that its earlier solves settle."""
    settled = []

    def recorded(*args):
        result = evaluate_point(*args)
        if result.witness is None:
            settled.append((args[2], result.indicator))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "evaluate_point", recorded)
        report = find_threshold(spec, "tlf", bracket)
    assert len(settled) == report.evaluations - report.solves
    return settled


_SETTLED_SEARCHES = [(FamilySpec(family, q=q), bracket) for family, q, bracket in _TLF_SEARCHES] + [(WI, (0.5, 0.9))]


@pytest.mark.parametrize("spec,bracket", _SETTLED_SEARCHES, ids=str)
def test_settled_points_have_the_cold_solves_indicator(spec, bracket):
    # a point that a pinned search decides from its earlier solves' certificates,
    # with no solve of its own, is decided alike by a cold solve
    settled = _settled_points(spec, bracket)
    assert settled
    for p, indicator in settled:
        assert sigma_min(spec.state(p), bisection_options()).activated is indicator, p


@pytest.mark.parametrize(
    "spec",
    [WI, FamilySpec("werner", 3), FamilySpec("isotropic", 3), HIRSCH1]
    + [FamilySpec("hirsch2", q=q) for q in (0.0, 0.6, 0.9)],
    ids=str,
)
def test_activation_costs_are_affine_in_p(spec):
    # the premise of the chord bound: sigma is the minimum of costs affine in p
    # over one feasible set, so it is concave in p
    for a, b in [(0.0, 1.0), (0.12, 0.22), (0.3, 0.9), (0.17, 0.1746875)]:
        ends = [build_cost(spec.state(p)).costs for p in (a, b)]
        middle = build_cost(spec.state(0.5 * (a + b))).costs
        assert np.max(np.abs(middle - 0.5 * (ends[0] + ends[1]))) <= 1e-15, (a, b)


def test_earlier_points_must_share_the_layout():
    # the certificates of another layout's solves bound nothing here
    other = sigma_min(FamilySpec("werner", 3).state(0.5)).witness
    with pytest.raises(ValueError, match="another layout"):
        evaluate_point(FamilySpec("isotropic", 3), "tlf", 0.5, None, [(0.5, other)])


@pytest.mark.parametrize("tol", [1e-18, 1e-16])
def test_find_threshold_rejects_a_tol_below_the_float_resolution(monkeypatch, tol):
    # once the ends are adjacent doubles, no point lies between them and the
    # bracket stops shrinking: such a tol is rejected before any evaluation
    monkeypatch.setattr(sweep, "evaluate_point", lambda *args, **kwargs: pytest.fail("point evaluated"))
    with pytest.raises(ValueError, match="below the float resolution"):
        find_threshold(WI, "chsh", (0.5, 0.9), tol=tol)


def test_find_threshold_closes_at_the_least_tol():
    tol = sweep.TOL_ULPS * float(np.spacing(0.9))
    report = find_threshold(WI, "chsh", (0.5, 0.9), tol=tol)
    lo, hi = report.bracket
    assert 0.0 < hi - lo <= tol
    assert abs(report.threshold - 1 / _SQRT2) <= 1e-14


def test_exact_tlf_entry_ignores_a_loose_tolerance():
    # the entry solves under DEFAULT_OPTIONS, so neither a loose gap nor a one-step budget moves it
    spec = FamilySpec("werner", 3)
    loose = sweep._computed_entry(spec, "tlf", SdpOptions(max_iters=1, tol_objective=0.5))
    assert loose == sweep._computed_entry(spec, "tlf", None)


def test_build_table_isotropic_small():
    table = build_table("isotropic", d_max=3)
    assert table["family"] == "isotropic"
    assert [row["d"] for row in table["rows"]] == [2, 3]
    row3 = {t: e for t, e in table["rows"][1]["thresholds"].items()}
    assert abs(row3["p_SA"]["value"] - 0.25) < 5e-4
    assert abs(row3["p_NL"]["value"] - 0.6961) < 2e-3
    assert abs(row3["p_TLF"]["value"] - 0.5606) < 5e-3
    assert row3["p_E"]["provenance"] == "paper-constant"
    assert abs(row3["p_L"]["value"] - 5 / 12) < 1e-12
    # property-region hierarchy within the row
    assert row3["p_E"]["value"] <= row3["p_SA"]["value"] + 5e-4
    assert row3["p_TLF"]["value"] <= row3["p_NL"]["value"]


def test_build_table_werner_marks_sa():
    table = build_table("werner", d_max=3)
    row3 = table["rows"][1]["thresholds"]
    assert row3["p_SA"]["value"] is None
    assert row3["p_SA"]["marker"] == "X"
    assert abs(row3["p_HN"]["value"] - 0.7630) < 1e-3
    assert abs(row3["p_L"]["value"] - 2 / 3) < 1e-12


def test_build_table_unknown_family():
    with pytest.raises(ValueError, match="no table"):
        build_table("ghz")


@pytest.mark.parametrize("family", ["wi", "werner", "isotropic", "hirsch1"])
@pytest.mark.parametrize("d_max", [2.5, 3.0, np.float64(3.0), True, "3"], ids=repr)
def test_build_table_rejects_a_d_max_that_is_no_integer(monkeypatch, family, d_max):
    # as FamilySpec does for d: before any row is routed or computed; a numpy integer is an integer
    entries = []
    monkeypatch.setattr(sweep, "_computed_entry", lambda *args: entries.append(args) or {})
    with pytest.raises(ValueError, match="d_max must be an integer"):
        build_table(family, d_max)
    assert not entries
    rows = build_table(family, np.int64(3))["rows"]
    assert [row["d"] for row in rows] == ([2] if family in ("wi", "hirsch1") else [2, 3])


def test_too_large_activation_problem_rejected_up_front(monkeypatch):
    # werner d = 9 needs side 4 * 81 = 324 > MAX_SIDE: every entry point says so before solving
    def no_solve(*args, **kwargs):
        raise AssertionError("a point was solved")

    monkeypatch.setattr(sweep, "sigma_min", no_solve)
    spec = FamilySpec("werner", d=9)
    for call in (
        lambda: prescan_bracket(spec, "tlf"),
        lambda: find_threshold(spec, "tlf", (0.6, 0.7)),
        lambda: sample_curve(spec, "tlf", [0.6, 0.7]),
        lambda: build_table("werner", d_max=9),
    ):
        with pytest.raises(ValueError, match="problem side 324 exceeds the desk-scale limit 256"):
            call()
    with pytest.raises(ValueError, match="at least 2"):
        build_table("isotropic", d_max=1)


def test_table_rows_are_routed_one_at_a_time():
    # a d_max far past the limit fails at its first row past it, d = 9,
    # without building the list of rows up to d_max
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="werner d=9 p_TLF: problem side 324"):
            build_table("werner", 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# every route at d = 32 or 10^6 either is rejected by `evaluator` (the
# two-qubit properties; cglmp, whose state has side d^2 > 256; tlf, whose
# problem has side 4 d^2 > 256) or builds nothing d^2-sided
_EVALUATED_ROUTES = {("werner", "hn"), ("isotropic", "sa")}


@pytest.mark.parametrize("d", [32, 10**6])
@pytest.mark.parametrize("family,prop", itertools.product(("werner", "isotropic"), sweep.PROPERTIES), ids=str)
def test_no_route_builds_an_unbounded_d2_sided_object(family, prop, d):
    spec = FamilySpec(family, d)
    if (family, prop) not in _EVALUATED_ROUTES:
        with pytest.raises(ValueError):
            sweep.evaluator(spec, prop)
        return
    tracemalloc.start()
    try:
        evaluate_point(spec, prop, 0.9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _closed_form_column(family, d, column):
    """The closed form of a table's closed-form column; hirsch1's p_E and p_HN are 0."""
    if family == "hirsch1" and column in ("p_E", "p_HN"):
        return 0.0
    if column in ("p_E", "p_SA"):
        return 1 / (d + 1)
    if column == "p_HN":
        return popescu_threshold(d)  # 1/sqrt(2) at d = 2
    if family == "isotropic":
        return 2.0 / cglmp_value(isotropic_state(d, 1.0))
    return 1 / _SQRT2


# the closed-form columns of the four tables at --dmax 6, which cover every
# closed-form (family, d, property) that the sweeps of the benchmark run: past
# d = 2 the tables print p_E from their references and mark the Werner p_SA X
_CLOSED_FORM_COLUMNS = [
    (family, d, column, prop)
    for family in sweep.TABLE_FAMILIES
    for d in ([2] if family in ("wi", "hirsch1") else range(2, 7))
    for column, prop in sweep._TABLE_COLUMNS[family].items()
    if prop != "tlf" and (d == 2 or not (column == "p_E" or (family, column) == ("werner", "p_SA")))
]
_ZERO_ONSETS = [("hirsch1", 2, "p_E", "eof"), ("hirsch1", 2, "p_HN", "hn")]


def _ulps(p, k):
    """p moved by k ulps (k < 0: down)."""
    for _ in range(abs(k)):
        p = float(np.nextafter(p, math.copysign(math.inf, k)))
    return p


@pytest.mark.parametrize("family,d,column,prop", _CLOSED_FORM_COLUMNS, ids=str)
def test_margin_sign_is_the_indicator(family, d, column, prop):
    spec = FamilySpec(family, d)
    root = _closed_form_column(family, d, column)
    near = [_ulps(root, k) for k in (-4, -2, -1, 1, 2, 4)]
    for p in [float(p) for p in np.linspace(0.0, 1.0, 51)] + [p for p in near if p >= 0.0]:
        result = evaluate_point(spec, prop, p)
        assert result.indicator is (result.margin > 0.0), p


@pytest.mark.parametrize(
    "family,d,column,prop", [c for c in _CLOSED_FORM_COLUMNS if c not in _ZERO_ONSETS], ids=str
)
def test_closed_form_column_is_its_closed_form(monkeypatch, family, d, column, prop):
    # the root search on the margin lands within 1e-10 of the closed form, in at most five points
    evaluations = []

    def counted(*args, **kwargs):
        evaluations.append(args)
        return evaluate_point(*args, **kwargs)

    monkeypatch.setattr(sweep, "evaluate_point", counted)
    entry = sweep._computed_entry(FamilySpec(family, d), prop, None)
    assert abs(entry["value"] - _closed_form_column(family, d, column)) <= 1e-10
    assert entry["tolerance"] == sweep.EXACT_TOL
    assert len(evaluations) <= 5


@pytest.mark.parametrize("family,d,column,prop", _ZERO_ONSETS, ids=str)
def test_zero_onset_entry_states_a_tolerance_that_covers_zero(monkeypatch, family, d, column, prop):
    # the margin is 0 at p = 0 and on just above it: the root search steps
    # tol/2 in from the low end and is done
    evaluations = []

    def counted(*args, **kwargs):
        evaluations.append(args)
        return evaluate_point(*args, **kwargs)

    monkeypatch.setattr(sweep, "evaluate_point", counted)
    entry = sweep._computed_entry(FamilySpec(family, d), prop, None)
    assert entry["value"] - entry["tolerance"] <= 0.0 <= entry["value"] + entry["tolerance"]
    assert entry["tolerance"] == sweep.EXACT_TOL
    assert len(evaluations) <= 3


@pytest.mark.parametrize("scramble", ["random", "flipped", "constant", "missing"])
def test_find_threshold_certifies_whatever_the_margins(monkeypatch, scramble):
    # margins only place the points: with scrambled ones the bracket is still
    # off at its low end and on at its high end, at the stated width
    rng = np.random.default_rng(7)
    margins = {
        "random": lambda m: float(rng.normal()),
        "flipped": lambda m: -m,
        "constant": lambda m: 1.0,
        "missing": lambda m: None,
    }[scramble]

    def scrambled(spec, prop, p, sdp_options=None, earlier=()):
        result = evaluate_point(spec, prop, p, sdp_options, earlier)
        return dataclasses.replace(result, margin=margins(result.margin))

    monkeypatch.setattr(sweep, "evaluate_point", scrambled)
    report = find_threshold(WI, "chsh", (0.0, 1.0))
    monkeypatch.undo()
    lo, hi = report.bracket
    assert evaluate_point(WI, "chsh", lo).indicator is False
    assert evaluate_point(WI, "chsh", hi).indicator is True
    assert hi - lo <= report.tolerance == sweep.EXACT_TOL
    # a midpoint at least every third step
    assert report.evaluations <= 2 + 3 * math.ceil(math.log2(1.0 / sweep.EXACT_TOL))
