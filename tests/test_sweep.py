import dataclasses
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from nlact import activation, sweep
from nlact.activation import (
    ACTIVATION_TOL,
    DEFAULT_OPTIONS,
    TWIRLED_BASES,
    ActivationResult,
    bisection_options,
    build_cost,
    sigma_min,
)
from nlact.measures import cglmp_value, popescu_threshold
from nlact.sdp import VERTEX_TOL, SdpOptions, basis_vertices, solve
from nlact.states import FamilySpec, TwirledState, isotropic_state, twirl_projectors
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
    # a solve that certifies nothing is a missing point, not a certified "not activated"
    stalled = ActivationResult(sigma=math.inf, witness=SimpleNamespace(status=status, objective_lb=-math.inf, objective=math.inf), activated=False)
    monkeypatch.setattr(sweep, "sigma_min", lambda tau, options=None: stalled)
    result = evaluate_point(WI, "tlf", 0.7)
    assert result.error is not None and result.indicator is None
    assert sorted(sample_curve(WI, "tlf", [0.6, 0.7]).failures) == [0, 1]


@pytest.mark.parametrize("bisect", [False, True])
def test_tlf_point_passes_budget_through(monkeypatch, bisect):
    # --sdp-max-iters N means N for every solve, bisection points included
    seen = []
    done = ActivationResult(sigma=0.0, witness=SimpleNamespace(status="converged"), activated=False)
    monkeypatch.setattr(sweep, "sigma_min", lambda tau, options=None: seen.append(options) or done)
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
# on its margin over the family's range), sdp.solve calls and their
# interior-point Newton steps: every p_TLF entry is exact, from the table of LP
# bases, and solves nothing
_TABLE_EVALUATIONS = {("wi", 6): (54, 0, 0), ("werner", 6): (94, 0, 0), ("isotropic", 6): (151, 0, 0)}


@pytest.mark.parametrize("family,d_max", list(_TABLE_EVALUATIONS), ids=str)
def test_build_table_evaluation_budget(monkeypatch, family, d_max):
    evaluations, solves = [], []

    def counted(*args, **kwargs):
        evaluations.append(args)
        return evaluate_point(*args, **kwargs)

    def counted_solve(problem):
        solves.append(solve(problem))
        return solves[-1]

    monkeypatch.setattr(sweep, "evaluate_point", counted)
    monkeypatch.setattr(activation, "solve", counted_solve)
    build_table(family, d_max=d_max)
    max_evaluations, max_solves, max_steps = _TABLE_EVALUATIONS[family, d_max]
    assert len(evaluations) <= max_evaluations
    assert len(solves) <= max_solves
    assert sum(solution.iterations for solution in solves) <= max_steps
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
    solves = []
    monkeypatch.setattr(activation, "solve", lambda problem: solves.append(problem) or solve(problem))
    entry = sweep._computed_entry(FamilySpec(family, d), "tlf", None)
    assert entry["provenance"] == "exact (LP vertex)"
    assert entry["tolerance"] <= 1e-12
    closed = _closed_form_tlf(family, d)
    assert abs(entry["value"] - closed) <= 4.4e-16
    assert not solves
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


def _table_at(spec, p):
    """The feasible vertices of TWIRLED_BASES at p, with their values and dual bounds."""
    problem = build_cost(spec.state(p))
    costs = problem.costs.ravel()
    vertices, multipliers = basis_vertices(TWIRLED_BASES, problem.pt_map, problem.mult, costs[None])
    return vertices, vertices.value(costs), vertices.dual_bound(costs, multipliers[0])


def _optimal_bases(spec, p):
    """The bases of TWIRLED_BASES that are optimal at p: feasible vertex, dual bound at its value."""
    vertices, values, bounds = _table_at(spec, p)
    return vertices.basis[bounds >= values - 1e-12]


def _without(bases, removed):
    return np.array([basis for basis in bases.tolist() if basis not in removed.tolist()])


@pytest.mark.parametrize(
    "family,d,end,message",
    [
        ("werner", 3, "root", "certifies no root"),
        ("isotropic", 6, "root", "certifies no root"),
        ("isotropic", 6, "low", "no sigma > 0"),
    ],
    ids=["werner-3-root", "isotropic-6-root", "isotropic-6-low"],
)
def test_exact_tlf_entry_missing_an_optimal_basis_raises(family, d, end, message):
    # without the onset's basis, the next root of the table's lines lies above the
    # onset, where no basis's dual bound reaches 0; without every basis whose dual
    # bound is positive at p = 0, none certifies sigma > 0 there.  The entry is
    # refused, never printed
    spec = FamilySpec(family, d)
    if end == "root":
        removed = _optimal_bases(spec, _closed_form_tlf(family, d))
    else:
        vertices, _, bounds = _table_at(spec, 0.0)
        removed = vertices.basis[bounds > 0.0]
    with pytest.raises(ValueError, match=message):
        sweep._exact_tlf_entry(spec, _without(TWIRLED_BASES, removed))


def test_sweep_point_whose_table_lacks_the_optimal_basis_is_missing(monkeypatch):
    # a table without the basis optimal at p certifies no closed gap there: the
    # solve ends uncertified with no Newton step, and the sweep records the
    # point as missing, with no indicator, under that status and not a budget's
    spec = FamilySpec("werner", 3)
    monkeypatch.setattr(activation, "TWIRLED_BASES", _without(TWIRLED_BASES, _optimal_bases(spec, 0.8)))
    witness = sigma_min(spec.state(0.8)).witness
    assert (witness.status, witness.iterations) == ("infeasible_numerics", 0)
    assert witness.objective - witness.objective_lb > DEFAULT_OPTIONS.tol_objective
    curve = sample_curve(spec, "tlf", [0.3, 0.8])
    bounds = f"sigma in [{witness.objective_lb:.6g}, {witness.objective:.6g}]"
    assert curve.failures == {1: f"sdp certified no sign: infeasible_numerics, {bounds}"}
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
    # no prescan: find_threshold bisects [0, 1] to SDP_TOL, 2 ends and 10 midpoints
    points = []

    def counted(spec, prop, p, sdp_options=None):
        points.append(p)
        return evaluate_point(spec, prop, p, sdp_options)

    monkeypatch.setattr(sweep, "prescan_bracket", lambda *args, **kwargs: pytest.fail("prescan called"))
    monkeypatch.setattr(sweep, "evaluate_point", counted)
    entry = sweep._computed_entry(HIRSCH1, "tlf", None)
    assert points[:2] == [0.0, 1.0] and len(points) == 12
    assert entry == {"value": 0.17529296875, "tolerance": sweep.SDP_TOL, "provenance": "computed"}


def test_exact_tlf_entry_drops_infeasible_vertices():
    # at d = 4 the vertices of the bases optimal at d = 2 leave the polytope, and
    # their lines cross 0 at 0.6095, below the onset 0.6247: taken as vertices,
    # they would give that root.  With the bases optimal at p = 0 alone, no line
    # is left that falls below 0, and with the onset's basis the entry is exact
    spec = FamilySpec("werner", 4)
    stale = np.array([[int(row, 16) for row in word] for word in ("0567bcd", "0567bce", "0567bde")])
    table = np.concatenate([stale, _optimal_bases(spec, 0.0)])
    with pytest.raises(ValueError, match="no vertex line"):
        sweep._exact_tlf_entry(spec, table)
    closed = _closed_form_tlf("werner", 4)
    table = np.concatenate([table, _optimal_bases(spec, closed)])
    assert abs(sweep._exact_tlf_entry(spec, table)["value"] - closed) <= 4.4e-16


def test_twirled_bases_are_the_path_optimal_bases():
    # the pinned table is every one of the C(16, 7) bases whose vertex is
    # feasible and whose multipliers are dual feasible, both within VERTEX_TOL,
    # somewhere on the segment of twirled states with coefficients c >= 0 (every
    # family path, Werner p < 0 included), for d = 2..8 and both algebras
    everything = np.array(list(itertools.combinations(range(16), 7)))
    found = set()
    for algebra, d in itertools.product(("werner", "isotropic"), range(2, 9)):
        mult = np.trace(twirl_projectors(algebra, d), axis1=1, axis2=2)
        problems = [build_cost(TwirledState(algebra, d, c)) for c in ((1.0 / mult[0], 0.0), (0.0, 1.0 / mult[1]))]
        pt_map, mult = problems[1].pt_map, problems[1].mult
        systems = np.concatenate([np.eye(8), pt_map])[everything]
        systems = np.concatenate([systems, np.broadcast_to(mult, (len(everything), 1, 8))], axis=1)
        bases = everything[np.abs(np.linalg.det(systems)) > 1e-9]
        vertices, ends = basis_vertices(bases, pt_map, mult, np.array([problem.costs.ravel() for problem in problems]))
        # each multiplier of an active row is z0 + t (z1 - z0) on the segment's t in [0, 1]
        start, slope = ends[0, :, :-1], ends[1, :, :-1] - ends[0, :, :-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = (-VERTEX_TOL - start) / slope
        first = np.max(np.where(slope > 0.0, cross, 0.0), axis=1, initial=0.0)
        last = np.min(np.where(slope < 0.0, cross, 1.0), axis=1, initial=1.0)
        never = np.any((slope == 0.0) & (start < -VERTEX_TOL), axis=1)
        found |= set(map(tuple, vertices.basis[(first <= last) & ~never].tolist()))
    assert sorted(found) == list(map(tuple, TWIRLED_BASES.tolist()))


def test_exact_tlf_entry_ignores_a_loose_tolerance():
    # the entry makes no solve, so neither a loose gap nor a one-step budget moves it
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

    def scrambled(spec, prop, p, sdp_options=None):
        result = evaluate_point(spec, prop, p, sdp_options)
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
