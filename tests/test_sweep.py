import math
from types import SimpleNamespace

import numpy as np
import pytest

from nlact import sweep
from nlact.activation import ActivationResult
from nlact.sdp import SdpOptions
from nlact.states import FamilySpec
from nlact.sweep import (
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
    result = evaluate_point(HIRSCH1, "hn", 0.0)
    assert result.indicator is False


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
        (FamilySpec("isotropic", d=7), "cglmp", "cglmp supports"),
    ],
    ids=["werner3-eof", "isotropic3-hn", "isotropic7-cglmp"],
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
    stalled = ActivationResult(sigma=math.inf, witness=SimpleNamespace(status=status), activated=False)
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
    evaluate_point(WI, "tlf", 0.7, SdpOptions(max_iters=123), bisect=bisect)
    assert [options.max_iters for options in seen] == [123]


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
    # uncertified (indicator None), which counts as off
    grid = [float(p) for p in np.linspace(0.0, 1.0, sweep.PRESCAN_POINTS)]
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

        calls = []

        def fake_point(spec, prop, p, sdp_options=None, bisect=False):
            assert bisect
            calls.append(p)
            return sweep.PointResult(None, indicator(p))

        monkeypatch.setattr(sweep, "evaluate_point", fake_point)
        expected = _linear_scan(grid, indicator)
        if expected == "never turns on":
            with pytest.raises(ValueError, match="never turns on"):
                prescan_bracket(WI, "chsh")
        else:
            assert prescan_bracket(WI, "chsh") == expected, first_on
        if raising == "none":
            assert len(calls) <= 5, first_on  # ceil(log2(PRESCAN_POINTS + 1))


# evaluate_point calls of each table; the prescan bisects its 20-point grid
_TABLE_EVALUATIONS = {("wi", 6): 67, ("werner", 6): 156, ("isotropic", 6): 214}


@pytest.mark.parametrize("family,d_max", list(_TABLE_EVALUATIONS), ids=str)
def test_build_table_evaluation_budget(monkeypatch, family, d_max):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return evaluate_point(*args, **kwargs)

    monkeypatch.setattr(sweep, "evaluate_point", counted)
    build_table(family, d_max=d_max)
    assert len(calls) <= _TABLE_EVALUATIONS[family, d_max]


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
