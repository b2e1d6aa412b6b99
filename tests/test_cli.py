import dataclasses
import hashlib
import json
from types import SimpleNamespace

import pytest

from nlact import activation, sweep
from nlact.activation import ActivationResult
from nlact.cli import main
from nlact.measures import cglmp_value, popescu_threshold
from nlact.sdp import onset, solve
from nlact.states import isotropic_state


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sweep_csv_contract(tmp_path, capsys):
    out = tmp_path / "chsh.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep", "--family", "wi", "--property", "chsh",
        "--pmin", "0", "--pmax", "1", "--steps", "101", "--out", str(out),
    )
    assert code == 0
    text = out.read_text()
    lines = text.split("\n")
    assert lines[0] == "p,value,indicator"
    assert len([ln for ln in lines[1:] if ln]) == 101
    assert "\r" not in text
    # 12 significant digits on a value row
    row = dict(zip(("p", "value", "indicator"), lines[90].split(",")))
    assert abs(float(row["p"]) - 0.89) < 1e-12
    assert len(row["value"].replace(".", "").replace("-", "").lstrip("0")) >= 11


def test_sweep_deterministic_output(tmp_path, capsys):
    args = (
        "sweep", "--family", "wi", "--property", "eof",
        "--pmin", "0", "--pmax", "1", "--steps", "21",
    )
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(first))[0] == 0
    assert run_cli(capsys, *args, "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--family", "wi", "--property", "sa",
        "--pmin", "0", "--pmax", "1", "--steps", "5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "wi"
    assert len(doc["rows"]) == 5
    assert doc["rows"][-1]["indicator"] is True


def test_uncertified_activation_point_has_no_indicator(monkeypatch, capsys):
    # a solve that certifies nothing prints an empty indicator in CSV and null in JSON,
    # not "not activated"
    stalled = ActivationResult(sigma=0.07, witness=SimpleNamespace(status="max_iters", objective_lb=-0.5, objective=0.07), activated=None)
    monkeypatch.setattr(sweep, "sigma_min", lambda tau, options=None, start=None: stalled)
    args = ("sweep", "--family", "hirsch1", "--property", "tlf", "--pmin", "0.1", "--pmax", "0.3", "--steps", "3")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert [line.split(",")[2] for line in out.splitlines()[1:]] == ["", "", ""]
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    assert [row["indicator"] for row in json.loads(out)["rows"]] == [None, None, None]


def test_sweep_2d_grid(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep", "--family", "hirsch2", "--property", "hn",
        "--p-grid", "11", "--q-grid", "5", "--out", str(out),
    )
    assert code == 0
    lines = [ln for ln in out.read_text().split("\n") if ln]
    assert lines[0] == "p,q,value"
    assert len(lines) - 1 == 11 * 5


@pytest.mark.parametrize(
    "flags",
    [
        ("--pmin", "0.5", "--pmax", "0.6", "--q", "0.3"),
        ("--pmin", "0.5"),
        ("--pmax", "0.6"),
        ("--steps", "3"),
        ("--q", "0.3"),
        ("--format", "json"),
    ],
    ids=" ".join,
)
def test_sweep_2d_grid_rejects_line_flags(capsys, flags):
    # a 2-D sweep spans [0, 1] x [0, 1] and writes CSV; a 1-D grid, a weight or
    # JSON asked for with it would be ignored
    code, out, err = run_cli(
        capsys,
        "sweep", "--family", "hirsch2", "--property", "hn", "--p-grid", "3", "--q-grid", "2", *flags,
    )
    assert code == 2
    assert out == ""
    assert all(flag in err for flag in flags[::2])


def test_sweep_usage_errors(capsys):
    code, _, err = run_cli(
        capsys,
        "sweep", "--family", "wi", "--property", "chsh",
        "--pmin", "0.9", "--pmax", "0.1",
    )
    assert code == 2
    assert "pmin" in err
    code, _, _ = run_cli(
        capsys,
        "sweep", "--family", "wi", "--property", "chsh", "--steps", "1",
    )
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--family", "wi", "--property", "nope"])
    assert exc.value.code == 2


def test_werner_tlf_sweep_below_zero_has_no_missing_point(capsys):
    # the Werner range reaches p < 0, and the simplex solves every cost on it:
    # every point is certified, and the indicator turns on once
    code, out, _ = run_cli(
        capsys,
        "sweep", "--family", "werner", "--d", "3", "--property", "tlf",
        "--pmin", "-0.5", "--pmax", "1", "--steps", "31",
    )
    assert code == 0
    indicators = [line.split(",")[2] for line in out.splitlines()[1:]]
    assert len(indicators) == 31 and "" not in indicators
    assert indicators == sorted(indicators) and indicators[0] == "0" and indicators[-1] == "1"


def test_cglmp_sweep_runs_up_to_the_desk_scale_side(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "isotropic", "--d", "16", "--property", "cglmp", "--steps", "2"
    )
    assert code == 0
    assert [line.split(",")[2] for line in out.splitlines()[1:]] == ["0", "1"]


def test_cglmp_sweep_past_the_desk_scale_side_is_rejected(monkeypatch, capsys):
    # d = 17 builds a state of side 289: rejected before any point is evaluated
    monkeypatch.setattr(sweep, "_cglmp_point", lambda *args: pytest.fail("point evaluated"))
    code, out, err = run_cli(capsys, "sweep", "--family", "isotropic", "--d", "17", "--property", "cglmp")
    assert code == 2
    assert out == ""
    assert "problem side 289 exceeds the desk-scale limit 256" in err


def test_sweep_with_a_non_monotone_indicator_fails_the_check(monkeypatch, capsys):
    # an indicator that turns off again above its onset is a failed check, not a curve
    evaluate = sweep.evaluate_point

    def flipped(spec, prop, p, sdp_options=None):
        result = evaluate(spec, prop, p, sdp_options)
        return dataclasses.replace(result, indicator=not result.indicator) if p == 1.0 else result

    monkeypatch.setattr(sweep, "evaluate_point", flipped)
    code, out, err = run_cli(capsys, "sweep", "--family", "wi", "--property", "chsh", "--steps", "5")
    assert code == 1
    assert out == ""
    assert "check failed" in err and "not monotone" in err


def test_werner_hn_sweep_has_no_limit_on_d(capsys):
    # the filtered route reads two Werner coefficients, so d = 10^6 costs what d = 3 does
    code, out, _ = run_cli(
        capsys,
        "sweep", "--family", "werner", "--d", "1000000", "--property", "hn", "--steps", "101",
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    first_on = min(float(p) for p, _, indicator in rows if indicator == "1")
    assert 0.0 < first_on - popescu_threshold(10**6) <= 0.01


def test_sweep_unsupported_combination(capsys):
    code, _, err = run_cli(
        capsys,
        "sweep", "--family", "werner", "--d", "3", "--property", "eof",
    )
    assert code == 2
    assert "two-qubit" in err


@pytest.mark.parametrize(
    "args,match",
    [
        (("--family", "wi", "--d", "3", "--pmin", "0.2", "--pmax", "0.4", "--steps", "3"), "two-qubit"),
        (("--family", "hirsch1", "--q", "0.2", "--pmin", "0.2", "--pmax", "0.4", "--steps", "2"), "hirsch2 only"),
        (("--family", "hirsch2", "--p-grid", "3", "--q-grid", "2", "--d", "7"), "two-qubit"),
        (("--family", "hirsch2", "--p-grid", "0", "--q-grid", "2"), "grid sizes must be at least 2"),
        (("--family", "hirsch2", "--p-grid", "2", "--q-grid", "0"), "grid sizes must be at least 2"),
    ],
    ids=["wi-d3", "hirsch1-q", "hirsch2-d7", "p-grid-0", "q-grid-0"],
)
def test_sweep_rejects_ignored_family_arguments(capsys, args, match):
    # --d and --q reach FamilySpec unchanged, and a grid size of 0 is not "unset"
    code, out, err = run_cli(capsys, "sweep", *args, "--property", "eof")
    assert code == 2
    assert out == ""
    assert match in err


def test_sweep_rejects_q_outside_unit_interval(capsys):
    code, out, err = run_cli(
        capsys,
        "sweep", "--family", "hirsch2", "--q", "1.5", "--property", "eof", "--steps", "3",
    )
    assert code == 2
    assert out == ""
    assert "q must lie in [0, 1]" in err


@pytest.mark.parametrize(
    "args",
    [
        ("--family", "wi", "--property", "eof", "--pmin", "0", "--pmax", "2"),
        ("--family", "werner", "--d", "3", "--property", "hn", "--pmin", "-0.9"),
    ],
    ids=["wi-above", "werner-below"],
)
def test_sweep_rejects_grid_outside_family_range(capsys, args):
    # rejected before any point is evaluated, not printed as empty rows
    code, out, err = run_cli(capsys, "sweep", *args, "--steps", "3")
    assert code == 2
    assert out == ""
    assert "range" in err


@pytest.mark.parametrize(
    "bound", [("--pmax", "inf"), ("--pmin=-inf",), ("--pmin", "nan")], ids=["pmax-inf", "pmin-minus-inf", "pmin-nan"]
)
def test_sweep_rejects_non_finite_bound(capsys, bound):
    # a usage error before the grid is built, also under the suite's RuntimeWarning-as-error policy
    code, out, err = run_cli(capsys, "sweep", "--family", "wi", "--property", "eof", "--steps", "3", *bound)
    assert code == 2
    assert out == ""
    assert "must be finite" in err


def test_io_error_exit_code(tmp_path, capsys):
    missing_dir = tmp_path / "nope" / "deeper" / "out.csv"
    code, _, err = run_cli(
        capsys,
        "sweep", "--family", "wi", "--property", "eof", "--steps", "3",
        "--out", str(missing_dir),
    )
    assert code == 3
    assert "I/O" in err


def test_table_wi_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "wi")
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "wi"
    thresholds = doc["rows"][0]["thresholds"]
    assert abs(thresholds["p_E"]["value"] - 0.3333) < 5e-4
    assert abs(thresholds["p_NL"]["value"] - 0.7071) < 5e-4
    assert abs(thresholds["p_TLF"]["value"] - (4 * 2**0.5 - 5)) <= thresholds["p_TLF"]["tolerance"] <= 1e-12
    assert thresholds["p_TLF"]["provenance"] == "exact (LP vertex)"
    assert thresholds["p_L"]["value"] == 0.6595
    assert thresholds["p_L"]["provenance"] == "paper-constant"
    assert thresholds["p_NL_refined"]["value"] == 0.7054


def test_table_werner_csv_has_x_marker(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--family", "werner", "--dmax", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d,name,value,tolerance,provenance"
    sa_rows = [ln for ln in lines if ln.startswith("3,p_SA")]
    assert sa_rows and sa_rows[0].split(",")[2] == "X"


# sha256 of the JSON tables as printed since the twirled families' exact p_TLF
# entries became the smallest root of a pinned table of LP bases (isotropic d=3
# moved by 1 ulp; the closed-form columns are roots of their signed margins to
# 1e-12) and hirsch1's p_TLF became one bisection of [0, 1] to 1e-3 (0.17529296875,
# 12 evaluations); since hn reads the Wootters values and cglmp contracts in BLAS,
# hirsch1's p_HN is 2.5e-13 +- 1e-12 and the isotropic p_NL moved by 1 ulp at
# d = 2, 3; since the layout solves its LP vertices once, with one right-hand
# side, isotropic d=3's p_TLF moved by 1 ulp again (0.5606601717798214 ->
# 0.5606601717798213); Newton's method on the simplex's vertex lines, which
# replaced the pinned table, prints the same bytes, and so does the one onset LP
# that replaced Newton's method; a change of
# representation, solver loop or search that moves a threshold shows up here
_TABLE_SHA256 = {
    ("--family", "wi"): "1a1b68d05bd6bc4b2532f8c54b89c2be586e6c91fa785ea32cd8250e0c0b6de8",
    ("--family", "werner", "--dmax", "3"): "80e8b46bc5050ad93f29b76fb5d9674f9ce945ea96237150151f76f228c5e6ee",
    ("--family", "isotropic", "--dmax", "3"): "68af54c780fc815332feb1583855d4592c032fb02a64706e1be04504daa9b2b9",
    ("--family", "hirsch1"): "f1bc03309883a1cad7f3c781d1248e84fb11f6c4729c2dd3b2053425f5283c59",
}


@pytest.mark.parametrize("args", list(_TABLE_SHA256), ids=" ".join)
def test_table_bytes_pinned(capsys, args):
    code, out, _ = run_cli(capsys, "table", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _TABLE_SHA256[args]


# (table arguments, the entry the error names); the test ids are the arguments
_UNCERTIFIED_TABLES = [(("--family", "hirsch1", "--sdp-max-iters", "3"), "hirsch1 d=2 p_TLF")]


@pytest.mark.parametrize("args,where", _UNCERTIFIED_TABLES, ids=[" ".join(args) for args, _ in _UNCERTIFIED_TABLES])
def test_table_refuses_uncertified_entries(capsys, args, where):
    # solves that certify too little fail the table, naming the entry and the point,
    # instead of printing a threshold that rests on them
    code, out, err = run_cli(capsys, "table", *args)
    assert code == 2
    assert out == ""
    assert where in err and "p=" in err


def test_table_sign_queries_run_until_the_cut_is_settled(capsys):
    # a gap under a loose tol_objective that straddles the activation cut stops
    # no sign query: each runs on until its bounds settle the cut, so the
    # bisection visits the default's points and decides them alike
    code, out, _ = run_cli(capsys, "table", "--family", "hirsch1", "--sdp-tol", "0.5")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _TABLE_SHA256[("--family", "hirsch1")]


# the default tables of the twirled families, whose p_TLF entries are exact
_EXACT_TABLE_SHA256 = {
    ("--family", "wi"): _TABLE_SHA256[("--family", "wi")],
    ("--family", "isotropic", "--dmax", "2"): "a1722cc1463d8b2fc06760bacf3ffee1e10f5f25ed78712230eb1f755c878f63",
    ("--family", "werner", "--dmax", "3"): _TABLE_SHA256[("--family", "werner", "--dmax", "3")],
}


@pytest.mark.parametrize("args", list(_EXACT_TABLE_SHA256), ids=" ".join)
def test_table_exact_entries_ignore_a_loose_sdp_tol(capsys, args):
    # an exact p_TLF entry solves under the default options, whatever the
    # caller's, so neither a loose --sdp-tol nor a one-step --sdp-max-iters moves them
    code, out, _ = run_cli(capsys, "table", *args, "--sdp-max-iters", "1", "--sdp-tol", "0.5")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _EXACT_TABLE_SHA256[args]


@pytest.mark.parametrize("dmax,p_tlf", [("7", 0.3535533905932738), ("8", 0.32366324654752765)], ids=["7", "8"])
def test_table_computes_every_column_of_the_last_row(monkeypatch, capsys, dmax, p_tlf):
    # CGLMP holds for every d: the isotropic p_NL is computed on every row, the
    # root of the CGLMP margin at 2/I_d, and p_TLF exactly, from one onset LP
    # per row, with no solve and no tlf point evaluated
    def no_point(*args, **kwargs):
        raise AssertionError("a tlf point was evaluated")

    solves, lps = [], []
    monkeypatch.setattr(sweep, "sigma_min", no_point)
    monkeypatch.setattr(activation, "solve", lambda problem: solves.append(solve(problem)) or solves[-1])
    monkeypatch.setattr(sweep, "onset", lambda low, high: lps.append(onset(low, high)) or lps[-1])
    code, out, err = run_cli(capsys, "table", "--family", "isotropic", "--dmax", dmax)
    assert code == 0 and err == ""
    assert (len(lps), solves) == (int(dmax) - 1, [])
    rows = json.loads(out)["rows"]
    assert [row["d"] for row in rows] == list(range(2, int(dmax) + 1))
    for row in rows:
        entry = row["thresholds"]["p_NL"]
        assert (entry["tolerance"], entry["provenance"]) == (1e-12, "computed")
        assert abs(entry["value"] - 2.0 / cglmp_value(isotropic_state(row["d"], 1.0))) <= 1e-12
    assert rows[-1]["thresholds"]["p_TLF"] == {"value": p_tlf, "tolerance": 1e-12, "provenance": "exact (LP vertex)"}
    # the rows up to d = 6 are those of the default table
    code, six, _ = run_cli(capsys, "table", "--family", "isotropic")
    assert code == 0 and json.loads(six)["rows"] == rows[:5]


def test_isotropic_table_past_the_problem_side_limit_is_rejected(monkeypatch, capsys):
    # d = 17 needs twirl projectors of side 289: rejected before any row is computed
    def no_solve(*args, **kwargs):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(sweep, "sigma_min", no_solve)
    monkeypatch.setattr(sweep, "onset", no_solve)
    code, out, err = run_cli(capsys, "table", "--family", "isotropic", "--dmax", "17")
    assert code == 2
    assert out == ""
    assert "isotropic d=17 p_TLF: problem side 289 exceeds the desk-scale limit 256" in err


def test_table_with_a_huge_dmax_fails_at_the_first_row_past_the_limit(monkeypatch, capsys):
    # the rows are routed one at a time, and d = 17 is the first whose p_TLF is too large
    monkeypatch.setattr(sweep, "_computed_entry", lambda *args: pytest.fail("an entry was computed"))
    code, out, err = run_cli(capsys, "table", "--family", "werner", "--dmax", "1000000000")
    assert code == 2
    assert out == ""
    assert "werner d=17 p_TLF: problem side 289 exceeds the desk-scale limit 256" in err


@pytest.mark.parametrize("dmax", ["1", "17", "-3"])
def test_table_rejects_dmax_out_of_range(monkeypatch, capsys, dmax):
    # rejected before any row is computed, in every family; only werner and
    # isotropic have rows past d = 2 that can exceed the desk-scale limit
    def no_entry(*args, **kwargs):
        raise AssertionError("an entry was computed")

    monkeypatch.setattr(sweep, "sigma_min", no_entry)
    monkeypatch.setattr(sweep, "_computed_entry", no_entry)
    for family in ("werner", "isotropic") if dmax == "17" else sweep.TABLE_FAMILIES:
        code, out, err = run_cli(capsys, "table", "--family", family, "--dmax", dmax)
        assert (code, out) == (2, ""), family
        assert ("desk-scale" if dmax == "17" else "at least 2") in err, family


@pytest.mark.parametrize("flag", [("--sdp-max-iters", "0"), ("--sdp-max-iters", "-5"), ("--sdp-tol", "nan"), ("--sdp-tol", "-1")])
def test_sdp_options_that_certify_nothing_are_usage_errors(capsys, flag):
    code, out, err = run_cli(
        capsys, "sweep", "--family", "wi", "--property", "tlf", "--pmin", "0.6", "--pmax", "0.7", "--steps", "2", *flag
    )
    assert code == 2
    assert out == ""
    assert ("max_iters" if flag[0] == "--sdp-max-iters" else "tol_objective") in err


def test_check_ancilla_default_passes(capsys):
    code, out, _ = run_cli(capsys, "check-ancilla")
    assert code == 0
    assert out.count("activated") >= 20


def test_check_ancilla_rejects_no_points(capsys):
    code, out, err = run_cli(capsys, "check-ancilla", "--points", "0")
    assert code == 2
    assert out == ""
    assert "--points" in err


def test_check_ancilla_separable_point_fails(capsys):
    code, out, err = run_cli(capsys, "check-ancilla", "--p", "0.3")
    assert code == 1
    assert "NOT activated" in out
    assert "FAIL" in err


@pytest.mark.parametrize("p", ["nan", "2", "-0.1"])
def test_check_ancilla_rejects_p_outside_the_range_before_printing(capsys, p):
    code, out, err = run_cli(capsys, "check-ancilla", f"--p={p}")
    assert code == 2
    assert out == ""
    assert "0 <= p <= 1" in err


def test_check_ancilla_high_point_passes(capsys):
    code, out, _ = run_cli(capsys, "check-ancilla", "--p", "0.99")
    assert code == 0
    assert "activated" in out


def test_kfactor_csv(tmp_path, capsys):
    out = tmp_path / "k.csv"
    code, _, _ = run_cli(
        capsys,
        "kfactor", "--dmin", "2", "--dmax", "5", "--fsteps", "21", "--out", str(out),
    )
    assert code == 0
    lines = [ln for ln in out.read_text().split("\n") if ln]
    assert lines[0] == "d,f,k"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 4 * 21
    by_d: dict[str, list] = {}
    for d, f, k in rows:
        by_d.setdefault(d, []).append((float(f), None if k == "" else int(k)))
    for d, pairs in by_d.items():
        dval = int(d)
        ks = [k for f, k in pairs if k is not None]
        # empty below the f <= 1/d boundary, non-increasing above it
        for f, k in pairs:
            assert (k is None) == (f * dval <= 1.0)
        assert all(a >= b for a, b in zip(ks, ks[1:]))
    two_one = [k for (f, k) in by_d["2"] if f == 1.0]
    assert two_one == [10]


def test_kfactor_usage_error(capsys):
    code, _, _ = run_cli(capsys, "kfactor", "--dmin", "1")
    assert code == 2
