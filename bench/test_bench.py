"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest -p no:cacheprovider bench/test_bench.py

Workloads are shrunk here (fewer families, shorter grids, the two-qubit
Werner p_TLF bisection in place of the Hirsch one) so the suite runs in
seconds; the code paths are the ones the full workloads take.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_nlact()

import nlact.activation  # noqa: E402
import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Curve  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# layer -> (metric that counts its work, workloads on which it runs)
LAYER_WORK = {
    "cli": ("cli.main_s", {"tables", "tlf_curves", "property_curves"}),
    "sweep": ("sweep.evaluate_point.calls", set(run.WORKLOADS)),
    "activation": ("activation.sigma_min.calls", {"tables", "hirsch_flat", "tlf_curves"}),
    "sdp": ("sdp.solve.calls", {"tables", "hirsch_flat", "tlf_curves"}),
    "measures": ("measures.chsh_M.calls", {"tables", "property_curves"}),
    "states": ("states.state.calls", set(run.WORKLOADS)),
    "linalg": ("linalg.DensityMatrix.calls", set(run.WORKLOADS)),
}


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload; BLAS settings made by run.main are undone afterwards."""
    for var in run.BLAS_ENV:
        monkeypatch.setenv(var, run.BLAS_THREADS)
    monkeypatch.setattr(workloads, "TABLE_FAMILIES", ("wi",))
    # the two-qubit Werner p_TLF bisection in place of the slow Hirsch one
    monkeypatch.setattr(workloads, "HIRSCH_FAMILY", "wi")
    monkeypatch.setattr(workloads, "HIRSCH_BRACKET", (0.64, 0.68))
    monkeypatch.setattr(workloads, "HIRSCH_TLF", 0.6569)
    monkeypatch.setattr(workloads, "TLF_CURVES", (Curve("wi", 2, "tlf", 0.6, 0.8, 3, 0.6569, 5e-3),))
    monkeypatch.setattr(workloads, "PROPERTY_CURVES", workloads.PROPERTY_CURVES[:5])
    monkeypatch.setattr(workloads, "KFACTOR_STEPS", 6)
    # setup time is measured in fresh interpreters, which see the full workloads
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def bench(capsys, *args: str) -> tuple[int, dict]:
    code = run.main(["--seed", "7", "--seconds", "0", *args])
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-2])["env"]["nproc"] >= 1
    return code, json.loads(lines[-1])


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_for_every_workload(small, capsys, workload):
    code, result = bench(capsys, "--workload", workload, "--trace", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_per_layer_metrics_where_their_layer_runs(small, capsys, workload):
    code, result = bench(capsys, "--workload", workload, "--trace", "1")
    assert code == 0 and result["correct"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == PER_LAYER
    for name, value in metrics.items():
        assert NAME.fullmatch(name) and np.isfinite(value), name
    for layer, (work, runs_on) in LAYER_WORK.items():
        if workload in runs_on:
            assert metrics[work] > 0 and metrics[f"{layer}.self_s"] > 0, layer
        else:
            assert metrics[work] == 0, layer
    if workload in LAYER_WORK["sdp"][1]:
        assert metrics["sdp.iterations"] > 0 and metrics["sdp.eigh.calls"] > 0
        assert 0 < metrics["sdp.eigh_share"] < 1 and metrics["sdp.us_per_iter.n16"] > 0


def test_wrong_table_reference_fails(small, capsys, monkeypatch):
    monkeypatch.setitem(workloads.TWO_QUBIT, "p_E", 0.34)
    code, result = bench(capsys, "--workload", "tables", "--trace", "0")
    assert code == 1 and not result["correct"] and result["failed"] >= 2  # one per pass


def test_wrong_curve_reference_fails(small, capsys, monkeypatch):
    curve = workloads.PROPERTY_CURVES[0]._replace(reference=0.5)
    monkeypatch.setattr(workloads, "PROPERTY_CURVES", (curve,))
    code, result = bench(capsys, "--workload", "property_curves", "--trace", "0")
    assert code == 1 and result["failed"] == workloads.GRID_OFFSETS


def test_onset_bracket_and_error():
    points = [(0.1, False), (0.2, False), (0.3, True), (0.4, True)]
    item = workloads.onset_item("c", 0.0, points, 0.22, 0.0)
    assert item.ok and item.error == pytest.approx(0.08)
    assert not workloads.onset_item("c", 0.0, points, 0.35, 0.0).ok
    assert workloads.onset_item("c", 0.0, points, 0.35, 0.06).ok
    assert workloads.onset_item("c", 0.0, [(0.1, True)], 0.0, 0.0).ok  # on from the start
    assert not workloads.onset_item("c", 0.0, [(0.1, True), (0.2, False)], 0.05, 1.0).ok
    assert not workloads.onset_item("c", 0.0, [(0.1, False)], 0.05, 1.0).ok


def test_shifted_grids_interleave():
    fractions = workloads.grid_fractions(11)
    assert fractions == workloads.grid_fractions(11) != workloads.grid_fractions(12)
    grids = [np.linspace(*workloads.shifted_grid(0.0, 1.0, 11, f)) for f in fractions]
    merged = np.sort(np.concatenate(grids))
    assert np.allclose(np.diff(merged), 0.1 / workloads.GRID_OFFSETS)
    assert 0.0 <= merged[0] and merged[-1] <= 1.0


def test_output_mismatch_is_a_failure():
    first = run.Pass(1.0, {"a.csv": b"p,value\n"}, [])
    assert run.same_outputs("x", first, run.Pass(1.0, {"a.csv": b"p,value\n"}, [])).ok
    assert not run.same_outputs("x", first, run.Pass(1.0, {"a.csv": b"p,valuE\n"}, [])).ok
    assert not run.same_outputs("x", first, run.Pass(1.0, {}, [])).ok


def test_tracer_restores_every_original():
    originals = [vars(owner)[attr] for owner, attr, _ in spans.targets()]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert nlact.activation.solve is not originals[6]
            np.linalg.eigh(np.eye(3))
            raise RuntimeError
    assert tracer.restored()
    assert [vars(owner)[attr] for owner, attr, _ in spans.targets()] == originals
    metrics = tracer.metrics()
    assert metrics["trace.spans"][0] == 1 and metrics["linalg.self_s"][0] > 0


def test_checkout_without_sources_fails(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
