"""The benchmark's modules against nlact: the tracer (bench/spans.py) patches nlact's
functions where their callers look them up, and one pass of the tables,
tlf_curves and hirsch_flat workloads (bench/workloads.py) passes every check
it makes on nlact's outputs."""

import importlib.util
import sys
from pathlib import Path

from nlact.sdp import SdpProblem


def _bench(name, monkeypatch):
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist_where_it_patches_them(monkeypatch):
    # the tracer replaces vars(owner)[attr]: a function that moves or is renamed
    # would break only the traced benchmark run
    missing = [(owner, attr) for owner, attr, _ in _bench("spans", monkeypatch).targets() if attr not in vars(owner)]
    assert missing == []
    # its solve hook reads the dense cost of the problem it is given
    assert "cost" in vars(SdpProblem)


def test_tables_workload_pass_has_no_failed_item(monkeypatch, tmp_path):
    # a table change that the benchmark would count as a failed item fails here first
    workload = _bench("workloads", monkeypatch).build("tables", 1)
    outputs = workload.run(tmp_path)
    assert sorted(outputs) == ["table-isotropic.json", "table-werner.json", "table-wi.json"]
    items = workload.check(outputs)
    assert items
    assert [(item.name, item.detail) for item in items if not item.ok] == []


def test_tlf_curves_workload_passes_agree_and_have_no_failed_item(monkeypatch, tmp_path):
    # the benchmark compares the outputs of two passes: a solve that varies
    # between runs would fail there first
    workload = _bench("workloads", monkeypatch).build("tlf_curves", 1)
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    outputs = workload.run(first)
    assert len(outputs) == 12
    assert workload.run(second) == outputs
    items = workload.check(outputs)
    assert items
    assert [(item.name, item.detail) for item in items if not item.ok] == []


def test_hirsch_flat_workload_pass_has_no_failed_item(monkeypatch, tmp_path):
    workload = _bench("workloads", monkeypatch).build("hirsch_flat", 1)
    outputs = workload.run(tmp_path)
    assert sorted(outputs) == ["hirsch1-tlf.json"]
    items = workload.check(outputs)
    assert items
    assert [(item.name, item.detail) for item in items if not item.ok] == []
