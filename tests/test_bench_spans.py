"""The benchmark's tracer (bench/spans.py) patches nlact's functions where their callers look them up."""

import importlib.util
from pathlib import Path

from nlact.sdp import SdpProblem


def _spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist_where_it_patches_them():
    # the tracer replaces vars(owner)[attr]: a function that moves or is renamed
    # would break only the traced benchmark run
    missing = [(owner, attr) for owner, attr, _ in _spans().targets() if attr not in vars(owner)]
    assert missing == []
    # its solve hook reads the dense cost of the problem it is given
    assert "cost" in vars(SdpProblem)
