"""Benchmark of nlact's threshold pipeline, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload tables --seed 1 --seconds 10 --trace 0

Workloads and metrics are declared in BENCHMARK.json and described in
bench/README.md.  The benchmark drives nlact in this one process as one
sequential caller, through its CLI (in-process) and public functions, with
nlact imported from ``src/`` next to this directory.

``--trace 0`` repeats passes of the workload for ``--seconds`` seconds (a pass
starts only while it is expected to end in time) and reports the end-to-end
metrics.  ``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics.  Every pass's outputs are checked against the paper's
values.  stdout ends with two JSON lines: the run and its environment, then
the result ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every check passed, 1 when one failed, and 2
when nlact or the workload cannot be set up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("tables", "hirsch_flat", "tlf_curves", "property_curves")

# One BLAS thread: at nlact's sides (n <= 144) a second thread makes eigh no
# faster on 2 cores, and a single thread keeps runs comparable.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
SETUP_PROBE = (
    "import sys; sys.path[:0] = [{bench!r}, {src!r}]; import workloads; workloads.build({name!r}, {seed!r})"
)


class SetupError(Exception):
    """nlact or a workload could not be set up; no result is printed."""


def import_nlact() -> None:
    """Import nlact from ``src/`` of this checkout, and nowhere else."""
    if not (SRC / "nlact" / "__init__.py").is_file():
        raise SetupError(f"no nlact sources under {SRC}")
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import nlact

    if Path(nlact.__file__).resolve().parent != SRC / "nlact":
        raise SetupError(f"nlact was imported from {nlact.__file__}, not from {SRC}")


def measure_setup(name: str, seed: int) -> list[float]:
    """Seconds from a fresh interpreter until nlact is imported and the inputs are built, per probe."""
    code = SETUP_PROBE.format(bench=str(BENCH_DIR), src=str(SRC), name=name, seed=seed)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SetupError(f"setup probe failed:\n{proc.stderr}")
    return times


@dataclass
class Pass:
    wall_s: float
    outputs: dict[str, bytes]
    items: list


def run_pass(workload, outdir: Path) -> Pass:
    """One timed pass; its outputs are checked after the clock stops."""
    start = time.perf_counter()
    try:
        outputs = workload.run(outdir)
    except Exception:
        # the checks below count every output of the pass as missing
        traceback.print_exc()
        outputs = {}
    wall = time.perf_counter() - start
    return Pass(wall, outputs, workload.check(outputs))


def digests(p: Pass) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(p.outputs.items())}


def same_outputs(name: str, first: Pass, other: Pass):
    from workloads import Item

    same = digests(first) == digests(other)
    return Item(name, same, None, "" if same else "output bytes differ")


def end_to_end(workload, seed: int, seconds: float, outdir: Path) -> tuple[dict, list, dict]:
    setup = measure_setup(workload.name, seed)
    passes: list[Pass] = []
    start = time.perf_counter()
    # start another pass only while it is expected to end within the run
    while len(passes) < workload.min_passes or (
        time.perf_counter() - start + statistics.median(p.wall_s for p in passes) <= seconds
    ):
        passes.append(run_pass(workload, outdir))
    items = [item for p in passes for item in p.items]
    items += [same_outputs(f"pass {i + 1} output equals pass 1", passes[0], p) for i, p in enumerate(passes[1:], 1)]
    errors = [item.error for item in items if item.error is not None]
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        # p lies in [0, 1], so 1.0 when no value could be checked at all
        "max_abs_err": (max(errors, default=1.0), "p"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, items, {"pass_wall_s": [p.wall_s for p in passes], "setup_probe_s": setup}


def per_layer(workload, outdir: Path) -> tuple[dict, list, dict]:
    from spans import Tracer
    from workloads import Item

    untraced = run_pass(workload, outdir)
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(workload, outdir)
    items = untraced.items + traced.items
    items.append(same_outputs("traced output equals untraced", untraced, traced))
    items.append(Item("tracing wrappers restored", tracer.restored()))
    metrics = tracer.metrics()
    metrics["cli.output_bytes"] = (sum(len(data) for data in traced.outputs.values()), "bytes")
    metrics["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    metrics["trace.overhead_frac"] = ((traced.wall_s - untraced.wall_s) / untraced.wall_s, "ratio")
    return metrics, items, {"untraced_wall_s": untraced.wall_s, "traced_wall_s": traced.wall_s}


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    src = hashlib.sha256()
    for path in sorted((SRC / "nlact").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS  # read when numpy first loads OpenBLAS

    try:
        import_nlact()
        import workloads

        workload = workloads.build(args.workload, args.seed)
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    (ROOT / ".bench_run").mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_run"))
    try:
        if args.trace:
            metrics, items, samples = per_layer(workload, outdir)
        else:
            metrics, items, samples = end_to_end(workload, args.seed, args.seconds, outdir)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            outdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = [item for item in items if not item.ok]
    for item in failed:
        print(f"FAIL {item.name}: {item.detail}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}", file=sys.stderr)
    print(f"failed_frac {len(failed) / len(items):.6g} ({len(failed)} of {len(items)} items)", file=sys.stderr)

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "inputs": "seeded" if workload.seeded else "fixed",
        "samples": samples,
    }
    print(json.dumps({"run": info, "env": environment()}))
    result = {
        "correct": not failed,
        "attempted": len(items),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
