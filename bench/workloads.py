"""The benchmark's workloads: inputs built from a seed, one timed pass through
nlact's CLI or public functions, and the checks of that pass's outputs against
the paper's values (arXiv 1609.08025) and closed-form thresholds.

A pass returns its outputs as named bytes (the CLI's files, or a serialized
threshold report); checking them is not part of the timed pass.  The caller
must put nlact on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import nlact.cli
import nlact.sweep
from nlact.states import FamilySpec

# Each curve is swept on this many interleaved grids per pass, offset by
# seed + j/GRID_OFFSETS of a step.  The worst onset error over the grids then
# stays near one step whatever the seed, so max_abs_err does not swing with it.
GRID_OFFSETS = 4

# Paper values and the acceptance tolerances they are checked at.
TWO_QUBIT = {"p_E": 0.3333, "p_SA": 0.3333, "p_TLF": 0.6569, "p_HN": 0.7071, "p_NL": 0.7071}
WERNER_TLF = {2: 0.6569, 3: 0.6360, 4: 0.6247, 5: 0.6174, 6: 0.6127}
WERNER_FILTERED = {3: 0.7630, 4: 0.7837, 5: 0.7944, 6: 0.8009}
ISOTROPIC_TLF = {2: 0.6569, 3: 0.5606, 4: 0.4890, 5: 0.4337, 6: 0.3895}
ISOTROPIC_CGLMP = {2: 0.7071, 3: 0.6961, 4: 0.6905, 5: 0.6872, 6: 0.6849}
HIRSCH_TLF = 0.1716  # p_TLF of the one-parameter Hirsch family

TLF_TOL = 5e-3
CLOSED_FORM_TOL = 5e-4
FILTERED_TOL = 1e-4
CGLMP_TOL = 2e-3
# nlact's table bisects p_HN to a 5e-4 bracket and states that tolerance, so
# its computed p_HN is held to it; the stored closed form meets FILTERED_TOL.
TABLE_HN_TOL = 5e-4
# slack for onsets against exact closed forms: only float rounding of the grid
EXACT_TOL = 1e-9

TABLE_FAMILIES = ("werner", "isotropic", "wi")
TABLE_DMAX = 6
# criterion 6 of the acceptance suite: hirsch1's flat activation curve
HIRSCH_FAMILY, HIRSCH_PROP, HIRSCH_BRACKET = "hirsch1", "tlf", (0.12, 0.22)


@dataclass(frozen=True)
class Item:
    """One checked result: a threshold, a curve point or onset, or a consistency check."""

    name: str
    ok: bool
    error: float | None = None  # |computed - reference|, where the item has a reference
    detail: str = ""


@dataclass
class Workload:
    name: str
    seeded: bool  # False: the inputs are fixed and the seed is not used
    min_passes: int  # 2 where outputs are compared across passes
    run: Callable[[Path], dict[str, bytes]]
    check: Callable[[dict[str, bytes]], list[Item]]


class Curve(NamedTuple):
    family: str
    d: int
    prop: str
    lo: float
    hi: float
    steps: int
    reference: float  # threshold where the indicator switches on
    tol: float

    @property
    def label(self) -> str:
        return f"{self.family}-d{self.d}-{self.prop}"


def threshold_item(name: str, computed: float | None, reference: float, tol: float) -> Item:
    if computed is None:
        return Item(name, False, None, "missing")
    error = abs(computed - reference)
    return Item(name, error <= tol, error, f"{computed!r} vs {reference!r} (tol {tol:g})")


def popescu_threshold(d: int) -> float:
    """CHSH threshold of the d-dim Werner state after the fixed two-dim filter."""
    return 4.0 * (d - 1) / (2.0 * d * (math.sqrt(2.0) - 1.0) + 4.0 * (d - 1))


def cglmp_threshold(d: int) -> float:
    """2 / I_d, with I_d the CGLMP value of the maximally entangled state (optimal settings)."""

    def q(k: int) -> float:
        return 1.0 / (2.0 * d**3 * math.sin(math.pi * (k + 0.25) / d) ** 2)

    value = 4.0 * d * sum((1.0 - 2.0 * k / (d - 1)) * (q(k) - q(-k - 1)) for k in range(d // 2))
    return 2.0 / value


def _cli(argv: list[str], out: Path) -> bytes | None:
    """Run one CLI command writing to ``out``; None when it exits non-zero."""
    if nlact.cli.main([*argv, "--out", str(out)]) != 0:
        return None
    return out.read_bytes()


def _run_cli(commands: dict[str, list[str]], outdir: Path) -> dict[str, bytes]:
    outputs = {}
    for name, argv in commands.items():
        data = _cli(argv, outdir / name)
        if data is not None:
            outputs[name] = data
    return outputs


# ---------------------------------------------------------------- tables


def table_references(family: str, d: int) -> dict[str, tuple[float, float]]:
    """Column -> (reference, tolerance) for the computed entries of one table row."""
    if d == 2:
        refs = {c: (TWO_QUBIT[c], TLF_TOL if c == "p_TLF" else CLOSED_FORM_TOL) for c in TWO_QUBIT}
        if family == "werner":
            del refs["p_NL"]
        if family == "isotropic":
            del refs["p_HN"]
            refs["p_NL"] = (ISOTROPIC_CGLMP[2], CGLMP_TOL)
        return refs
    if family == "werner":
        return {
            "p_TLF": (WERNER_TLF[d], TLF_TOL),
            "p_HN": (WERNER_FILTERED[d], TABLE_HN_TOL),
            "p_HN_filtered": (WERNER_FILTERED[d], FILTERED_TOL),
        }
    return {
        "p_SA": (1.0 / (d + 1), CLOSED_FORM_TOL),
        "p_TLF": (ISOTROPIC_TLF[d], TLF_TOL),
        "p_NL": (ISOTROPIC_CGLMP[d], CGLMP_TOL),
    }


def check_table(family: str, data: bytes | None) -> list[Item]:
    d_values = [2] if family == "wi" else list(range(2, TABLE_DMAX + 1))
    expected = [(d, column) for d in d_values for column in table_references(family, d)]
    try:
        rows = {row["d"]: row["thresholds"] for row in json.loads(data)["rows"]}
    except (TypeError, ValueError, KeyError) as exc:
        return [Item(f"{family} d={d} {c}", False, None, f"no table: {exc}") for d, c in expected]
    items = []
    for d, column in expected:
        reference, tol = table_references(family, d)[column]
        computed = rows.get(d, {}).get(column, {}).get("value")
        items.append(threshold_item(f"{family} d={d} {column}", computed, reference, tol))
    return items


def _tables(seed: int) -> Workload:
    commands = {
        f"table-{family}.json": ["table", "--family", family, "--dmax", str(TABLE_DMAX)]
        for family in TABLE_FAMILIES
    }

    def check(outputs: dict[str, bytes]) -> list[Item]:
        return [
            item
            for family in TABLE_FAMILIES
            for item in check_table(family, outputs.get(f"table-{family}.json"))
        ]

    return Workload("tables", False, 2, lambda outdir: _run_cli(commands, outdir), check)


# ---------------------------------------------------------------- hirsch_flat


def _hirsch_flat(seed: int) -> Workload:
    spec = FamilySpec(HIRSCH_FAMILY)
    out = f"{HIRSCH_FAMILY}-{HIRSCH_PROP}.json"

    def run(outdir: Path) -> dict[str, bytes]:
        report = nlact.sweep.find_threshold(spec, HIRSCH_PROP, HIRSCH_BRACKET)
        doc = {"threshold": report.threshold, "bracket": report.bracket, "evaluations": report.evaluations}
        return {out: json.dumps(doc).encode()}

    def check(outputs: dict[str, bytes]) -> list[Item]:
        data = outputs.get(out)
        computed = None if data is None else json.loads(data)["threshold"]
        return [threshold_item(f"{out} threshold", computed, HIRSCH_TLF, TLF_TOL)]

    return Workload("hirsch_flat", False, 1, run, check)


# ---------------------------------------------------------------- curves


def grid_fractions(seed: int) -> list[float]:
    """Offsets of the interleaved grids, as fractions of one step."""
    base = random.Random(seed).random()
    return [(base + j / GRID_OFFSETS) % 1.0 for j in range(GRID_OFFSETS)]


def shifted_grid(lo: float, hi: float, steps: int, fraction: float) -> tuple[float, float, int]:
    """The grid lo + (k + fraction) * step inside [lo, hi]: (first, last, count)."""
    step = (hi - lo) / (steps - 1)
    return lo + fraction * step, hi - (1.0 - fraction) * step, steps - 1


def onset_item(name: str, lo: float, points: list[tuple[float, bool]], reference: float, tol: float) -> Item:
    """Check that the reference lies in the onset bracket [last off, first on].

    The error is the largest distance from the reference to a point of the
    bracket.  A curve that is on at its first point brackets from ``lo``.
    """
    first_on = next((i for i, (_, on) in enumerate(points) if on), None)
    if first_on is None:
        return Item(name, False, None, "indicator never turns on")
    if not all(on for _, on in points[first_on:]):
        return Item(name, False, None, "indicator not monotone")
    p_off = points[first_on - 1][0] if first_on > 0 else lo
    p_on = points[first_on][0]
    error = max(reference - p_off, p_on - reference)
    ok = p_off - tol <= reference <= p_on + tol
    return Item(name, ok, error, f"[{p_off!r}, {p_on!r}] vs {reference!r} (tol {tol:g})")


def check_sweep(name: str, curve: Curve, data: bytes | None) -> list[Item]:
    """Items for one CSV sweep: one per grid point and one for the onset."""
    if data is None:
        return [Item(name, False, None, "no output")]
    items, points = [], []
    for row in csv.DictReader(io.StringIO(data.decode())):
        present = row["value"] != "" and row["indicator"] != ""
        items.append(Item(f"{name} p={row['p']}", present, None, "" if present else "missing point"))
        if present:
            points.append((float(row["p"]), row["indicator"] == "1"))
    items.append(onset_item(f"{name} onset", curve.lo, points, curve.reference, curve.tol))
    return items


def check_kfactor(name: str, lo: float, data: bytes | None, d_values: range) -> list[Item]:
    """Items for one copy-count map: every row, and per d the onset of a finite k at f = 1/d."""
    if data is None:
        return [Item(name, False, None, "no output")]
    items, points = [], {d: [] for d in d_values}
    for row in csv.DictReader(io.StringIO(data.decode())):
        ok = row["k"] == "" or row["k"].isdigit()
        items.append(Item(f"{name} d={row['d']} f={row['f']}", ok, None, "" if ok else "bad k"))
        points[int(row["d"])].append((float(row["f"]), row["k"] != ""))
    for d in d_values:
        items.append(onset_item(f"{name} d={d} onset", lo, points[d], 1.0 / d, EXACT_TOL))
    return items


TLF_CURVES = (
    Curve("wi", 2, "tlf", 0.5, 0.9, 21, TWO_QUBIT["p_TLF"], TLF_TOL),
    Curve("werner", 3, "tlf", 0.55, 0.75, 11, WERNER_TLF[3], TLF_TOL),
    Curve("isotropic", 3, "tlf", 0.45, 0.65, 11, ISOTROPIC_TLF[3], TLF_TOL),
)

PROPERTY_STEPS = 51
SQRT_HALF = math.sqrt(0.5)
PROPERTY_CURVES = (
    *(
        Curve(family, 2, prop, 0.0, 1.0, PROPERTY_STEPS, reference, EXACT_TOL)
        for family, refs in (
            ("wi", {"eof": 1 / 3, "chsh": SQRT_HALF, "hn": SQRT_HALF, "sa": 1 / 3}),
            ("hirsch1", {"eof": 0.0, "chsh": SQRT_HALF, "hn": 0.0, "sa": 1 / 3}),
        )
        for prop, reference in refs.items()
    ),
    *(Curve("werner", d, "hn", 0.0, 1.0, PROPERTY_STEPS, popescu_threshold(d), EXACT_TOL) for d in range(3, 7)),
    *(Curve("isotropic", d, "cglmp", 0.0, 1.0, PROPERTY_STEPS, cglmp_threshold(d), EXACT_TOL) for d in range(2, 7)),
    *(Curve("isotropic", d, "sa", 0.0, 1.0, PROPERTY_STEPS, 1.0 / (d + 1), EXACT_TOL) for d in range(2, 7)),
)
KFACTOR_D = range(2, 6)
KFACTOR_STEPS = 51


def _sweep_argv(curve: Curve, fraction: float) -> list[str]:
    first, last, count = shifted_grid(curve.lo, curve.hi, curve.steps, fraction)
    return [
        "sweep", "--family", curve.family, "--d", str(curve.d), "--property", curve.prop,
        "--pmin", repr(first), "--pmax", repr(last), "--steps", str(count),
    ]


def _curves(name: str, seed: int, curves: tuple[Curve, ...], kfactor: bool, min_passes: int) -> Workload:
    fractions = grid_fractions(seed)
    commands: dict[str, list[str]] = {}
    for j, fraction in enumerate(fractions):
        for curve in curves:
            commands[f"{curve.label}-g{j}.csv"] = _sweep_argv(curve, fraction)
        if kfactor:
            first, last, count = shifted_grid(0.0, 1.0, KFACTOR_STEPS, fraction)
            commands[f"kfactor-g{j}.csv"] = [
                "kfactor", "--dmin", str(KFACTOR_D[0]), "--dmax", str(KFACTOR_D[-1]),
                "--fmin", repr(first), "--fmax", repr(last), "--fsteps", str(count),
            ]

    def check(outputs: dict[str, bytes]) -> list[Item]:
        items = []
        for j in range(len(fractions)):
            for curve in curves:
                out = f"{curve.label}-g{j}.csv"
                items += check_sweep(out, curve, outputs.get(out))
            if kfactor:
                out = f"kfactor-g{j}.csv"
                items += check_kfactor(out, 0.0, outputs.get(out), KFACTOR_D)
        return items

    return Workload(name, True, min_passes, lambda outdir: _run_cli(commands, outdir), check)


BUILDERS: dict[str, Callable[[int], Workload]] = {
    "tables": _tables,
    "hirsch_flat": _hirsch_flat,
    "tlf_curves": lambda seed: _curves("tlf_curves", seed, TLF_CURVES, kfactor=False, min_passes=2),
    "property_curves": lambda seed: _curves("property_curves", seed, PROPERTY_CURVES, kfactor=True, min_passes=1),
}


def build(name: str, seed: int) -> Workload:
    """Build a workload's inputs; the same seed gives the same inputs."""
    return BUILDERS[name](seed)
