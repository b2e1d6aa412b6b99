"""Acceptance suite: every threshold-table and property-suite criterion at its
stated tolerance, one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
SDP-backed criteria take a few minutes in total.
"""

import math
import time

import numpy as np

from nlact.activation import ancilla_R, verify_ancilla
from nlact.linalg import DensityMatrix, min_eig, partial_transpose_mat
from nlact.measures import (
    chsh_M,
    concurrence,
    eof,
    fef2,
    hidden_nonlocality,
    k_factor,
    popescu_threshold,
    pure_eof,
)
from nlact.rand import random_density, random_pure, random_separable
from nlact.sdp import SdpProblem, solve
from nlact.states import FamilySpec, projector, wi_state
from nlact.sweep import evaluate_point, find_threshold

RNG_SEED = 987654321


def _report(criterion: str, body) -> None:
    try:
        body()
    except AssertionError as exc:
        print(f"FAIL {criterion}: {exc}")
        raise
    print(f"PASS {criterion}")


def test_criterion_1_wi_thresholds():
    def body():
        start = time.monotonic()
        spec = FamilySpec("wi")
        p_e = find_threshold(spec, "eof", (0.25, 0.45)).threshold
        assert abs(p_e - 0.3333) <= 5e-4, f"p_E={p_e}"
        p_sa = find_threshold(spec, "sa", (0.25, 0.45)).threshold
        assert abs(p_sa - 0.3333) <= 5e-4, f"p_SA={p_sa}"
        p_nl = find_threshold(spec, "chsh", (0.6, 0.8)).threshold
        assert abs(p_nl - 0.7071) <= 5e-4, f"p_NL={p_nl}"
        closed_form_elapsed = time.monotonic() - start

        start = time.monotonic()
        p_tlf = find_threshold(spec, "tlf", (0.6, 0.72)).threshold
        sdp_elapsed = time.monotonic() - start
        assert abs(p_tlf - 0.6569) <= 2e-3, f"p_TLF={p_tlf}"
        assert closed_form_elapsed < 60.0, f"closed forms took {closed_form_elapsed:.1f}s"
        assert sdp_elapsed < 300.0, f"SDP bisection took {sdp_elapsed:.1f}s"

    _report("criterion 1 (two-qubit Werner thresholds)", body)


WERNER_TLF = {2: 0.6569, 3: 0.6360, 4: 0.6247, 5: 0.6174, 6: 0.6127}


def test_criterion_2_werner_tlf_column():
    def body():
        start = time.monotonic()
        for d, expected in WERNER_TLF.items():
            spec = FamilySpec("werner", d=d)
            got = find_threshold(spec, "tlf", (expected - 0.04, expected + 0.04)).threshold
            assert abs(got - expected) <= 5e-3, f"d={d}: p_TLF={got} vs {expected}"
        elapsed = time.monotonic() - start
        assert elapsed <= 7200.0, f"column took {elapsed:.0f}s"

    _report("criterion 2 (Werner activation column)", body)


WERNER_FILTERED = {3: 0.7630, 4: 0.7837, 5: 0.7944, 6: 0.8009}


def test_criterion_3_werner_filtered_chsh():
    def body():
        for d, expected in WERNER_FILTERED.items():
            closed = popescu_threshold(d)
            assert abs(closed - expected) <= 1e-4, f"d={d}: closed form {closed}"
            spec = FamilySpec("werner", d=d)
            bisected = find_threshold(
                spec, "hn", (expected - 0.02, expected + 0.02), tol=2e-7
            ).threshold
            assert abs(bisected - expected) <= 1e-4, f"d={d}: bisected {bisected}"
            assert abs(bisected - closed) <= 1e-6, f"d={d}: |bisected-closed|={abs(bisected - closed)}"

    _report("criterion 3 (Werner filtered-CHSH thresholds)", body)


ISOTROPIC_TLF = {2: 0.6569, 3: 0.5606, 4: 0.4890, 5: 0.4337, 6: 0.3895}


def test_criterion_4_isotropic_tlf_column():
    def body():
        for d, expected in ISOTROPIC_TLF.items():
            spec = FamilySpec("isotropic", d=d)
            got = find_threshold(spec, "tlf", (expected - 0.04, expected + 0.04)).threshold
            assert abs(got - expected) <= 5e-3, f"d={d}: p_TLF={got} vs {expected}"

    _report("criterion 4 (Isotropic activation column)", body)


ISOTROPIC_CGLMP = {2: 0.7071, 3: 0.6961, 4: 0.6905, 5: 0.6872, 6: 0.6849}


def test_criterion_5_isotropic_cglmp_thresholds():
    def body():
        for d, expected in ISOTROPIC_CGLMP.items():
            spec = FamilySpec("isotropic", d=d)
            got = find_threshold(spec, "cglmp", (expected - 0.03, expected + 0.03)).threshold
            assert abs(got - expected) <= 2e-3, f"d={d}: p_NL={got} vs {expected}"

    _report("criterion 5 (Isotropic CGLMP thresholds)", body)


def test_criterion_6_hirsch_row():
    def body():
        spec = FamilySpec("hirsch1")
        assert evaluate_point(spec, "hn", 0.01).indicator, "no hidden nonlocality at p=0.01"
        p_tlf = find_threshold(spec, "tlf", (0.12, 0.22)).threshold
        assert abs(p_tlf - 0.1716) <= 5e-3, f"p_TLF={p_tlf}"
        p_sa = find_threshold(spec, "sa", (0.25, 0.45)).threshold
        assert abs(p_sa - 0.3333) <= 5e-4, f"p_SA={p_sa}"
        p_nl = find_threshold(spec, "chsh", (0.6, 0.8)).threshold
        assert abs(p_nl - 0.7071) <= 5e-4, f"p_NL={p_nl}"

    _report("criterion 6 (Hirsch one-parameter row)", body)


def test_criterion_7_ancilla_certificate():
    def body():
        rho = ancilla_R()
        assert abs(rho.mat.trace().real - 1.0) <= 1e-10, "trace"
        assert min_eig(rho.mat) >= -1e-10, "PSD"
        pt = partial_transpose_mat(rho.mat, rho.dims, (0, 1))
        assert min_eig(pt) >= -1e-10, "PPT"
        for p in np.linspace(0.6569, 1.0, 22)[1:-1]:
            value, activated = verify_ancilla(wi_state(float(p)), rho)
            assert activated, f"trace value {value} not negative at p={p}"

    _report("criterion 7 (fixed-ancilla activation certificate)", body)


def test_criterion_8_property_suites():
    def body():
        rng = np.random.default_rng(RNG_SEED)

        violations = 0
        chsh_hits = 0
        for i in range(1000):
            rho = random_density((2, 2), rng, rank=1 + i % 4)
            m = chsh_M(rho)
            assert -1e-10 <= m <= 2.0 + 1e-9, f"Tsirelson violated: M={m}"
            if m > 1.0:
                chsh_hits += 1
                if fef2(rho) <= 0.5:
                    violations += 1
        assert violations == 0, f"{violations} CHSH-but-not-teleportation states"
        assert chsh_hits >= 50, f"only {chsh_hits} CHSH-violating samples"

        for _ in range(500):
            rho = random_separable((2, 2), rng)
            assert concurrence(rho) <= 1e-10, "separable state with concurrence"
            assert chsh_M(rho) <= 1.0 + 1e-9, "separable state violating CHSH"
            assert fef2(rho) <= 0.5 + 1e-9, "separable state teleportation-useful"
            assert not hidden_nonlocality(rho).indicator, "separable state with HN"

        for _ in range(500):
            psi = random_pure(4, rng)
            delta = abs(pure_eof(psi, (2, 2)) - eof(DensityMatrix(projector(psi), (2, 2))))
            assert delta <= 1e-9, f"pure EoF mismatch {delta}"

        # solver objective can never undercut the PSD-only relaxation
        solves = []
        for _ in range(20):
            g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            solves.append(SdpProblem.from_cost(g + g.conj().T, dims=(2, 2, 2, 2), t1_split=2))
        for p in np.linspace(0.1, 0.9, 5):
            solves.append(SdpProblem.from_cost(-wi_state(float(p)).mat, dims=(2, 2), t1_split=1))
        for problem in solves:
            sol = solve(problem)
            assert sol.objective >= min_eig(problem.cost) - 1e-8, "objective below spectral bound"

    _report("criterion 8 (property suites)", body)


def test_criterion_9_k_factor():
    def body():
        def scan_oracle(d, f, kmax=10**6):
            c = 4.0 / (math.exp(4.0) * math.log(d) ** 2)
            for k in range(1, kmax):
                if c * (f * d) ** k / k**2 > 1.0:
                    return k
            return None

        assert k_factor(2, 0.75) == scan_oracle(2, 0.75) == 20
        assert k_factor(2, 1.0) == scan_oracle(2, 1.0) == 10
        for d in range(2, 7):
            previous = None
            for f in np.linspace(1.0 / d + 1e-9, 1.0, 100):
                k = k_factor(d, float(f))
                assert k is not None, f"no finite k at d={d}, f={f}"
                if previous is not None:
                    assert k <= previous, f"k not monotone at d={d}, f={f}"
                previous = k

    _report("criterion 9 (superactivation copy count)", body)
