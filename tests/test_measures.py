import math

import numpy as np
import pytest

from nlact.linalg import DensityMatrix, kron
from nlact.measures import (
    binary_entropy,
    cglmp_value,
    chsh_M,
    chsh_value,
    concurrence,
    correlation_matrix,
    eof,
    fef2,
    fef_isotropic,
    hidden_nonlocality,
    k_factor,
    popescu_filter,
    popescu_threshold,
    pure_eof,
    reference_bounds,
    sa_value,
)
from nlact.rand import haar_unitary, random_density, random_pure, random_separable
from nlact.states import (
    hirsch_state,
    isotropic_state,
    max_entangled,
    projector,
    psi_minus,
    werner_p_range,
    werner_state,
    wi_state,
)

SINGLET = DensityMatrix(projector(psi_minus()), (2, 2))
MIXED = DensityMatrix(np.eye(4) / 4, (2, 2))

# independently evaluated closed forms (30-digit arithmetic)
EOF_WI_HALF = 0.117618873770917911667680827942
CHSH_WI_09 = 0.705178813552037904398425608573


def test_binary_entropy_edges():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-15


def test_concurrence_singlet_and_mixed():
    assert abs(concurrence(SINGLET) - 1.0) < 1e-10
    assert concurrence(MIXED) == 0.0


def test_concurrence_wi_closed_form():
    for p in np.linspace(0, 1, 21):
        expected = max(0.0, (3 * p - 1) / 2)
        assert abs(concurrence(wi_state(p)) - expected) < 1e-10


def test_concurrence_requires_two_qubits(rng):
    with pytest.raises(ValueError, match="two-qubit"):
        concurrence(random_density((3, 3), rng))


def test_eof_limits():
    assert abs(eof(SINGLET) - 1.0) < 1e-10
    assert eof(MIXED) == 0.0
    assert abs(eof(wi_state(0.5)) - EOF_WI_HALF) < 1e-12


def test_pure_eof():
    product = np.zeros(4)
    product[0] = 1.0
    assert pure_eof(product, (2, 2)) == 0.0
    for d in range(2, 7):
        assert abs(pure_eof(max_entangled(d), (d, d)) - math.log2(d)) < 1e-12
    with pytest.raises(ValueError, match="normalized"):
        pure_eof(np.array([1.0, 1.0, 0.0, 0.0]), (2, 2))


def test_pure_eof_rejects_one_subsystem():
    with pytest.raises(ValueError, match="two dims"):
        pure_eof(np.ones(4) / 2, (4,))


def test_pure_eof_cross_check(rng):
    for _ in range(50):
        psi = random_pure(4, rng)
        rho = DensityMatrix(projector(psi), (2, 2))
        assert abs(pure_eof(psi, (2, 2)) - eof(rho)) < 1e-9


def test_correlation_matrix_singlet():
    t = correlation_matrix(SINGLET)
    assert abs(t[0, 0] - 1.0) < 1e-14
    assert np.max(np.abs(t[1:, 1:] - np.diag([-1.0, -1.0, -1.0]))) < 1e-14


def test_correlation_matrix_mixed():
    t = correlation_matrix(MIXED)
    assert abs(t[0, 0] - 1.0) < 1e-14
    assert np.max(np.abs(t[1:, 1:])) < 1e-14


def test_correlation_matrix_product_outer(rng):
    a = random_density((2,), rng)
    b = random_density((2,), rng)
    rho = DensityMatrix(kron(a.mat, b.mat), (2, 2))
    t = correlation_matrix(rho)
    assert np.max(np.abs(t[1:, 1:] - np.outer(t[1:, 0], t[0, 1:]))) < 1e-12


def test_chsh_M_known_values():
    assert abs(chsh_M(SINGLET) - 2.0) < 1e-12
    assert chsh_M(MIXED) < 1e-14
    for p in np.linspace(0, 1, 21):
        assert abs(chsh_M(wi_state(p)) - 2 * p * p) < 1e-12
    assert abs(chsh_M(wi_state(0.9)) - 1.62) < 1e-12


def test_chsh_value():
    assert abs(chsh_value(SINGLET) - 1.0) < 1e-12
    assert chsh_value(wi_state(0.5)) == 0.0
    assert abs(chsh_value(wi_state(0.9)) - CHSH_WI_09) < 1e-12


def test_hidden_nonlocality_wi_matches_chsh():
    for p in (0.3, 0.6, 0.9):
        hn = hidden_nonlocality(wi_state(p))
        assert abs(hn.m_prime - 2 * p * p) < 1e-10
        assert hn.indicator == (2 * p * p > 1)


def test_hidden_nonlocality_mixed_false():
    hn = hidden_nonlocality(MIXED)
    assert not hn.indicator
    assert hn.value == 0.0


def test_hidden_nonlocality_hirsch_onset():
    hn = hidden_nonlocality(hirsch_state(0.01))
    assert hn.indicator
    assert abs(hn.m_prime - 1.01) < 1e-9


def test_hidden_nonlocality_hirsch_value():
    # for the one-parameter family M' = 1 + p, so the entropy scaling is
    # h((1 + sqrt(1-p))/2); value at p = 0.36 from 30-digit arithmetic
    hn = hidden_nonlocality(hirsch_state(0.36))
    assert abs(hn.m_prime - 1.36) < 1e-10
    assert abs(hn.value - 0.468995593589281221253589330383) < 1e-10


@pytest.mark.parametrize("p", [1e-13, 1e-12, 1e-11, 3e-11, 5e-4, 0.05, 0.2514, 0.3, 0.41])
def test_hidden_nonlocality_hirsch_is_one_plus_p(p):
    # C has a defective double eigenvalue here, which rounding splits; the
    # Wootters values read M' = 1 + p to the last bit, down to the product corner
    hn = hidden_nonlocality(hirsch_state(p))
    assert abs(hn.m_prime - (1.0 + p)) <= 1e-15
    assert hn.indicator


# (l1 + l2)/l0 of C in 60-digit arithmetic on the same float matrices
@pytest.mark.parametrize("p,m_prime", [(1e-4, 0.7539237183189972), (1e-3, 0.9154855624920667)])
def test_hidden_nonlocality_biased_hirsch(p, m_prime):
    assert abs(hidden_nonlocality(hirsch_state(p, 0.999999)).m_prime - m_prime) <= 1e-12


def test_hidden_nonlocality_matches_correlation_spectrum(rng):
    # M' = (a^2 + b^2)/s^2 from the Wootters values is (l1 + l2)/l0 of C = eta T eta T^T
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    for _ in range(50):
        rho = random_density((2, 2), rng)
        t = correlation_matrix(rho)
        lam = np.sort(np.linalg.eigvals(eta @ t @ eta @ t.T).real)[::-1]
        assert abs(hidden_nonlocality(rho).m_prime - (lam[1] + lam[2]) / lam[0]) <= 1e-10


def test_hidden_nonlocality_degenerate():
    # at the product corner rho rho_tilde = 0: M' reads its supremum over filters, 1
    for rho in (hirsch_state(0.0), DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))):
        assert hidden_nonlocality(rho) == (1.0, 0.0, False, 0.0)


def test_fef2_known_values():
    assert abs(fef2(SINGLET) - 1.0) < 1e-12
    assert abs(fef2(MIXED) - 0.25) < 1e-12
    for p in np.linspace(0, 1, 21):
        assert abs(fef2(wi_state(p)) - (1 + 3 * p) / 4) < 1e-12


def test_sa_value():
    use = sa_value(SINGLET)
    assert abs(use.fidelity - 1.0) < 1e-12
    assert abs(use.value - 1 / 3) < 1e-12
    assert use.indicator


def test_sa_value_separable_not_useful(rng):
    for _ in range(20):
        a = random_density((2,), rng)
        b = random_density((2,), rng)
        rho = DensityMatrix(kron(a.mat, b.mat), (2, 2))
        assert not sa_value(rho).indicator


def test_sa_hirsch_crossing():
    assert not sa_value(hirsch_state(1 / 3 - 1e-3)).indicator
    assert sa_value(hirsch_state(1 / 3 + 1e-3)).indicator


def test_fef_isotropic_boundary():
    for d in range(2, 7):
        assert abs(fef_isotropic(d, 1.0 / (d + 1)) - 1.0 / d) < 1e-14
        assert fef_isotropic(d, 1.0) == 1.0


def test_fef_isotropic_matches_fef2():
    for p in np.linspace(0, 1, 50):
        assert abs(fef_isotropic(2, p) - fef2(isotropic_state(2, p))) < 1e-10


def test_fef_isotropic_errors():
    with pytest.raises(ValueError):
        fef_isotropic(1, 0.5)
    with pytest.raises(ValueError):
        fef_isotropic(3, 1.5)


def _k_scan_oracle(d, f, kmax=10**6):
    c = 4.0 / (math.exp(4.0) * math.log(d) ** 2)
    for k in range(1, kmax):
        if c * (f * d) ** k / k**2 > 1.0:
            return k
    return None


def test_k_factor_boundary():
    assert k_factor(2, 0.5) is None
    assert k_factor(3, 1 / 3) is None


@pytest.mark.parametrize("d,f", [(2, 0.75), (2, 1.0), (3, 0.5), (3, 0.9), (4, 0.3), (5, 0.9), (6, 0.2)])
def test_k_factor_matches_scan(d, f):
    assert k_factor(d, f) == _k_scan_oracle(d, f)


def test_k_factor_monotone_small():
    for d in (2, 3):
        prev = None
        for f in np.linspace(1 / d + 1e-6, 1.0, 30):
            k = k_factor(d, float(f))
            assert k is not None
            if prev is not None:
                assert k <= prev
            prev = k


POPESCU_EXPECTED = {3: 0.7630, 4: 0.7837, 5: 0.7944, 6: 0.8009}


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_popescu_threshold_matches_paper(d):
    assert abs(popescu_threshold(d) - POPESCU_EXPECTED[d]) < 1e-4


def test_popescu_filter_straddles_threshold():
    p_star = popescu_threshold(6)
    below = popescu_filter(6, p_star - 1e-3)
    above = popescu_filter(6, p_star + 1e-3)
    assert chsh_M(below.filtered) <= 1.0
    assert chsh_M(above.filtered) > 1.0


def test_popescu_filter_d2_identity():
    for p in (0.2, 0.8):
        out = popescu_filter(2, p)
        assert np.max(np.abs(out.filtered.mat - wi_state(p).mat)) < 1e-12


@pytest.mark.parametrize("d", range(2, 9))
def test_popescu_filter_is_the_normalized_werner_block(d):
    # the reference slices the {|0>,|1>} x {|0>,|1>} block out of the d^2-sided state
    idx = [i * d + j for i in range(2) for j in range(2)]
    lo, hi = werner_p_range(d)
    for p in np.linspace(lo, hi, 11):  # both ends; lo < 0
        block = werner_state(d, p).mat[np.ix_(idx, idx)]
        weight = block.trace().real
        out = popescu_filter(d, p)
        assert np.max(np.abs(out.filtered.mat - block / weight)) <= 1e-15
        assert abs(out.weight - weight) <= 1e-15
    for p in (lo - 1e-6, hi + 1e-6):
        with pytest.raises(ValueError, match=f"werner d={d} requires"):
            popescu_filter(d, p)


def test_cglmp_singlet_chsh_settings():
    # CHSH-optimal Fourier phases for the singlet: the Tsirelson point
    value = cglmp_value(SINGLET, (0.0, -0.5, -0.75, -1.25))
    assert abs(value - 2 * math.sqrt(2)) < 1e-12


def test_cglmp_max_entangled_default():
    value = cglmp_value(isotropic_state(2, 1.0))
    assert abs(value - 2 * math.sqrt(2)) < 1e-12


def test_cglmp_isotropic_thresholds():
    assert abs(2.0 / cglmp_value(isotropic_state(2, 1.0)) - 0.7071) < 2e-4
    assert abs(2.0 / cglmp_value(isotropic_state(3, 1.0)) - 0.6961) < 2e-4


def test_cglmp_affine_in_p():
    ps = np.linspace(0, 1, 20)
    vals = np.array([cglmp_value(isotropic_state(3, float(p))) for p in ps])
    coef = np.polyfit(ps, vals, 1)
    assert np.max(np.abs(np.polyval(coef, ps) - vals)) <= 1e-9


def test_cglmp_unsupported_dimension(rng):
    # the inequality holds for every d >= 2 and needs a d x d state
    with pytest.raises(ValueError, match="d >= 2"):
        cglmp_value(DensityMatrix(np.eye(1), (1, 1)))
    with pytest.raises(ValueError, match="d x d"):
        cglmp_value(random_density((2, 3), rng))


def test_cglmp_rejects_one_subsystem():
    with pytest.raises(ValueError, match="d x d"):
        cglmp_value(DensityMatrix(np.eye(4) / 4, (4,)))


@pytest.mark.parametrize("d", range(2, 13))
def test_cglmp_max_entangled_closed_form(d):
    # I_d = 4d sum_k (1 - 2k/(d-1)) (q_k - q_{-k-1}), q_k = 1 / (2 d^3 sin^2(pi (k + 1/4) / d))
    # (Collins, Gisin, Linden, Massar & Popescu, PRL 88, 040404 (2002))
    def q(k):
        return 1.0 / (2.0 * d**3 * math.sin(math.pi * (k + 0.25) / d) ** 2)

    closed = 4.0 * d * sum((1.0 - 2.0 * k / (d - 1)) * (q(k) - q(-k - 1)) for k in range(d // 2))
    assert abs(2.0 / cglmp_value(isotropic_state(d, 1.0)) - 2.0 / closed) <= 1e-15


def test_reference_bounds():
    werner4 = reference_bounds("werner", 4)
    assert abs(werner4["p_E"].value - 0.2) < 1e-12
    assert abs(werner4["p_L"].value - 0.75) < 1e-12
    iso3 = reference_bounds("isotropic", 3)
    assert abs(iso3["p_L"].value - 5 / 12) < 1e-12
    wi = reference_bounds("wi")
    assert wi["p_L"].value == 0.6595
    assert wi["p_NL_refined"].value == 0.7054
    with pytest.raises(ValueError, match="unknown family"):
        reference_bounds("ghz")


def test_tsirelson_bound_sample(rng):
    for i in range(200):
        rho = random_density((2, 2), rng, rank=1 + i % 4)
        m = chsh_M(rho)
        assert -1e-10 <= m <= 2.0 + 1e-9


def test_filter_dominance(rng):
    # the identity filter is admissible, so CHSH violation implies the
    # filtered criterion fires as well
    checked = 0
    for i in range(300):
        rho = random_density((2, 2), rng, rank=1 + i % 3)
        if chsh_M(rho) > 1.0:
            assert hidden_nonlocality(rho).indicator
            checked += 1
    assert checked > 20


def test_local_unitary_invariance(rng):
    for _ in range(20):
        rho = random_density((2, 2), rng, rank=2)
        u = kron(haar_unitary(2, rng), haar_unitary(2, rng))
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T, (2, 2))
        assert abs(chsh_M(rho) - chsh_M(rotated)) < 1e-9
        assert abs(eof(rho) - eof(rotated)) < 1e-9
        assert abs(fef2(rho) - fef2(rotated)) < 1e-9
        assert abs(hidden_nonlocality(rho).m_prime - hidden_nonlocality(rotated).m_prime) < 1e-9


def test_separable_safety_sample(rng):
    for _ in range(60):
        rho = random_separable((2, 2), rng)
        assert concurrence(rho) <= 1e-10
        assert chsh_M(rho) <= 1.0 + 1e-9
        assert fef2(rho) <= 0.5 + 1e-9
        assert not hidden_nonlocality(rho).indicator
