import numpy as np
import pytest

from nlact import states, sweep
from nlact.linalg import DensityMatrix, kron, min_eig, partial_trace, partial_transpose
from nlact.rand import haar_unitary
from nlact.states import (
    FamilySpec,
    SIGMA_Y,
    TwirledState,
    h_theta,
    hirsch_state,
    isotropic_state,
    ket0_projector,
    magic_basis,
    max_entangled,
    projector,
    psi_minus,
    twirl_projectors,
    twirl_ranks,
    werner_p_range,
    werner_state,
    wi_state,
)

P_GRID = np.linspace(0.0, 1.0, 50)


def test_wi_pure_limit():
    assert np.max(np.abs(wi_state(1.0).mat - projector(psi_minus()))) < 1e-14


def test_wi_maximally_mixed():
    assert np.max(np.abs(wi_state(0.0).mat - np.eye(4) / 4)) < 1e-15


def test_wi_spectrum_half():
    w = np.linalg.eigvalsh(wi_state(0.5).mat)
    assert abs(w[0] - 0.125) < 1e-14
    assert np.allclose(sorted(w), [0.125, 0.125, 0.125, 0.625], atol=1e-14)


def test_wi_range_errors():
    with pytest.raises(ValueError):
        wi_state(-0.01)
    with pytest.raises(ValueError):
        wi_state(1.01)


def test_werner_d2_matches_wi():
    for p in P_GRID:
        assert np.max(np.abs(werner_state(2, p).mat - wi_state(p).mat)) <= 1e-14


def test_werner_trace_one(rng):
    for _ in range(10):
        d = int(rng.integers(2, 7))
        lo, hi = werner_p_range(d)
        p = float(rng.uniform(lo, hi))
        assert abs(werner_state(d, p).mat.trace() - 1.0) < 1e-12


def test_werner_d3_pure_antisymmetric():
    w = np.linalg.eigvalsh(werner_state(3, 1.0).mat)
    assert np.allclose(sorted(w, reverse=True)[:3], [1 / 3] * 3, atol=1e-13)
    assert np.max(np.abs(w[:6])) < 1e-13


def test_werner_negative_p_allowed():
    lo, _ = werner_p_range(3)
    werner_state(3, lo)  # boundary of the admissible range, no raise
    with pytest.raises(ValueError):
        werner_state(3, lo - 0.01)
    with pytest.raises(ValueError):
        werner_state(1, 0.5)


def test_isotropic_maximally_mixed():
    assert np.max(np.abs(isotropic_state(4, 0.0).mat - np.eye(16) / 16)) < 1e-15


def test_isotropic_fidelity(rng):
    for _ in range(10):
        d = int(rng.integers(2, 7))
        p = float(rng.uniform(0, 1))
        psi = max_entangled(d)
        fid = (psi.conj() @ isotropic_state(d, p).mat @ psi).real
        assert abs(fid - (p + (1 - p) / d**2)) < 1e-12


def test_isotropic_d2_is_singlet_up_to_local_unitary():
    u = kron(np.eye(2), SIGMA_Y)
    rotated = u @ isotropic_state(2, 1.0).mat @ u.conj().T
    assert np.max(np.abs(rotated - projector(psi_minus()))) < 1e-14


def test_isotropic_twirling_invariance(rng):
    for d in (2, 3):
        rho = isotropic_state(d, 0.7)
        for _ in range(5):
            u = haar_unitary(d, rng)
            g = kron(u, u.conj())
            assert np.max(np.abs(g @ rho.mat @ g.conj().T - rho.mat)) < 1e-12


def test_hirsch_recovers_wi():
    for p in P_GRID:
        state = hirsch_state(p, q=0.0)
        assert np.max(np.abs(state.mat - wi_state(p).mat)) <= 1e-14


def test_hirsch_one_parameter_form():
    p = 0.4
    ket0 = np.zeros((2, 2))
    ket0[0, 0] = 1.0
    expected = p * projector(psi_minus()) + (1 - p) * kron(ket0, np.eye(2) / 2)
    assert np.max(np.abs(hirsch_state(p).mat - expected)) < 1e-14


def kron_hirsch(p, q):
    # the Hirsch matrix built factor by factor, as the definition reads
    alice = q * ket0_projector() + (1.0 - q) * np.eye(2) / 2.0
    return p * projector(psi_minus()) + (1.0 - p) * kron(alice, np.eye(2) / 2.0)


def test_hirsch_state_is_the_kron_construction_to_the_bit():
    for p in np.linspace(0.0, 1.0, 21):
        for q in (0.0, 0.3, 0.6, 1.0):
            assert np.array_equal(hirsch_state(p, q).mat, kron_hirsch(p, q)), (p, q)


def test_hirsch_p0_separable():
    rho = hirsch_state(0.0, q=0.7)
    assert min_eig(partial_transpose(rho, 0)) >= -1e-10


def test_hirsch_range_errors():
    with pytest.raises(ValueError):
        hirsch_state(1.2)
    with pytest.raises(ValueError):
        hirsch_state(0.5, q=-0.1)


def test_magic_basis_orthonormal():
    basis = magic_basis()
    gram = np.array([[bi.conj() @ bj for bj in basis] for bi in basis])
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-14


def test_magic_basis_maximally_entangled():
    for vec in magic_basis():
        rho = DensityMatrix(projector(vec), (2, 2))
        red = partial_trace(rho, [0])
        assert np.max(np.abs(red.mat - np.eye(2) / 2)) < 1e-14


def test_magic_basis_first_vector():
    expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.max(np.abs(magic_basis()[0] - expected)) < 1e-15


def test_max_entangled():
    assert np.allclose(max_entangled(2), np.array([1, 0, 0, 1]) / np.sqrt(2))
    for d in range(2, 7):
        psi = max_entangled(d)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-14
        red = partial_trace(DensityMatrix(projector(psi), (d, d)), [0])
        assert np.max(np.abs(red.mat - np.eye(d) / d)) < 1e-14


def test_h_theta_zero_angle():
    w = np.linalg.eigvalsh(h_theta(0.0))
    assert np.allclose(w, [0.0, 0.0, 2.0, 2.0], atol=1e-14)


def test_h_theta_quarter_pi():
    from nlact.states import SIGMA_0, SIGMA_X, SIGMA_Z

    expected = np.real(
        kron(SIGMA_0, SIGMA_0)
        - (kron(SIGMA_X, SIGMA_X) + kron(SIGMA_Z, SIGMA_Z)) / np.sqrt(2)
    )
    assert np.max(np.abs(h_theta(np.pi / 4) - expected)) < 1e-14


def test_h_theta_real_symmetric(rng):
    for _ in range(10):
        h = h_theta(float(rng.uniform(0, 2 * np.pi)))
        assert np.isrealobj(h)
        assert np.max(np.abs(h - h.T)) < 1e-14


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec("wi"),
        FamilySpec("werner", d=3),
        FamilySpec("werner", d=6),
        FamilySpec("isotropic", d=4),
        FamilySpec("isotropic", d=6),
        FamilySpec("hirsch1"),
        FamilySpec("hirsch2", q=0.3),
    ],
)
def test_family_grid_builds_valid_states(spec):
    # DensityMatrix construction enforces Hermiticity/trace/PSD invariants
    for p in P_GRID:
        spec.state(float(p))


def test_family_spec_validation():
    with pytest.raises(ValueError, match="unknown family"):
        FamilySpec("bell")
    with pytest.raises(ValueError, match="two-qubit"):
        FamilySpec("wi", d=3)
    for family in ("wi", "werner", "isotropic", "hirsch1"):
        with pytest.raises(ValueError, match="hirsch2 only"):
            FamilySpec(family, q=0.5)
    FamilySpec("hirsch2", q=0.5)
    # d is an integer: a float, even a whole one, or a bool is rejected at construction
    for d in (2.5, 3.0, True, np.bool_(True), "3"):
        with pytest.raises(ValueError, match="d must be an integer"):
            FamilySpec("werner", d=d)
    with pytest.raises(ValueError, match="d must be an integer"):
        FamilySpec("wi", d=2.0)
    assert FamilySpec("werner", d=np.int64(3)).state(0.5).dims == (3, 3)


def test_twirl_projectors_match_their_definitions():
    for d in (2, 3, 5):
        eye = np.eye(d * d)
        swap = np.array([[float(i % d == j // d and i // d == j % d) for j in range(d * d)] for i in range(d * d)])
        phi = projector(max_entangled(d))
        expected = {"werner": [(eye + swap) / 2, (eye - swap) / 2], "isotropic": [eye - phi, phi]}
        for algebra, pair in expected.items():
            projectors = twirl_projectors(algebra, d)
            assert np.max(np.abs(projectors - np.array(pair))) <= 1e-15
            assert not projectors.flags.writeable
            assert twirl_projectors(algebra, d) is projectors  # cached
    with pytest.raises(ValueError, match="algebra"):
        twirl_projectors("pauli", 2)


def test_twirled_states_declare_their_decomposition():
    # the declared coefficients reproduce the defining formulas of each family
    for d in (2, 3, 4):
        swap_minus = twirl_projectors("werner", d)[1]
        phi = projector(max_entangled(d))
        lo, _ = werner_p_range(d)
        for p in np.linspace(lo, 1.0, 7):
            state = werner_state(d, float(p))
            assert isinstance(state, TwirledState) and state.algebra == "werner"
            direct = 2 * p / (d * (d - 1)) * swap_minus + (1 - p) / d**2 * np.eye(d * d)
            assert np.max(np.abs(state.mat - direct)) <= 1e-15
            assert np.array_equal(state.mat, np.einsum("b,bij->ij", state.coeffs, twirl_projectors("werner", d)))
        for p in np.linspace(0.0, 1.0, 7):
            state = isotropic_state(d, float(p))
            assert state.algebra == "isotropic" and state.dims == (d, d)
            assert np.max(np.abs(state.mat - (p * phi + (1 - p) / d**2 * np.eye(d * d)))) <= 1e-15
    assert wi_state(0.3).coeffs == werner_state(2, 0.3).coeffs
    with pytest.raises(ValueError, match="d must be"):
        isotropic_state(1, 0.5)


def test_twirl_ranks_are_the_projector_traces():
    for d in range(2, 9):
        for algebra in ("werner", "isotropic"):
            traces = np.trace(twirl_projectors(algebra, d), axis1=1, axis2=2)
            assert np.max(np.abs(traces - twirl_ranks(algebra, d))) <= 1e-12
    with pytest.raises(ValueError, match="algebra"):
        twirl_ranks("pauli", 2)
    with pytest.raises(ValueError, match="d must be"):
        twirl_ranks("werner", 1)


def _rejection(build):
    """The first word of the ValueError that ``build()`` raises ("density", "trace", "smallest"), else None."""
    try:
        build()
    except ValueError as exc:
        return str(exc).split()[0]
    return None


@pytest.mark.parametrize("d", range(2, 7))
@pytest.mark.parametrize("algebra", ["werner", "isotropic"])
def test_twirled_state_checks_its_coefficients_as_the_dense_checks(algebra, d):
    # pairs whose trace lies just inside and just outside TRACE_TOL = 1e-12 of 1,
    # with one coefficient just inside and just outside PSD_TOL = 1e-10 below 0,
    # and non-finite ones: the closed-form checks accept exactly the pairs that
    # DensityMatrix's dense checks accept, and reject the others for the same reason
    ranks, projectors = twirl_ranks(algebra, d), twirl_projectors(algebra, d)
    pairs = []
    for trace in (1.0, 1.0 - 2e-12, 1.0 - 5e-13, 1.0 + 5e-13, 1.0 + 2e-12):
        for low in (-2e-10, -5e-11, 0.0, 1e-3 / ranks[0]):
            pairs.append((low, (trace - ranks[0] * low) / ranks[1]))
            pairs.append(((trace - ranks[1] * low) / ranks[0], low))
    for bad in (np.nan, np.inf, -np.inf):
        pairs += [(bad, 0.5 / ranks[1]), (0.5 / ranks[0], bad)]
    reasons = set()
    for coeffs in pairs:
        dense = _rejection(lambda: DensityMatrix(np.einsum("b,bij->ij", coeffs, projectors), (d, d)))
        assert _rejection(lambda: TwirledState(algebra, d, coeffs)) == dense, coeffs
        reasons.add(dense)
    assert reasons == {None, "density", "trace", "smallest"}


@pytest.mark.parametrize("d", range(2, 7))
@pytest.mark.parametrize("algebra", ["werner", "isotropic"])
def test_twirled_state_matrix_is_built_once_through_the_dense_checks(monkeypatch, algebra, d):
    checks = []
    dense_check = DensityMatrix.__post_init__
    monkeypatch.setattr(DensityMatrix, "__post_init__", lambda self: checks.append(1) or dense_check(self))
    spec = FamilySpec(algebra, d)
    state = spec.state(0.5 * spec.p_range()[1])
    assert checks == [] and "mat" not in vars(state)
    mat = state.mat
    assert state.mat is mat and checks == [1]
    assert np.array_equal(mat, np.einsum("b,bij->ij", state.coeffs, twirl_projectors(algebra, d)))


@pytest.mark.parametrize("family", ["werner", "isotropic"])
def test_twirled_tlf_point_builds_no_matrix(monkeypatch, family):
    # a tlf point reads the coefficients only, so its cost does not grow with d
    built, solved = [], []
    monkeypatch.setattr(states, "twirl_projectors", lambda *args: built.append(args) or twirl_projectors(*args))
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args: solved.append(1) or eigvalsh(*args))
    point = sweep.evaluate_point(FamilySpec(family, 8), "tlf", 0.9)
    assert point.error is None and point.indicator is True
    assert built == [] and solved == []
