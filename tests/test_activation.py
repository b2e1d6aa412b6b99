import dataclasses

import numpy as np
import pytest

from nlact import activation
from nlact.activation import (
    ACTIVATION_TOL,
    DEFAULT_OPTIONS,
    ancilla_R,
    bisection_options,
    build_cost,
    sigma_min,
    verify_ancilla,
)
from nlact.linalg import DensityMatrix, min_eig, partial_transpose_mat, permute_systems
from nlact.rand import random_density, random_separable
from nlact.sdp import (
    IPM_MAX_SIDE,
    VERTEX_TOL,
    SdpLayout,
    SdpOptions,
    SdpProblem,
    _interior_point,
    _solve,
    solve,
)
from nlact.states import ParityState, h_theta, hirsch_state, isotropic_state, werner_state, wi_state
from test_sdp import FAMILY_PIVOTS, HIRSCH_TRAIL
from test_states import kron_hirsch


def _r_curve(p):
    # closed-form trace of the Pauli-string ancilla against the WI cost
    return (1.0 - np.sqrt(2.0) / 3.0 - p * (1.0 + np.sqrt(2.0)) / 3.0) / 4.0


def test_build_cost_shapes():
    problem = build_cost(wi_state(0.5))
    assert problem.cost.shape == (16, 16)
    assert problem.layout.dims == (2, 2, 2, 2)
    assert problem.layout.t1_split == 2
    problem = build_cost(isotropic_state(6, 0.5))
    assert problem.cost.shape == (144, 144)
    assert problem.layout.dims == (6, 2, 6, 2)


def test_build_cost_real_symmetric_for_families():
    for tau in (wi_state(0.7), isotropic_state(3, 0.4)):
        cost = build_cost(tau).cost
        assert np.max(np.abs(cost.imag)) == 0.0
        assert np.max(np.abs(cost - cost.conj().T)) < 1e-12


def test_build_cost_rejects_non_bipartite(rng):
    with pytest.raises(ValueError, match="bipartite"):
        build_cost(random_density((2, 2, 2), rng))


def test_cost_permutation_consistency(rng):
    # evaluating the permuted cost on rho equals evaluating the natural-order
    # cost on the inversely permuted rho
    tau = wi_state(0.8)
    problem = build_cost(tau)
    rho = random_density((2, 2, 2, 2), rng)
    value = np.trace(rho.mat @ problem.cost).real
    from nlact.linalg import kron
    from nlact.states import h_theta

    natural = kron(tau.mat.T, h_theta(np.pi / 4))
    rho_natural = permute_systems(rho, (0, 2, 1, 3))  # canonical -> natural order
    value2 = np.trace(rho_natural.mat @ natural).real
    assert abs(value - value2) < 1e-12


def test_sigma_min_wi_nonlocal_side():
    result = sigma_min(wi_state(0.9))
    assert result.activated
    assert result.sigma < 0
    assert result.witness.status == "converged"


def test_sigma_min_wi_separable_side():
    result = sigma_min(wi_state(0.3))
    assert not result.activated
    assert result.sigma >= -ACTIVATION_TOL


def test_sigma_min_isotropic_d4():
    result = sigma_min(isotropic_state(4, 0.6))
    assert result.activated
    assert result.sigma < 0


def test_ancilla_R_feasible():
    rho = ancilla_R()
    assert rho.dims == (2, 2, 2, 2)
    assert abs(rho.mat.trace().real - 1.0) < 1e-14
    assert min_eig(rho.mat) >= -1e-10
    pt = partial_transpose_mat(rho.mat, rho.dims, (0, 1))
    assert min_eig(pt) >= -1e-10


def test_verify_ancilla_against_closed_form():
    rho = ancilla_R()
    for p in np.linspace(0.0, 1.0, 11):
        value, activated = verify_ancilla(wi_state(float(p)), rho)
        assert abs(value - _r_curve(p)) < 1e-12
        assert activated == (value < 0)


def test_verify_ancilla_key_points():
    rho = ancilla_R()
    assert verify_ancilla(wi_state(0.66), rho)[1]
    assert verify_ancilla(wi_state(0.99), rho)[1]
    value, activated = verify_ancilla(wi_state(0.3), rho)
    assert not activated and value >= 0


def test_verify_ancilla_dims_mismatch(rng):
    with pytest.raises(ValueError, match="dims"):
        verify_ancilla(wi_state(0.5), random_density((2, 2), rng))


def test_sdp_lower_bounds_ancilla_value():
    # the optimum cannot exceed the value of any fixed feasible point
    rho = ancilla_R()
    for p in np.linspace(0.0, 1.0, 11):
        fixed, _ = verify_ancilla(wi_state(float(p)), rho)
        result = sigma_min(wi_state(float(p)))
        assert result.sigma <= fixed + 1e-6


def test_separable_inputs_never_certify(rng):
    # tensoring and filtering cannot create nonlocality out of separable
    # inputs, so the relaxation must stay non-negative on them
    for _ in range(200):
        tau = random_separable((2, 2), rng)
        result = sigma_min(tau, bisection_options())
        assert not result.activated
        assert result.sigma >= -1e-5


# paper p_TLF for each twirl-invariant input; the grid straddles it
_TWIRLED = [
    ("wi", 2, 0.6569),
    ("werner", 2, 0.6569),
    ("werner", 3, 0.6360),
    ("werner", 4, 0.6247),
    ("isotropic", 2, 0.6569),
    ("isotropic", 3, 0.5606),
    ("isotropic", 4, 0.4890),
]


def _twirled_state(family, d, p):
    if family == "wi":
        return wi_state(p)
    return werner_state(d, p) if family == "werner" else isotropic_state(d, p)


def _assert_block_matches_dense(problem):
    """Solve a problem in its block form and densely, check that they agree, return `activated`.

    Eight scalar blocks take the simplex, as `sigma_min` does.
    """
    scalar = problem.costs.shape[-1] == 1
    block = solve(problem)
    dense = solve(SdpProblem.from_cost(problem.cost, problem.layout.dims, problem.layout.t1_split, problem.options))
    activated = [s.status in ("converged", "decided") and s.objective < -ACTIVATION_TOL for s in (block, dense)]
    assert activated[0] == activated[1]
    both_interior_point = problem.cost.shape[0] <= IPM_MAX_SIDE and not np.any(problem.cost.imag)
    if both_interior_point and scalar:
        # the simplex's optimal vertex: within the dense interior-point loop's
        # certified interval, within a few pivots
        assert block.iterations <= FAMILY_PIVOTS
        for bound in (block.objective_lb, block.objective):
            assert dense.objective_lb - 1e-12 <= bound <= dense.objective + 1e-12
    elif both_interior_point:
        # both sides run the interior-point loop, whose block iterates are the dense ones
        assert block.status == dense.status
        assert block.iterations == dense.iterations
        assert abs(block.objective - dense.objective) <= 1e-9
        assert abs(block.objective_lb - dense.objective_lb) <= 1e-9
    else:
        # the dense side (complex, or n > 16) runs the splitting loop: the certified intervals overlap
        assert max(block.objective_lb, dense.objective_lb) <= min(block.objective, dense.objective)
    assert block.minimizer.dims == dense.minimizer.dims
    assert block.residuals["ppt_slack"] <= 1e-12
    return activated[0]


@pytest.mark.parametrize("family,d,p_tlf", _TWIRLED)
@pytest.mark.parametrize("options", [bisection_options(), SdpOptions(tol_objective=1e-7)], ids=["sign", "gap"])
def test_block_form_matches_dense(family, d, p_tlf, options):
    indicators = []
    for offset in (-0.02, -0.002, 0.002, 0.02):
        problem = build_cost(_twirled_state(family, d, p_tlf + offset), options)
        assert problem.costs.shape == (8, 1, 1)
        indicators.append(_assert_block_matches_dense(problem))
    assert not indicators[0] and indicators[-1]


def test_block_form_multiplicities():
    # eight scalar blocks on P_b x B_k: Tr P_b for each of the four Bell projectors B_k
    d = 5
    werner = build_cost(werner_state(d, 0.6))
    assert werner.layout.mult.tolist() == [d * (d + 1) / 2] * 4 + [d * (d - 1) / 2] * 4
    assert np.allclose(werner.layout.pt_map @ werner.layout.adjoint, np.eye(8))
    isotropic = build_cost(isotropic_state(d, 0.6))
    assert isotropic.layout.mult.tolist() == [d * d - 1] * 4 + [1] * 4
    assert np.allclose(isotropic.layout.pt_map, werner.layout.adjoint)
    # the ends of the range stay in their family's algebra: 1/d^2 is also Werner-invariant
    for d in (2, 3, 4):
        assert build_cost(isotropic_state(d, 0.0)).layout.mult.tolist() == [d * d - 1] * 4 + [1] * 4
    # the multiplicities are the traces of the dense projectors P_b x B_k
    problem = build_cost(werner_state(3, 0.6))
    assert problem.layout.dims == (3, 2, 3, 2)
    traces = [np.trace(problem.layout.dense(np.eye(8)[b][:, None, None])).real for b in range(8)]
    assert np.allclose(traces, problem.layout.mult)


def test_twirled_pt_maps_are_shared_and_read_only():
    # a layout depends on its form and dims only: one layout for every p, and
    # every problem of the form shares its read-only pt_map and projectors
    forms = (lambda p: werner_state(4, p), lambda p: isotropic_state(4, p), hirsch_state, _plain_hirsch)
    for form in forms:
        first, second = (build_cost(form(p)) for p in (0.3, 0.9))
        assert first.layout is second.layout
        for array in (first.layout.pt_map, *(projectors for projectors, _ in first.layout.factors)):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        activation._BELL_H[0] = 0.0


@pytest.mark.parametrize("family,d", [("wi", 2), ("werner", 3), ("werner", 6), ("isotropic", 3), ("isotropic", 6)])
def test_lp_vertex_bounds_sigma_on_both_sides(family, d):
    # the simplex's minimizer at p = 1, its optimal vertex, is feasible, so its
    # line bounds sigma above at every p, as a search's settled points take
    # it (`SdpProblem.value`); each p's own solve bounds sigma below.  The
    # reference is the matrix interior-point loop
    top = sigma_min(_twirled_state(family, d, 1.0)).witness
    layout, vertex = top.problem.layout, top.blocks.ravel()
    assert np.min(np.concatenate([vertex, layout.pt_map @ vertex])) >= -VERTEX_TOL
    assert abs(layout.mult @ vertex - 1.0) <= 1e-12
    assert top.objective == top.problem.value(top)
    for p in np.linspace(0.0, 1.0, 11):
        problem = build_cost(_twirled_state(family, d, float(p)), SdpOptions(tol_objective=1e-10))
        tight = _solve(problem, _interior_point)
        assert problem.value(top) >= tight.objective_lb - 1e-12, p
        assert solve(problem).objective_lb <= tight.objective + 1e-12, p
    # at p = 1 the vertex is optimal: both bounds meet
    assert top.objective - top.objective_lb <= 1e-15


def test_bisection_options_is_the_sign_only_form():
    assert bisection_options() == dataclasses.replace(DEFAULT_OPTIONS, objective_cut=-ACTIVATION_TOL)
    budget = SdpOptions(max_iters=123, tol_objective=1e-3)
    assert bisection_options(budget) == dataclasses.replace(budget, objective_cut=-ACTIVATION_TOL)
    # a cut that is already set is kept
    cut = SdpOptions(objective_cut=0.5)
    assert bisection_options(cut) is cut


def test_block_form_reproduces_dense_cost():
    for tau in (werner_state(3, 0.4), isotropic_state(4, 0.7), wi_state(0.2)):
        problem = build_cost(tau)
        assert np.max(np.abs(problem.cost - activation._dense_cost(tau))) < 1e-14


def test_problem_rejects_mismatched_blocks():
    problem = build_cost(werner_state(3, 0.5))
    # a projector factor that does not sum to the identity
    (twirl, subsystems), bell = problem.layout.factors
    with pytest.raises(ValueError, match="identity"):
        dataclasses.replace(problem.layout, factors=((np.array([twirl[0], twirl[0]]), subsystems), bell))
    with pytest.raises(ValueError, match="Hermitian"):
        dataclasses.replace(problem, costs=problem.costs + 1j)


def test_non_invariant_inputs_get_bell_form(rng):
    perturbed = werner_state(3, 0.5).mat.copy()
    perturbed[0, 1] += 1e-9
    perturbed[1, 0] += 1e-9
    # a twirl- or parity-invariant matrix that does not declare its symmetry is not searched for one
    plain = DensityMatrix(werner_state(3, 0.5).mat, (3, 3))
    for tau in (_plain_hirsch(0.3), random_density((2, 2), rng), DensityMatrix(perturbed, (3, 3)), plain):
        problem = build_cost(tau)
        side = tau.dims[0] * tau.dims[1]
        assert problem.costs.shape == (4, side, side)
        assert problem.layout.mult.tolist() == [1, 1, 1, 1]
        assert np.max(np.abs(problem.cost - activation._dense_cost(tau))) < 1e-14


def _assert_same_certificate(first, second):
    """Two activation results certify the same indicator, with overlapping certified intervals."""
    assert first.activated == second.activated
    for result in (first, second):
        assert result.witness.status in ("converged", "decided")
    assert max(first.witness.objective_lb, second.witness.objective_lb) <= min(first.sigma, second.sigma)


@pytest.mark.parametrize("family,d,p_tlf", [row for row in _TWIRLED if row[1] <= 3])
@pytest.mark.parametrize("options", [bisection_options(), DEFAULT_OPTIONS], ids=["sign", "gap"])
def test_declared_twirl_matches_bell_form(family, d, p_tlf, options):
    # the Bell form of the same matrix is an oracle for the declared coefficients
    for offset in (-0.02, -0.002, 0.002, 0.02):
        tau = _twirled_state(family, d, p_tlf + offset)
        _assert_same_certificate(sigma_min(tau, options), sigma_min(DensityMatrix(tau.mat, tau.dims), options))


@pytest.mark.parametrize("options", [bisection_options(), DEFAULT_OPTIONS], ids=["sign", "gap"])
def test_hirsch_at_q0_matches_wi(options):
    # hirsch_state(p, 0) is the wi matrix; it takes the parity form, wi the twirled one
    for offset in (-0.02, -0.002, 0.002, 0.02):
        p = 0.6569 + offset
        _assert_same_certificate(sigma_min(hirsch_state(p, q=0.0), options), sigma_min(wi_state(p), options))


def test_bell_pt_map():
    # PT over A_q of each Bell projector, in the Bell basis
    bell = build_cost(_plain_hirsch(0.3))
    (projectors, subsystems), = bell.layout.factors
    assert subsystems == (1, 3)
    for b, projector in enumerate(projectors):
        pt = partial_transpose_mat(projector, (2, 2), (0,))
        assert np.max(np.abs(pt - np.einsum("c,cij->ij", bell.layout.pt_map[:, b], projectors))) < 1e-15
    assert np.allclose(bell.layout.pt_map @ bell.layout.adjoint, np.eye(4))


def _plain_hirsch(p, q=1.0):
    # the Hirsch matrix with no declared parity: the Bell form, the parity form's oracle
    return DensityMatrix(hirsch_state(p, q).mat, (2, 2))


def _real_state(dims, seed):
    # the real part of a random state is a state, and its activation cost is real
    rho = random_density(dims, np.random.default_rng(seed)).mat
    return DensityMatrix(rho.real.astype(complex), dims)


_BELL_INPUTS = (
    [(f"hirsch1-{p}", lambda p=p: _plain_hirsch(p)) for p in HIRSCH_TRAIL]
    + [(f"real2x2-{seed}", lambda seed=seed: _real_state((2, 2), seed)) for seed in (1, 2, 3)]
    + [
        ("complex2x2", lambda: random_density((2, 2), np.random.default_rng(4))),
        ("real2x3", lambda: _real_state((2, 3), 5)),
        ("real3x3", lambda: _real_state((3, 3), 6)),
    ]
)


@pytest.mark.parametrize("name,make", _BELL_INPUTS, ids=[name for name, _ in _BELL_INPUTS])
@pytest.mark.parametrize("options", [bisection_options(), DEFAULT_OPTIONS], ids=["sign", "gap"])
def test_bell_form_matches_dense(name, make, options):
    problem = build_cost(make(), options)
    assert problem.costs.shape[0] == 4
    _assert_block_matches_dense(problem)


_PARITY_INPUTS = [(1.0, p) for p in HIRSCH_TRAIL] + [
    (q, p) for q in (0.0, 0.3, 0.6, 0.9) for p in (0.1, 0.4, 0.5, 0.6, 0.65, 0.7, 1.0)
]


@pytest.mark.parametrize("options", [bisection_options(), DEFAULT_OPTIONS], ids=["sign", "gap"])
def test_parity_form_matches_bell_form(options):
    # the Bell form of the same matrix is the oracle: both follow the same
    # central path, so they take the same Newton steps to the same bounds
    for q, p in _PARITY_INPUTS:
        parity, bell = (sigma_min(tau, options).witness for tau in (hirsch_state(p, q), _plain_hirsch(p, q)))
        assert parity.problem.costs.shape == (8, 2, 2) and bell.problem.costs.shape == (4, 4, 4)
        assert (parity.status, parity.iterations) == (bell.status, bell.iterations), (q, p)
        assert abs(parity.objective - bell.objective) <= 1e-12, (q, p)
        assert abs(parity.objective_lb - bell.objective_lb) <= 1e-12, (q, p)


def test_parity_form_reproduces_dense_cost():
    # the eight blocks h_k tau^T_pi, rebuilt in the canonical basis
    for q, p in [(1.0, 0.3), (0.6, 0.7), (0.0, 0.5), (0.3, 1.0)]:
        tau = hirsch_state(p, q)
        problem = build_cost(tau)
        assert problem.layout.relabel == (0, 2)
        assert np.max(np.abs(problem.cost - activation._dense_cost(tau))) <= 1e-14


def test_parity_problem_rejects_a_relabel_that_does_not_fit():
    layout = build_cost(hirsch_state(0.3)).layout
    # the control must be the blocks' cut qubit, and the target the parity factor's
    for relabel in ((2, 0), (1, 2), (0, 3)):
        with pytest.raises(ValueError, match="relabel"):
            dataclasses.replace(layout, relabel=relabel)
    (parity, subsystems), bell = layout.factors
    with pytest.raises(ValueError, match="parity factor"):
        dataclasses.replace(layout, factors=((parity[::-1], subsystems), bell))
    # the Bell form has no parity factor
    with pytest.raises(ValueError, match="relabel"):
        dataclasses.replace(build_cost(_plain_hirsch(0.3)).layout, relabel=(0, 2))


def test_parity_state_rejects_a_coupling_of_its_sectors():
    # a Hirsch matrix with an entry between an even (|00>, |11>) and an odd (|01>, |10>) label
    for i in (0, 3):
        for j in (1, 2):
            mat = hirsch_state(0.3, q=0.6).mat.copy()
            mat[i, j] = mat[j, i] = 1e-3
            DensityMatrix(mat, (2, 2))
            with pytest.raises(ValueError, match="Z x Z"):
                ParityState(mat, (2, 2))


def test_parity_costs_are_the_sector_blocks_to_the_bit():
    # the gather of tau^T's sector blocks, against one np.ix_ per sector of the Hirsch matrix built by kron
    for p in np.linspace(0.0, 1.0, 21):
        for q in (0.0, 0.3, 0.6, 1.0):
            mat = kron_hirsch(p, q)
            blocks = np.array([mat.T[np.ix_(sector, sector)] for sector in ParityState.sectors])
            expected = (activation._BELL_H[:, None, None] * blocks[:, None]).reshape(8, 2, 2).real
            assert np.array_equal(build_cost(hirsch_state(p, q)).costs, expected), (p, q)


def test_bell_weights_give_h():
    # sum_k h_k B_k = H_{pi/4} on [A_q, B_q]
    h = np.einsum("k,kij->ij", activation._BELL_H, activation._BELL)
    assert np.max(np.abs(h - h_theta(np.pi / 4))) <= 1e-15


def test_sigma_min_builds_no_dense_cost_or_minimizer(monkeypatch):
    # the solve path of a block problem never forms a matrix of side 4 d_A d_B
    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix built")

    monkeypatch.setattr(SdpLayout, "dense", refuse)
    monkeypatch.setattr(activation, "_dense_cost", refuse)
    for tau in (werner_state(6, 0.7), isotropic_state(6, 0.5), wi_state(0.8), hirsch_state(0.2)):
        result = sigma_min(tau)
        assert result.witness.status in ("converged", "decided")
        assert result.activated
    # a Hirsch input is solved in its eight parity blocks of side 2
    assert result.witness.problem.costs.shape == (8, 2, 2)


def _dense_residuals(solution, t1_split=2):
    mat = solution.minimizer.mat
    pt = partial_transpose_mat(mat, solution.problem.layout.dims, tuple(range(t1_split)))
    return {
        "psd_slack": max(0.0, -float(np.linalg.eigvalsh(mat)[0])),
        "ppt_slack": max(0.0, -float(np.linalg.eigvalsh(pt)[0])),
        "trace_err": abs(float(mat.trace().real) - 1.0),
    }


_RESIDUAL_INPUTS = (
    [(f"{family}-{d}", lambda family=family, d=d: _twirled_state(family, d, 0.6)) for family, d, _ in _TWIRLED]
    + [(f"hirsch1-{p}", lambda p=p: hirsch_state(p)) for p in HIRSCH_TRAIL]
    + [(f"real2x2-{seed}", lambda seed=seed: _real_state((2, 2), seed)) for seed in (1, 2)]
    + [(f"complex2x2-{seed}", lambda seed=seed: random_density((2, 2), np.random.default_rng(seed))) for seed in (3, 4)]
    + [("real2x3", lambda: _real_state((2, 3), 5))]
)


@pytest.mark.parametrize("name,make", _RESIDUAL_INPUTS, ids=[name for name, _ in _RESIDUAL_INPUTS])
def test_block_residuals_match_dense_rebuild(name, make):
    solution = sigma_min(make()).witness
    dense = _dense_residuals(solution)
    for key, value in dense.items():
        assert abs(solution.residuals[key] - value) <= 1e-12, key


@pytest.mark.parametrize("options", [bisection_options(), DEFAULT_OPTIONS], ids=["sign", "gap"])
def test_warm_start_along_the_hirsch_trail_certifies_the_cold_sign(options):
    # each trail point starts from its predecessor's warm witness, as in the
    # bisection, and certifies what its cold solve certifies
    previous = None
    for p in HIRSCH_TRAIL:
        cold = sigma_min(hirsch_state(p), options)
        warm = sigma_min(hirsch_state(p), options, previous)
        assert warm.witness.status in ("converged", "decided"), p
        assert warm.activated == cold.activated, p
        assert max(warm.witness.objective_lb, cold.witness.objective_lb) <= min(warm.sigma, cold.sigma), p
        previous = warm.witness
