import dataclasses
import math

import numpy as np
import pytest

from nlact import activation, sdp
from nlact.activation import ACTIVATION_TOL, DEFAULT_OPTIONS, H_ANGLE, bisection_options, build_cost
from nlact.linalg import PSD_TOL, TRACE_TOL, DensityMatrix, min_eig, partial_transpose_mat
from nlact.rand import random_density
from nlact.sdp import SdpLayout, SdpOptions, SdpProblem, _interior_point, _solve, _splitting, solve
from nlact.states import (
    h_theta,
    hirsch_state,
    isotropic_state,
    TwirledState,
    projector,
    psi_minus,
    twirl_projectors,
    twirl_ranks,
    werner_p_range,
    werner_state,
    wi_state,
)
from nlact.sweep import FamilySpec, find_threshold, sample_curve

TIGHT = SdpOptions(tol_objective=1e-10)
# the most pivots the simplex takes on the twirled families' costs, and on any real scalar cost of the tests
FAMILY_PIVOTS = 6
ANY_PIVOTS = 11
CERTIFIED = ("converged", "decided")
# the points the hirsch1 p_TLF bisection over (0.12, 0.22) visits
HIRSCH_TRAIL = (0.12, 0.22, 0.17, 0.195, 0.1825, 0.17625, 0.173125, 0.1746875, 0.17546875)


def _admm(problem):
    return _solve(problem, _splitting)


# `solve` runs the interior-point loop on real side-4 costs; the solver tests
# run the splitting loop on them too, directly
LOOPS = (solve, _admm)


def _random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


def test_solve_constant_objective():
    problem = SdpProblem.from_cost(np.eye(4), dims=(2, 2), t1_split=1, options=TIGHT)
    for run in LOOPS:
        sol = run(problem)
        assert abs(sol.objective - 1.0) < 1e-8
        assert sol.status == "converged"


def test_solve_diagonal_cost():
    problem = SdpProblem.from_cost(np.diag([1.0, 2.0, 3.0, 4.0]), dims=(2, 2), t1_split=1, options=TIGHT)
    for run in LOOPS:
        sol = run(problem)
        assert abs(sol.objective - 1.0) < 1e-7
        assert abs(sol.minimizer.mat[0, 0].real - 1.0) < 1e-5


def test_solve_singlet_overlap_bound():
    # max overlap with the singlet over PPT states is 1/2
    cost = -projector(psi_minus())
    problem = SdpProblem.from_cost(cost, dims=(2, 2), t1_split=1, options=TIGHT)
    for run in LOOPS:
        sol = run(problem)
        assert abs(sol.objective + 0.5) < 1e-6
        assert sol.objective >= sol.objective_lb - 1e-15


def test_solution_feasibility_residuals():
    cost = -projector(psi_minus())
    for run in LOOPS:
        sol = run(SdpProblem.from_cost(cost, dims=(2, 2), t1_split=1))
        assert sol.residuals["psd_slack"] <= 1e-8
        assert sol.residuals["ppt_slack"] <= 1e-8
        assert sol.residuals["trace_err"] <= 1e-8


def test_solve_objective_above_unconstrained_min(rng):
    # dropping the PPT constraint relaxes the problem down to min_eig(cost);
    # the real part of a Hermitian cost is a real symmetric one
    for _ in range(10):
        hermitian = _random_hermitian(4, rng)
        for cost in (hermitian, hermitian.real):
            for run in LOOPS:
                sol = run(SdpProblem.from_cost(cost, dims=(2, 2), t1_split=1))
                assert sol.objective >= min_eig(cost) - 1e-8


def test_solve_deterministic():
    cost = -projector(psi_minus())
    for run in LOOPS:
        a = run(SdpProblem.from_cost(cost, dims=(2, 2), t1_split=1))
        b = run(SdpProblem.from_cost(cost, dims=(2, 2), t1_split=1))
        assert a.objective == b.objective
        assert a.iterations == b.iterations


def test_solve_scale_covariance():
    cost = -projector(psi_minus())
    for run in LOOPS:
        base = run(SdpProblem.from_cost(cost, dims=(2, 2), t1_split=1, options=TIGHT)).objective
        for alpha in (0.5, 2.0):
            scaled = run(SdpProblem.from_cost(alpha * cost, dims=(2, 2), t1_split=1, options=TIGHT)).objective
            assert abs(scaled - alpha * base) < 1e-8


def test_solve_complex_hermitian_cost():
    # complex costs go to the splitting loop whatever the side, and there too
    # "converged" means a certified gap closed to tol_objective
    rng = np.random.default_rng(0)
    for draw in range(20):
        cost = _random_hermitian(4, rng)
        assert np.max(np.abs(cost.imag)) > 0
        sol = solve(SdpProblem.from_cost(cost, dims=(2, 2), t1_split=1, options=TIGHT))
        assert sol.status == "converged", draw
        assert sol.residuals["certified_gap"] <= TIGHT.tol_objective, draw
        assert sol.objective >= min_eig(cost) - 1e-8


def test_solve_routes_by_side_and_field(monkeypatch, rng):
    # real costs take the simplex in blocks of side 1 and the interior-point
    # loop up to side 16; the splitting loop takes complex costs, side-1
    # blocks included, and larger blocks
    taken = []

    def recorder(name):
        loop = getattr(sdp, name)
        return lambda *args: taken.append(name) or loop(*args)

    for name in ("_interior_point", "_splitting", "_simplex"):
        monkeypatch.setattr(sdp, name, recorder(name))
    cost = _random_hermitian(4, rng)
    for c, dims in ((cost.real, (2, 2)), (cost, (2, 2)), (np.diag(np.arange(36.0)), (6, 6))):
        solve(SdpProblem.from_cost(c, dims=dims, t1_split=1))
    twirled = build_cost(werner_state(3, 0.6))  # eight scalar blocks
    solve(twirled)
    # an imaginary part within the Hermiticity allowance keeps the costs complex
    solve(dataclasses.replace(twirled, costs=twirled.costs + 1e-15j, options=SdpOptions(max_iters=25)))
    assert taken == ["_interior_point", "_splitting", "_splitting", "_simplex", "_splitting"]


def test_problem_is_frozen():
    # a cost assigned after construction would skip the checks of __post_init__
    problem = build_cost(werner_state(3, 0.6))
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.costs = problem.costs.astype(complex)
    assert problem.costs.dtype == np.float64


def _oracle(problem):
    """The matrix interior-point loop on a problem's blocks: the reference of the simplex."""
    return _solve(problem, _interior_point)


def _segment(algebra, d, points=11):
    """Twirled states sum_b c_b P_b along the segment of coefficients c >= 0, ends included.

    The segment holds every state of the algebra's family, Werner p < 0 included.
    """
    mult = np.trace(twirl_projectors(algebra, d), axis1=1, axis2=2)
    for t in np.linspace(0.0, 1.0, points):
        yield float(t), TwirledState(algebra, d, ((1.0 - t) / mult[0], t / mult[1]))


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("algebra", ["werner", "isotropic"])
def test_vertex_solve_matches_interior_point(algebra, d):
    # the simplex's vertex at every point of the segment: certified within a few
    # pivots, inside the matrix loop's certified interval, and deciding alike
    for t, tau in _segment(algebra, d):
        problem = build_cost(tau, SdpOptions(tol_objective=1e-9))
        vertex, oracle = solve(problem), _oracle(problem)
        assert vertex.status == "converged" and vertex.iterations <= FAMILY_PIVOTS, t
        assert oracle.objective_lb - 1e-12 <= vertex.objective <= oracle.objective + 1e-12, t
        assert _indicator(vertex) == _indicator(oracle) is not None, t


@pytest.mark.parametrize("algebra", ["werner", "isotropic"])
def test_simplex_start_inverse_is_the_basis_inverse(algebra):
    # the closed-form inverse of each start basis, x-row b and every s-row
    for d in range(2, 9):
        layout = activation._layout(algebra, (d, 2, d, 2))
        # each twirl block pairs with the four Bell blocks of multiplicity 1
        assert np.array_equal(layout.mult, np.repeat(twirl_ranks(algebra, d), 4))
        rows, _ = layout.lp_rows
        for b in range(len(layout.mult)):
            active, inverse = sdp._start_basis(layout, b)
            assert np.max(np.abs(inverse - np.linalg.inv(rows[active]))) <= 1e-15, (d, b)


def _witness_weights(theta):
    """h_k of H_theta = 1 - cos(theta) XX - sin(theta) ZZ on the Bell states (Phi+, Phi-, Psi+, Psi-)."""
    return 1.0 - math.cos(theta) * np.array([1, -1, 1, -1]) - math.sin(theta) * np.array([1, 1, -1, -1])


@pytest.mark.parametrize("d", [2, 3, 5, 8])
@pytest.mark.parametrize("algebra", ["werner", "isotropic"])
def test_simplex_matches_interior_point_on_any_scalar_cost(algebra, d):
    # costs that no family path reaches, on each twirled layout: random blocks of
    # either sign, and the blocks c_b h_k of the witness H_{pi/8} on random
    # coefficients c >= 0.  Each is certified within the matrix loop's interval
    rng = np.random.default_rng(d)
    layout = activation._layout(algebra, (d, 2, d, 2))
    draws = [rng.standard_normal(8) for _ in range(10)]
    draws += [np.multiply.outer(rng.random(2), _witness_weights(math.pi / 8)).ravel() for _ in range(5)]
    assert np.allclose(_witness_weights(H_ANGLE), activation._BELL_H)
    for k, costs in enumerate(draws):
        problem = SdpProblem(costs[:, None, None], layout, SdpOptions(tol_objective=1e-9))
        vertex, oracle = solve(problem), _oracle(problem)
        assert vertex.status == "converged" and vertex.iterations <= ANY_PIVOTS, k
        for bound in (vertex.objective_lb, vertex.objective):
            assert oracle.objective_lb - 1e-12 <= bound <= oracle.objective + 1e-12, k


@pytest.mark.parametrize("state", [wi_state, lambda p: werner_state(5, p), lambda p: isotropic_state(3, p)])
def test_simplex_from_a_degenerate_start(state):
    # at p = 0, the maximally mixed state, both twirl blocks of each Bell state
    # carry the same cost, so two rows tie for the starting vertex
    problem = build_cost(state(0.0), SdpOptions(tol_objective=1e-12))
    costs = problem.costs.ravel()
    assert np.count_nonzero(costs == costs.min()) == 2
    vertex, oracle = solve(problem), _oracle(problem)
    assert vertex.status == "converged" and vertex.objective - vertex.objective_lb <= 1e-12
    assert oracle.objective_lb - 1e-12 <= vertex.objective <= oracle.objective + 1e-12


def test_onset_refuses_all_but_a_certified_start_on_one_scalar_layout():
    low, high = build_cost(werner_state(3, 0.0)), build_cost(werner_state(3, 1.0))
    refused = [
        (low, build_cost(isotropic_state(3, 1.0))),  # another layout
        (build_cost(hirsch_state(0.0)), build_cost(hirsch_state(1.0))),  # blocks of side 2
        (high, low),  # at p = 1 sigma < 0
        # one pivot in, the dual point at p = 0 is short of sigma > 0
        (build_cost(isotropic_state(6, 0.0), SdpOptions(max_iters=1)), build_cost(isotropic_state(6, 1.0))),
    ]
    for first, second in refused:
        with pytest.raises(ValueError, match="no sigma > 0 certified"):
            sdp.onset(first, second)
    lp = sdp.onset(low, high)
    assert lp.lower > 0.0 and 0.0 < lp.root < 1.0 and abs(lp.t - lp.root) <= 1e-15


def test_onset_lower_bound_is_the_simplex_solves():
    # the first run is the simplex's own loop, so sigma's certified lower bound at
    # the low end is the one a solve there certifies, bit for bit
    for spec in (FamilySpec("wi"), FamilySpec("werner", 5), FamilySpec("isotropic", 7)):
        low = build_cost(spec.state(0.0))
        assert sdp.onset(low, build_cost(spec.state(1.0))).lower == solve(low).objective_lb


def test_onset_of_a_segment_along_which_sigma_never_falls_is_unbounded():
    # with the same costs at both ends the t column is 0: t grows without bound
    low = build_cost(werner_state(3, 0.2))
    with pytest.raises(ValueError, match="ended unbounded"):
        sdp.onset(low, low)


# p_TLF of each twirled row as bisected to a 1e-3 bracket, within 3e-4 of the
# exact values; the grid below puts a point 0.002 on either side of each
_TABLE_TLF = {
    ("wi", 2): 0.656661,
    **{("werner", d): p for d, p in zip(range(2, 7), (0.656661, 0.636102, 0.624589, 0.617188, 0.612253))},
    **{("isotropic", d): p for d, p in zip(range(2, 7), (0.656661, 0.560444, 0.488898, 0.433799, 0.389391))},
}


def _tlf_grid(family, d):
    """Nine points over the family's range and one 0.002 on either side of its table p_TLF."""
    lo, hi = werner_p_range(d) if family == "werner" else (0.0, 1.0)
    p_tlf = _TABLE_TLF[family, d]
    for p in [*np.linspace(lo, hi, 9), p_tlf - 0.002, p_tlf + 0.002]:
        yield p, wi_state(p) if family == "wi" else (werner_state if family == "werner" else isotropic_state)(d, p)


def _indicator(sol):
    """`sigma_min`'s three-valued ``activated`` of a solution."""
    if sol.status in CERTIFIED:
        if sol.objective < -ACTIVATION_TOL:
            return True
        if sol.objective_lb >= -ACTIVATION_TOL:
            return False
    return None


# The "scalar loop" of the four tests below is the solver of the eight scalar
# blocks, `solve`'s simplex.  Each checks it where an interior-point iterate is
# hard to end at a vertex: next to a threshold, below the matrix loop's accuracy
# floor, on an optimal edge, and at a singular basis.


@pytest.mark.parametrize("family,d", list(_TABLE_TLF), ids=str)
def test_scalar_loop_matches_interior_point(family, d):
    # next to each p_TLF, under the gap options and the sign-only ones, the
    # simplex's vertex decides as the matrix loop does, within a few pivots,
    # and both certified intervals hold the optimum
    for p, tau in _tlf_grid(family, d):
        for options in (DEFAULT_OPTIONS, bisection_options()):
            problem = build_cost(tau, options)
            assert problem.costs.shape == (8, 1, 1)
            vertex, oracle = solve(problem), _oracle(problem)
            assert vertex.iterations <= FAMILY_PIVOTS and vertex.status in CERTIFIED, p
            assert _indicator(vertex) == _indicator(oracle), p
            assert max(vertex.objective_lb, oracle.objective_lb) <= min(vertex.objective, oracle.objective) + 1e-12, p


@pytest.mark.parametrize("family,d", list(_TABLE_TLF), ids=str)
def test_scalar_loop_certifies_below_the_matrix_floor(family, d):
    # a gap of 1e-12 lies below the interior-point iterates' own accuracy
    # floor (~1e-10); the optimal vertex and its basis dual certify it
    options = SdpOptions(tol_objective=1e-12)
    for p, tau in _tlf_grid(family, d):
        problem = build_cost(tau, options)
        sol = solve(problem)
        assert sol.status == "converged", p
        assert sol.objective - sol.objective_lb <= 1e-12, p
        # inside the matrix loop's certified interval at its floor, whatever its status
        general = _oracle(dataclasses.replace(problem, options=TIGHT))
        for bound in (sol.objective_lb, sol.objective):
            assert general.objective_lb - 1e-12 <= bound <= general.objective + 1e-12, p


# twirled points whose optimal set is an edge: several vertices are optimal, and
# the iterates of an interior-point loop approach the edge, not a vertex
_EDGE_POINTS = [("werner", 3, 0.3), ("werner", 3, 0.2875), ("werner", 3, 0.325), ("isotropic", 2, 0.425)]


@pytest.mark.parametrize("family,d,p", _EDGE_POINTS, ids=str)
def test_scalar_loop_rounds_an_optimal_edge_to_a_vertex(family, d, p):
    # the simplex moves from vertex to vertex, so the solve ends at one of the edge's
    tau = (werner_state if family == "werner" else isotropic_state)(d, p)
    sol = solve(build_cost(tau, SdpOptions(tol_objective=1e-12)))
    assert sol.status == "converged" and sol.iterations <= FAMILY_PIVOTS
    assert sol.objective - sol.objective_lb <= 1e-12


@pytest.mark.parametrize("tol", [1e-7, 1e-12])
def test_scalar_loop_rounds_past_a_singular_transposed_basis(tol):
    # here the nb - 1 smallest slacks of an interior-point iterate fix a basis
    # whose transposed system is singular to the solver; the simplex's bases
    # stay invertible, so its vertex is finite
    problem = build_cost(werner_state(8, 0.15), SdpOptions(tol_objective=tol))
    sol = solve(problem)
    assert sol.status == "converged" and sol.iterations <= FAMILY_PIVOTS
    assert sol.objective - sol.objective_lb <= 1e-15
    assert np.all(np.isfinite(sol.blocks))


def _expand(images, onto):
    """Coefficients of each image in the orthogonal projectors onto: [onto, image]."""
    return np.array([[np.trace(o @ image) / np.trace(o) for image in images] for o in onto])


def _twirl_pt_maps(tau):
    """(P_b, PT(P_b) in the Q_c, PT(Q_c) in the P_b), read off the projectors.

    The P_b are tau's twirl projectors, the Q_c the other algebra's, and PT
    is the partial transpose over A_d.
    """
    d = tau.dims[0]
    ps = twirl_projectors(tau.algebra, d)
    qs = twirl_projectors("isotropic" if tau.algebra == "werner" else "werner", d)
    return (
        ps,
        _expand([partial_transpose_mat(p, (d, d), 0) for p in ps], qs),
        _expand([partial_transpose_mat(q, (d, d), 0) for q in qs], ps),
    )


def _twirl_only_problem(tau, options):
    """A twirled state's activation problem with the ancilla left whole: blocks c_b H of side 4 on [A_q, B_q].

    The partial transpose over A_d maps the projectors P_b onto the other
    algebra's Q_c, with multiplicities Tr P_b and Tr Q_c that are not 1, and
    pt_map is read off the projectors' partial transposes.
    """
    d = tau.dims[0]
    ps, pt_map, _ = _twirl_pt_maps(tau)
    costs = np.multiply.outer(tau.coeffs, h_theta(H_ANGLE).real)
    return SdpProblem(costs, SdpLayout(((ps, (0, 2)),), pt_map, (d, 2, d, 2), t1_split=2), options)


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize("family", ["werner", "isotropic"])
def test_derived_adjoint_inverts_pt_map(family, d):
    tau = (werner_state if family == "werner" else isotropic_state)(d, 0.6)
    # the twirl alone: the adjoint is the partial transpose of the Q_c read off in the P_b
    problem = _twirl_only_problem(tau, SdpOptions())
    _, _, back = _twirl_pt_maps(tau)
    adjoint = problem.layout.adjoint
    assert adjoint.flags.c_contiguous
    assert np.allclose(adjoint, back, rtol=0.0, atol=1e-14)
    assert np.allclose(adjoint @ problem.layout.pt_map, np.eye(2), rtol=0.0, atol=1e-14)
    # the eight scalar blocks of the twirl with the ancilla's Bell basis
    problem = build_cost(tau)
    adjoint = problem.layout.adjoint
    assert adjoint.flags.c_contiguous
    assert np.allclose(adjoint @ problem.layout.pt_map, np.eye(8), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("family,d", [("werner", 3), ("isotropic", 4), ("werner", 6)], ids=str)
def test_inconsistent_pt_map_is_rejected_before_any_step(family, d):
    # the other algebra's map, as a swapped pair of maps would give, and the
    # map with its X-side blocks relabelled: their adjoints do not invert
    # them, and the layout itself is rejected, before any problem is built on it
    family_state = {"werner": werner_state, "isotropic": isotropic_state}
    layout = build_cost(family_state[family](d, 0.7)).layout
    other = build_cost(family_state["isotropic" if family == "werner" else "werner"](d, 0.7)).layout
    for pt_map in (other.pt_map, layout.pt_map[:, ::-1]):
        with pytest.raises(ValueError, match="adjoint"):
            dataclasses.replace(layout, pt_map=pt_map)


@pytest.mark.parametrize("family,d", [("werner", 3), ("werner", 4), ("isotropic", 3)], ids=str)
def test_matrix_loop_on_blocks_with_multiplicities(family, d):
    # the matrix loop on blocks of side 4 whose multiplicities are not 1 and
    # whose pt_map is not its own adjoint: it agrees with the exact LP value of
    # the eight-scalar form, the simplex's vertex, within its certified gap
    options = SdpOptions(tol_objective=1e-9)
    for p, tau in list(_tlf_grid(family, d))[-4:]:
        problem = _twirl_only_problem(tau, options)
        assert problem.costs.shape == (2, 4, 4)
        assert not np.allclose(problem.layout.pt_map, problem.layout.adjoint)
        block = solve(problem)
        scalar = solve(build_cost(tau, options))
        assert block.status == scalar.status == "converged", p
        assert block.objective_lb - 1e-12 <= scalar.objective <= block.objective + 1e-12, p


def test_side_one_lowest_eigenvalues_are_the_entries(monkeypatch, rng):
    # a block of side 1 is its own eigenvalue: reading it gives eigvalsh's bits
    values = np.exp(rng.uniform(-30.0, 30.0, 16)) * rng.choice([-1.0, 1.0], 16)
    for mats in (values[:, None, None], (values + 0j)[:, None, None]):
        assert np.array_equal(sdp._lowest(mats), np.linalg.eigvalsh(mats)[:, 0])
    # so a scalar solve, by either route, certifies the same bounds as one whose
    # certificate runs eigvalsh
    problems = [build_cost(werner_state(3, p), DEFAULT_OPTIONS) for p in (0.3, 0.636102, 0.9)]
    runs = (_oracle, solve)
    fast = [[run(problem) for run in runs] for problem in problems]
    monkeypatch.setattr(sdp, "_lowest", lambda mats: np.linalg.eigvalsh(mats)[:, 0])
    for problem, refs in zip(problems, fast):
        for run, ref in zip(runs, refs):
            sol = run(problem)
            assert (sol.status, sol.iterations) == (ref.status, ref.iterations)
            assert (sol.objective, sol.objective_lb) == (ref.objective, ref.objective_lb)
            assert sol.residuals == ref.residuals


def test_side_two_lowest_eigenvalues_match_eigvalsh(rng):
    # the closed form is eigvalsh's smallest eigenvalue to a few units of rounding of the block's spectrum
    a, b, c = rng.standard_normal((3, 64))
    t = rng.standard_normal((64, 2))
    stacks = {
        "random": np.stack([np.stack([a, b], -1), np.stack([b, c], -1)], -2),
        "diagonal": np.stack([np.diag(pair) for pair in zip(a, c)]),
        "degenerate": a[:, None, None] * np.eye(2),
        "rank-one": t[:, :, None] * t[:, None, :],
    }
    stacks |= {f"{name}-{scale:g}": scale * stacks[name] for name in ("random", "rank-one") for scale in (1e-30, 1e30)}
    for name, mats in stacks.items():
        reference = np.linalg.eigvalsh(mats)
        bound = 4.0 * np.finfo(float).eps * np.abs(reference).max(axis=-1)
        assert np.all(np.abs(sdp._lowest(mats) - reference[:, 0]) <= bound), name
    mats = stacks["random"]
    # over leading axes, as the warm start's stacks of states are read
    assert np.array_equal(sdp._lowest(mats.reshape(4, 16, 2, 2)), sdp._lowest(mats).reshape(4, 16))
    # the upper triangle is not read, as eigvalsh reads the lower one
    skewed = mats + np.triu(np.ones((2, 2)), 1)
    assert np.array_equal(sdp._lowest(skewed), sdp._lowest(mats))
    # a complex block of side 2 keeps eigvalsh
    assert np.array_equal(sdp._lowest(mats + 0j), np.linalg.eigvalsh(mats + 0j)[:, 0])


def test_side_two_closed_form_keeps_the_hirsch_solves(monkeypatch):
    # the hirsch1 search's points, cold and warm from the previous point as the search
    # solves them, take the same steps to the same bounds as with eigvalsh everywhere
    def trail():
        solutions, previous = [], None
        for p in HIRSCH_TRAIL:
            problem = build_cost(hirsch_state(p), bisection_options())
            solutions += [solve(problem), solve(problem, previous)]
            previous = solutions[-1]
        return solutions

    fast = trail()
    monkeypatch.setattr(sdp, "_lowest", lambda mats: np.linalg.eigvalsh(mats)[..., 0])
    for sol, ref in zip(fast, trail(), strict=True):
        assert (sol.status, sol.iterations) == (ref.status, ref.iterations)
        assert abs(sol.objective - ref.objective) <= 1e-15
        assert abs(sol.objective_lb - ref.objective_lb) <= 1e-15


def _trail_iterates():
    """Every interior-point state of the hirsch1 trail's solves, cold and warm from the previous point."""
    states, previous = [], None
    for p in HIRSCH_TRAIL:
        problem = build_cost(hirsch_state(p), bisection_options())
        cold, previous = solve(problem), solve(problem, previous)
        states += [cold.iterates, previous.iterates]
    return states


def _eigh_factors(mats):
    w, v = np.linalg.eigh(mats)
    return (v / np.sqrt(w)[..., None, :]).swapaxes(-1, -2)


def test_side_two_scaling_factors_whiten_and_invert():
    # F Z F^T = I and F^T F = Z^-1 to the rounding that each block's condition
    # number kappa allows, 4 eps kappa, which the eigh factors also meet; on
    # the seeded stacks (kappa <= 1000) that is within 1e-12
    rng = np.random.default_rng(11)
    a = rng.standard_normal((256, 2, 2))
    seeded = a @ a.swapaxes(-1, -2) + 0.1 * np.eye(2)
    seeded *= np.exp(rng.uniform(-20.0, 20.0, 256))[:, None, None]
    trail = np.concatenate([states.reshape(-1, 2, 2) for states in _trail_iterates()])
    eps = np.finfo(float).eps
    for name, mats in (("seeded", seeded), ("trail", trail)):
        kappa, inverse = np.linalg.cond(mats), np.linalg.inv(mats)
        for factors in (sdp._scaling(mats), _eigh_factors(mats)):
            white = np.abs(factors @ mats @ factors.swapaxes(-1, -2) - np.eye(2)).max(axis=(-1, -2))
            inv = np.abs(factors.swapaxes(-1, -2) @ factors - inverse).max(axis=(-1, -2))
            inv /= np.abs(inverse).max(axis=(-1, -2))
            assert np.all(white <= 4.0 * eps * kappa) and np.all(inv <= 4.0 * eps * kappa), name
            if name == "seeded":
                assert kappa.max() <= 1000.0 and white.max() <= 1e-12 and inv.max() <= 1e-12


def test_side_two_scaling_keeps_the_step_lengths():
    # along the trail's solves, the largest steps <= 1 that stay in the cones,
    # read through either factor, agree within 1e-12; twice each state's move
    # to the next one is a direction whose steps lie mostly below 1
    below_one = 0
    for states in _trail_iterates():
        current, move = states[:-1], 2.0 * (states[1:] - states[:-1])
        steps = []
        for factors in (sdp._scaling(current), _eigh_factors(current)):
            lowest = sdp._lowest(factors @ move @ factors.swapaxes(-1, -2))
            steps.append(-1.0 / np.minimum(lowest, -1.0))
        assert np.max(np.abs(steps[0] - steps[1])) <= 1e-12
        below_one += np.count_nonzero(steps[0] < 1.0)
    assert below_one > 1000


def test_larger_blocks_keep_the_eigh_scaling(rng):
    # a block of side 4 (the Bell form) is scaled by eigh, bit for bit as before
    a = rng.standard_normal((4, 4, 4))
    mats = a @ a.swapaxes(-1, -2) + np.eye(4)
    assert np.array_equal(sdp._scaling(mats), _eigh_factors(mats))


def test_parity_form_solves_call_no_eigh(monkeypatch):
    # every smallest eigenvalue and every step's scaling of the trail's solves is in closed form
    problems = [build_cost(hirsch_state(p), bisection_options()) for p in HIRSCH_TRAIL]
    monkeypatch.setattr(np.linalg, "eigh", lambda *args: pytest.fail("eigh called"))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args: pytest.fail("eigvalsh called"))
    previous = None
    for problem in problems:
        assert solve(problem).status in CERTIFIED
        previous = solve(problem, previous)
        assert previous.status in CERTIFIED


@pytest.mark.parametrize("block", ["negative-a", "negative-det", "singular", "nan"])
def test_side_two_scaling_rejects_a_block_off_its_cone(block):
    # one block that is not positive definite: no factors, and no square root of
    # a negative number (a RuntimeWarning fails the suite)
    bad = {
        "negative-a": [[-1.0, 0.0], [0.0, 1.0]],
        "negative-det": [[1.0, 2.0], [2.0, 1.0]],
        "singular": [[1.0, 1.0], [1.0, 1.0]],
        "nan": [[math.nan, 0.0], [0.0, 1.0]],
    }[block]
    mats = np.broadcast_to(np.eye(2), (8, 2, 2)).copy()
    mats[5] = bad
    assert sdp._scaling(mats) is None
    # an interior-point run from a state with that block among its dual slacks
    # ends infeasible_numerics at its first step
    problem = build_cost(hirsch_state(0.17), bisection_options())
    state = sdp._start(problem.layout, problem.costs)
    state[2 * len(problem.layout.mult) + 5] = bad
    steps, status, _ = _interior_point(problem.layout, sdp._Bounds(problem), problem.options, state)
    assert (steps, status) == (1, "infeasible_numerics")


def test_problem_validation(rng):
    with pytest.raises(ValueError, match="Hermitian"):
        SdpProblem.from_cost(np.eye(4, k=1), dims=(2, 2), t1_split=1)
    with pytest.raises(ValueError, match="prefix"):
        SdpProblem.from_cost(np.eye(4), dims=(2, 2), t1_split=2)
    with pytest.raises(ValueError, match="desk-scale"):
        SdpProblem.from_cost(np.eye(512), dims=(256, 2), t1_split=1)
    with pytest.raises(ValueError, match="shape"):
        SdpProblem.from_cost(np.eye(4), dims=(2, 3), t1_split=1)


@pytest.mark.parametrize("entry", ["projectors", "pt_map"])
def test_layout_rejects_non_finite_entries(entry):
    # a NaN compares False with every tolerance, so the layout tests finiteness itself
    layout = build_cost(werner_state(3, 0.5)).layout
    (twirl, subsystems), bell = layout.factors
    bad = (twirl if entry == "projectors" else layout.pt_map).copy()
    bad.flat[0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        if entry == "projectors":
            dataclasses.replace(layout, factors=((bad, subsystems), bell))
        else:
            dataclasses.replace(layout, pt_map=bad)


@pytest.mark.parametrize("case", ["parity-nan", "dense-nan", "dense-inf"])
def test_problem_rejects_non_finite_costs(case):
    # rejected when the problem is built, before any loop sees them
    parity = build_cost(hirsch_state(0.2)).layout
    cost = np.eye(18)
    cost[0, 0] = np.inf if case == "dense-inf" else np.nan
    with pytest.raises(ValueError, match="finite"):
        if case == "parity-nan":
            SdpProblem(np.full((8, 2, 2), np.nan), parity)
        else:
            SdpProblem.from_cost(cost, dims=(2, 9))


def test_complex_typed_real_costs_are_stored_real():
    # costs of a complex dtype with zero imaginary part are stored real and solve,
    # warm start and iterates included, bit for bit as the real-typed ones do
    options = bisection_options()
    first, problem = (build_cost(hirsch_state(p), options) for p in (0.17, 0.1746875))
    typed = [SdpProblem(p.costs.astype(complex), p.layout, options) for p in (first, problem)]
    for p in (first, problem, *typed):
        assert p.costs.dtype == np.float64
    real, complex_typed = solve(problem, solve(first)), solve(typed[1], solve(typed[0]))
    _assert_same_solve(real, complex_typed)
    assert np.array_equal(real.iterates, complex_typed.iterates)


def test_plain_problem_cost_round_trips(rng):
    # a plain problem is one block, and the dense cost derived from it is the given one
    for cost in (_random_hermitian(4, rng), -projector(psi_minus()), np.diag([1.0, 2.0, 3.0, 4.0])):
        problem = SdpProblem.from_cost(cost, dims=(2, 2))
        assert problem.costs.shape == (1, 4, 4)
        assert np.array_equal(problem.cost, cost)


@pytest.mark.parametrize(
    "kwargs,match",
    [
        ({"max_iters": 0}, "max_iters"),
        ({"max_iters": -5}, "max_iters"),
        ({"tol_objective": float("nan")}, "tol_objective"),
        ({"tol_objective": 0.0}, "tol_objective"),
        ({"tol_objective": -1.0}, "tol_objective"),
        ({"tol_objective": float("inf")}, "tol_objective"),
        ({"objective_cut": float("nan")}, "objective_cut"),
        ({"objective_cut": -float("inf")}, "objective_cut"),
        # a float budget would pass the range check and then fail every solve in range()
        ({"max_iters": 1e3}, "max_iters"),
        ({"max_iters": 2.5}, "max_iters"),
        # bool is an int subclass: True would pass as a budget of 1 or a tolerance of 1.0
        ({"max_iters": True}, "max_iters"),
        ({"tol_objective": True}, "tol_objective"),
        ({"objective_cut": False}, "objective_cut"),
    ],
)
def test_options_reject_values_that_certify_nothing(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SdpOptions(**kwargs)
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(SdpOptions(), **kwargs)


def test_options_take_numpy_integer_budgets():
    options = SdpOptions(max_iters=np.int64(40))
    assert solve(build_cost(hirsch_state(0.7), options)).status == "converged"


def test_max_iters_status():
    cost = -projector(psi_minus())
    options = SdpOptions(max_iters=3, tol_objective=1e-14)
    for run in LOOPS:
        sol = run(SdpProblem.from_cost(cost, dims=(2, 2), t1_split=1, options=options))
        assert sol.status == "max_iters"


def test_decision_cut_stop():
    cost = -projector(psi_minus())
    options = SdpOptions(objective_cut=-0.4)
    for run in LOOPS:
        sol = run(SdpProblem.from_cost(cost, dims=(2, 2), t1_split=1, options=options))
        assert sol.status in ("decided", "converged")
        if sol.status == "decided":
            assert sol.objective < -0.4 or sol.objective_lb >= -0.4


def _cross_check_problem(case, options):
    """The cost of a named case: a hirsch1 trail point, a seeded random real state, or the singlet."""
    kind, arg = case
    if kind == "hirsch1":
        problem = build_cost(hirsch_state(arg))
    elif kind == "random":
        # the real part of a random state is a state, and its activation cost is real
        rho = random_density((2, 2), np.random.default_rng(arg)).mat
        problem = build_cost(DensityMatrix(rho.real.astype(complex), (2, 2)))
    else:
        problem = SdpProblem.from_cost(-projector(psi_minus()), dims=(2, 2), t1_split=1)
    assert not np.any(problem.cost.imag)
    return dataclasses.replace(problem, options=options)


_CROSS_CHECK = [("hirsch1", p) for p in HIRSCH_TRAIL] + [("random", seed) for seed in (1, 2, 3)] + [("singlet", None)]


def _activated(sol):
    return sol.status in CERTIFIED and sol.objective < -ACTIVATION_TOL


@pytest.mark.parametrize("case", _CROSS_CHECK, ids=lambda c: f"{c[0]}-{c[1]}")
def test_interior_point_matches_splitting_sign(case):
    # the reference is the splitting loop with a budget of its own: it needs
    # 63,850 iterations at p = 0.17546875, more than the default 50,000
    options = bisection_options()
    ipm = solve(_cross_check_problem(case, options))
    admm = _admm(_cross_check_problem(case, dataclasses.replace(options, max_iters=4 * options.max_iters)))
    assert ipm.status in CERTIFIED and admm.status in CERTIFIED
    assert max(ipm.objective_lb, admm.objective_lb) <= min(ipm.objective, admm.objective)
    assert _activated(ipm) == _activated(admm)


# the other five hirsch1 trail points take the splitting loop 12k to over 50k
# iterations under TIGHT
@pytest.mark.parametrize(
    "case", [("hirsch1", p) for p in (0.12, 0.17, 0.195, 0.22)] + _CROSS_CHECK[-4:], ids=lambda c: f"{c[0]}-{c[1]}"
)
def test_interior_point_matches_splitting_tight(case):
    ipm = solve(_cross_check_problem(case, TIGHT))
    admm = _admm(_cross_check_problem(case, TIGHT))
    assert ipm.status == admm.status == "converged"
    assert max(ipm.objective_lb, admm.objective_lb) <= min(ipm.objective, admm.objective)
    assert abs(ipm.objective - admm.objective) <= 1e-7


@pytest.mark.parametrize("p", [0.17546875, 0.17625])
def test_interior_point_certifies_near_cut(p):
    # sigma(p) lies within 1e-7 of the activation cut at both points
    sol = solve(build_cost(hirsch_state(p), bisection_options()))
    assert sol.status in CERTIFIED
    assert sol.iterations <= 50


def test_hirsch_trail_newton_step_budget(monkeypatch):
    # the sign queries of the hirsch1 p_TLF bisection, all on the matrix loop,
    # take 95 Newton steps in all; tighten this budget, never loosen it
    loops = []
    monkeypatch.setattr(sdp, "_interior_point", lambda *args: loops.append(args) or _interior_point(*args))
    steps = sum(solve(build_cost(hirsch_state(p), bisection_options())).iterations for p in HIRSCH_TRAIL)
    assert len(loops) == len(HIRSCH_TRAIL)
    assert steps <= 95


def test_interior_point_solution_stores_its_states_from_the_start():
    problem = build_cost(hirsch_state(0.2), bisection_options())
    sol = solve(problem)
    nb, s = problem.costs.shape[:2]
    assert sol.iterates.shape == (sol.iterations + 1, 4 * nb, s, s)
    assert np.array_equal(sol.iterates[0], sdp._start(problem.layout, problem.costs))
    # the other loops store none: no solve starts from theirs
    assert _admm(problem).iterates is None
    assert solve(build_cost(werner_state(3, 0.6))).iterates is None


def test_start_from_another_layout_is_rejected(rng):
    # a Hirsch solution is in eight parity blocks of side 2, a random state's cost in four Bell blocks of side 4
    rho = random_density((2, 2), rng).mat
    problem = build_cost(DensityMatrix(rho.real.astype(complex), (2, 2)))
    with pytest.raises(ValueError, match="layout"):
        solve(problem, solve(build_cost(hirsch_state(0.2))))


def _assert_same_solve(a, b):
    assert (a.iterations, a.status, a.objective, a.objective_lb) == (b.iterations, b.status, b.objective, b.objective_lb)
    assert np.array_equal(a.blocks, b.blocks)


def test_start_without_iterates_is_the_cold_start():
    problem = build_cost(hirsch_state(0.2), bisection_options())
    start = dataclasses.replace(solve(problem), iterates=None)
    _assert_same_solve(solve(problem, start), solve(problem))


def test_start_whose_primal_stacks_left_their_cones_is_the_cold_start():
    # a stored state is a candidate only while all four of its stacks are interior
    problem = build_cost(hirsch_state(0.17), bisection_options())
    start = solve(problem)
    nb = len(problem.layout.mult)
    for half in (slice(0, nb), slice(nb, 2 * nb)):
        iterates = start.iterates.copy()
        iterates[:, half] *= -1.0
        warm = solve(problem, dataclasses.replace(start, iterates=iterates))
        _assert_same_solve(warm, solve(problem))
        assert warm.warm_start is None


def test_lowered_cost_is_absorbed_by_the_dual_shift():
    # lowering the cost by 100 I lowers every stored S1 by as much; the shift
    # t = 100 restores it exactly, so the warm solve certifies in at most the cold steps
    problem = build_cost(hirsch_state(0.17), bisection_options())
    lowered = dataclasses.replace(problem, costs=problem.costs - 100.0 * np.eye(2))
    warm, cold = solve(lowered, solve(problem)), solve(lowered)
    assert warm.status == cold.status == "decided"
    assert warm.iterations <= cold.iterations
    assert abs(warm.warm_start[1] - 100.0) <= 1e-12
    assert cold.warm_start is None


def test_every_warm_start_is_dual_feasible():
    # S1 + PT*(S2) - C = -y I in every block, with one y, for each start the rule
    # returns: between the trail's points and for the lowered cost
    options = bisection_options()
    problems = [build_cost(hirsch_state(p), options) for p in HIRSCH_TRAIL]
    lowered = dataclasses.replace(problems[2], costs=problems[2].costs - 100.0 * np.eye(2))
    solutions = [solve(problem) for problem in problems]
    pairs = [(b, a) for j, b in enumerate(problems) for a in solutions[:j]] + [(lowered, solutions[2])]
    nb = len(problems[0].layout.mult)
    for problem, start in pairs:
        state = sdp._warm_start(problem.layout, problem.costs, start)[2]
        residual = state[2 * nb : 3 * nb] + problem.layout.pt_adj(state[3 * nb :]) - problem.costs
        assert np.max(np.abs(residual - residual[0, 0, 0] * np.eye(2))) <= 1e-12
        assert np.min(sdp._lowest(state)) > 0.0


def test_warm_start_takes_the_least_gap_in_any_stored_order():
    # the start is the kept state of least gap after the shift, not the latest one
    options = bisection_options()
    first, problem = (build_cost(hirsch_state(p), options) for p in (0.17, 0.1746875))
    start = solve(first)
    index, shift, state = sdp._warm_start(problem.layout, problem.costs, start)
    flipped = sdp._warm_start(problem.layout, problem.costs, dataclasses.replace(start, iterates=start.iterates[::-1]))
    assert flipped[:2] == (len(start.iterates) - 1 - index, shift)
    assert np.array_equal(flipped[2], state)


def _layout(kind):
    """A problem of each kind of layout: the parity, Bell and twirled forms, and dense blocks of side 4 and 16."""
    rng = np.random.default_rng(11)
    if kind == "parity":
        return build_cost(hirsch_state(0.2, 0.6))
    if kind == "bell":
        rho = random_density((2, 2), rng).mat
        return build_cost(DensityMatrix(rho.real.astype(complex), (2, 2)))
    if kind == "twirled":
        return build_cost(werner_state(3, 0.6))
    side = int(kind.removeprefix("dense"))
    return SdpProblem.from_cost(_random_hermitian(side, rng).real, dims=(2, side // 2))


@pytest.mark.parametrize("kind", ["parity", "bell", "twirled", "dense4", "dense16"])
def test_loop_operators_match_the_gather_form(kind):
    # every linear map of a Newton step, as one product with the layout's
    # derived operators, against its definition through `SdpLayout.transpose`
    layout = _layout(kind).layout
    ops = layout.operators
    nb, s, _ = layout.shape
    i, j, basis = sdp._symmetric_basis(s)
    flat = nb * s * s
    rng = np.random.default_rng(5)
    for _ in range(3):
        a = sdp._sym(rng.standard_normal((nb, s, s)))
        assert np.max(np.abs(a.reshape(flat) @ ops.pt - layout.pt(a).reshape(flat))) <= 1e-14
        assert np.max(np.abs(a.reshape(flat) @ ops.adj - layout.pt_adj(a).reshape(flat))) <= 1e-14
        # maps that take the symmetric part of their argument first
        g, u = rng.standard_normal((2 * nb, s, s)), rng.standard_normal((nb, s, s))
        h, pt_u = sdp._sym(g), layout.pt(sdp._sym(u))
        rhs = g.reshape(2 * flat) @ ops.rhs
        assert np.max(np.abs(rhs[:-1] - (h[nb:] - layout.pt(h[:nb]))[:, i, j].ravel())) <= 1e-14
        assert abs(rhs[-1] + layout.trace(h[:nb])) <= 1e-14
        border = u.reshape(flat) @ ops.border
        assert np.max(np.abs(border[:-1] - pt_u[:, i, j].ravel())) <= 1e-14
        inner = layout.pt_mult[:, None] * np.einsum("cij,uij->cu", pt_u, basis)
        assert np.max(np.abs(border[:-1] * ops.inner - inner.ravel())) <= 1e-14
        assert abs(border[-1] - layout.trace(u)) <= 1e-14
        sides = g.reshape(2 * nb, 1, s * s) @ ops.sym_coords
        assert np.array_equal(sides[:, 0], h[..., i, j])
        # the Schur solution (dS2's coordinates, dy) to (dS1, dS2)
        sol = rng.standard_normal(ops.size + 1)
        ds2 = np.einsum("cu,uij->cij", sol[:-1].reshape(nb, -1), basis)
        ds1 = -sol[-1] * np.eye(s) - layout.pt_adj(ds2)
        assert np.max(np.abs(sol @ ops.dual - np.concatenate([ds1, ds2]).ravel())) <= 1e-14
        # mu, the multiplicity-weighted <(X, W), (S1, S2)> per unit of dense side
        z, dual = rng.standard_normal((2, 2 * nb, s, s))
        mult = np.concatenate([layout.mult, layout.pt_mult])
        mu = mult @ np.sum(z * dual, axis=(1, 2)) / (2.0 * layout.n)
        assert abs((z * dual).reshape(-1) @ ops.gap - mu) <= 1e-14 * max(1.0, abs(mu))


def _count_derivations(monkeypatch):
    """The layouts built and `_Operators` derived from here on, in order.

    The activation layouts are built afresh.
    """
    derived = []
    build = SdpLayout.__post_init__

    def counted(layout):
        derived.append("layout")
        build(layout)

    class CountedOperators(sdp._Operators):
        def __init__(self, layout):
            derived.append("operators")
            super().__init__(layout)

    activation._layout.cache_clear()
    monkeypatch.setattr(SdpLayout, "__post_init__", counted)
    monkeypatch.setattr(sdp, "_Operators", CountedOperators)
    return derived


def test_a_search_derives_its_layout_once(monkeypatch):
    # the nine solves of each hirsch1 search, warm or cold, share one layout
    # object: the first search builds it, and its first solve derives the operators
    derived = _count_derivations(monkeypatch)
    for _ in range(2):
        assert find_threshold(FamilySpec("hirsch1"), "tlf", (0.12, 0.22)).evaluations == 9
    assert derived == ["layout", "operators"]


def test_a_twirled_curve_derives_its_layout_once(monkeypatch):
    # each point's solve takes the one (werner, 3) layout, and no point derives
    # interior-point operators
    derived = _count_derivations(monkeypatch)
    curve = sample_curve(FamilySpec("werner", d=3), "tlf", np.linspace(0.0, 1.0, 11))
    assert None not in curve.values
    assert derived == ["layout"]


def test_shared_layout_solves_as_a_fresh_equal_one():
    # a warm solve on the shared layout is bit for bit the warm solve on an
    # equal layout built afresh, which derives its own operators
    options = bisection_options()
    first, problem = (build_cost(hirsch_state(p), options) for p in (0.17, 0.1746875))
    shared = solve(problem, solve(first))
    fresh = dataclasses.replace(first.layout)
    assert fresh is not first.layout and fresh.operators is not first.layout.operators
    start = solve(SdpProblem(first.costs, fresh, options))
    rebuilt = solve(SdpProblem(problem.costs, fresh, options), start)
    _assert_same_solve(shared, rebuilt)
    assert np.array_equal(shared.iterates, rebuilt.iterates)


def test_start_on_an_equal_copy_of_the_layout_is_rejected():
    # layouts are compared by identity, not by value
    problem = build_cost(hirsch_state(0.2))
    copy = SdpProblem(problem.costs, dataclasses.replace(problem.layout), problem.options)
    with pytest.raises(ValueError, match="layout"):
        solve(copy, solve(problem))


@pytest.mark.parametrize("tol", [1e-9, 1e-10, 1e-11])
def test_warm_start_never_costs_the_certificate(tol):
    # hirsch2 at q = 0: from the solve at p = 1, the warm solve at p = 1/sqrt(2)
    # certifies as the cold one does, in at most its Newton steps, with bounds
    # that overlap the cold ones
    options = SdpOptions(tol_objective=tol)
    start = solve(build_cost(hirsch_state(1.0, 0.0), options))
    problem = build_cost(hirsch_state(0.7071067812, 0.0), options)
    warm, cold = solve(problem, start), solve(problem)
    assert warm.status == cold.status == "converged"
    assert warm.iterations <= cold.iterations
    assert max(warm.objective_lb, cold.objective_lb) <= min(warm.objective, cold.objective)


def test_warm_start_from_every_earlier_trail_point_ends_as_the_cold_solve():
    # at tol_objective = 1e-11 each trail point, solved warm from the cold solve
    # of each earlier point, ends with the cold status and overlapping bounds
    options = SdpOptions(tol_objective=1e-11)
    problems = [build_cost(hirsch_state(p), options) for p in HIRSCH_TRAIL]
    colds = [solve(problem) for problem in problems]
    for j, (problem, cold) in enumerate(zip(problems, colds)):
        for i, start in enumerate(colds[:j]):
            warm = solve(problem, start)
            assert warm.status == cold.status, (i, j)
            assert max(warm.objective_lb, cold.objective_lb) <= min(warm.objective, cold.objective), (i, j)


def test_failed_warm_solve_is_run_again_cold(monkeypatch):
    # a warm run that ends infeasible_numerics gives way to the cold run, and
    # the solution counts the Newton steps of both
    def failing_warm(st, bounds, opts, state=None):
        if state is not None:
            return 3, "infeasible_numerics", state[None]
        return _interior_point(st, bounds, opts)

    options = bisection_options()
    start = solve(build_cost(hirsch_state(0.17), options))
    problem = build_cost(hirsch_state(0.1746875), options)
    cold = solve(problem)
    monkeypatch.setattr(sdp, "_interior_point", failing_warm)
    rerun = solve(problem, start)
    # the solution is the cold re-run's, so it reports no warm start
    assert rerun.warm_start is None
    assert rerun.iterations == 3 + cold.iterations
    assert (rerun.status, rerun.objective, rerun.objective_lb) == (cold.status, cold.objective, cold.objective_lb)
    assert np.array_equal(rerun.blocks, cold.blocks)


def test_matrix_loop_ends_infeasible_numerics_short_of_an_unreachable_gap(monkeypatch):
    # at hirsch1 p = 1 the Newton path breaks down with a gap of ~3e-12, above
    # tol_objective = 1e-12: the loop stops early on it, with bounds in order and
    # a minimizer that passed `_solve`'s density-matrix invariants
    loops = []
    monkeypatch.setattr(sdp, "_interior_point", lambda *args: loops.append(args) or _interior_point(*args))
    options = SdpOptions(max_iters=200, tol_objective=1e-12)
    sol = solve(build_cost(hirsch_state(1.0), options))
    assert len(loops) == 1
    assert sol.status == "infeasible_numerics"
    assert sol.objective_lb <= sol.objective
    assert sol.objective - sol.objective_lb > options.tol_objective
    assert sol.iterations < options.max_iters
    assert sol.residuals["psd_slack"] <= PSD_TOL and sol.residuals["trace_err"] <= TRACE_TOL
