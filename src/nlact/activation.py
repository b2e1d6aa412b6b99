"""Tensoring + local-filtering activation test for a bipartite input state.

For an input tau on d_A x d_B, the ancilla variable lives on
(d_A x 2) x (d_B x 2), grouped as [A_d, A_q, B_d, B_q] with the partial
transpose taken over the first party (A_d, A_q).  A certified negative
value of Tr[rho (tau^T x H_{pi/4})] over PPT ancillas rho witnesses that
tau tensor rho leaves the filtered-CHSH-satisfying set while rho itself
stays inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .linalg import DensityMatrix, kron, permute_mat
from .sdp import PARITY_PROJECTORS, SdpOptions, SdpProblem, SdpSolution, solve
from .states import PAULI, ParityState, TwirledState, h_theta, projector, twirl_projectors

ACTIVATION_TOL = 1e-6
# solver options of every activation solve that is given none
DEFAULT_OPTIONS = SdpOptions(tol_objective=1e-7)
H_ANGLE = math.pi / 4.0

# canonical variable order [A_d, A_q, B_d, B_q] from the natural cost order
# [A_d, B_d, A_q, B_q]; the permutation is its own inverse
_COST_PERM = (0, 2, 1, 3)

# The Bell projectors on [A_q, B_q], in the order (Phi+, Phi-, Psi+, Psi-).  The
# partial transpose over A_q maps Bell-diagonal operators onto Bell-diagonal
# ones, PT(P_b) = sum_c _BELL_PT[c, b] P_c, and is an involution.
_BELL = np.array(
    [projector(np.array(v) / math.sqrt(2)) for v in ((1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0), (0, 1, -1, 0))]
)
_BELL_PT = 0.5 * np.array([[1, 1, 1, -1], [1, 1, -1, 1], [1, -1, 1, 1], [-1, 1, 1, 1]])
# the parity form's pt_map: T over A_d moves the parity label (see `sdp.SdpProblem`)
_PARITY_PT = np.kron(np.eye(2), _BELL_PT)
# H_theta = 1 - cos(theta) XX - sin(theta) ZZ, and XX and ZZ are +-1 on the Bell
# states, so H_{pi/4} = sum_k _BELL_H[k] _BELL[k] with h = (1 - sqrt 2, 1, 1, 1 + sqrt 2)
_BELL_H = 1.0 - math.cos(H_ANGLE) * np.array([1, -1, 1, -1]) - math.sin(H_ANGLE) * np.array([1, 1, -1, -1])

# The bases of the twirled form's linear program (eight scalar blocks; see
# `sdp.LpVertex`) that are optimal somewhere on a Werner, wi or isotropic path
# [max(lo, 0), hi] at d = 2..8: their vertex is feasible and their multipliers
# are dual feasible, both within `sdp.VERTEX_TOL`, at some p there.  Each word
# lists a basis's seven active rows of (I; pt_map) in hex.  Enumerating all
# C(16, 7) bases takes tens of milliseconds per (algebra, d), so the table is
# pinned; tests/test_sweep.py rebuilds it.
TWIRLED_BASES = np.array(
    [
        [int(row, 16) for row in word]
        for word in """
        0567bcd 0567bce 0567bde 134567b 13457bd 13457bf 134679b 13467bd 13467bf 13479bd 13479bf
        1347bdf 13567bd 13567bf 1357bcf 1357bef 13679bf 1367bdf 1379bcf 1379bef 137bcdf 137bcef
        137bdef 234567b 23457ab 23457be 23457bf 23467be 23467bf 2347abe 2347abf 2347bef 23567be
        23567bf 2357abf 2357bef 2367bcf 2367bdf 237abcf 237abdf 237bcdf 237bcef 237bdef 345679b
        34567ab 34567bd 34567be 34579bd 34579bf 3457abe 3457abf 3457bdf 3457bef 34679bd 34679bf
        3467abe 3467abf 3467bdf 3467bef 3479bdf 347abef 35679bd 35679bf 3567abe 3567abf 3567bde
        3567bdf 3567bef 3579bcf 3579bef 357abef 357bcdf 357bcef 357bdef 3679bdf 367abcf 367abdf
        367bcdf 367bcef 367bdef 379bcdf 379bcef 379bdef 37abcdf 37abcef 37abdef 567bcde
        """.split()
    ]
)
TWIRLED_BASES.flags.writeable = False

__all__ = [
    "ACTIVATION_TOL",
    "DEFAULT_OPTIONS",
    "ActivationResult",
    "bisection_options",
    "build_cost",
    "sigma_min",
    "TWIRLED_BASES",
    "ancilla_R",
    "verify_ancilla",
]


@dataclass
class ActivationResult:
    sigma: float
    witness: SdpSolution
    activated: bool | None


def bisection_options(options: SdpOptions | None = None) -> SdpOptions:
    """The sign-only form of ``options`` (default `DEFAULT_OPTIONS`): stop once the bounds settle the cut.

    A sign decision against the activation cut certifies orders of
    magnitude earlier than the full gap on near-threshold instances, at
    the price of a loose reported value; use only where the indicator is
    all that matters.  A cut that is already set is kept.
    """
    options = options or DEFAULT_OPTIONS
    return options if options.objective_cut is not None else replace(options, objective_cut=-ACTIVATION_TOL)


@lru_cache(maxsize=None)
def _twirled_pt(algebra: str, d: int) -> np.ndarray:
    """Read-only pt_map of the twirled form: it depends on the algebra and d only.

    The partial transpose over A_d maps span{P_sym, P_anti} (Werner) onto
    span{1 - Phi, Phi} (isotropic) and back; over A_q it acts on the Bell
    factor.
    """
    to_isotropic = [[0.5, 0.5], [(d + 1) / 2, -(d - 1) / 2]]
    to_werner = [[1 - 1 / d, 1 / d], [1 + 1 / d, -1 / d]]
    pt_map = np.kron(to_isotropic if algebra == "werner" else to_werner, _BELL_PT)
    pt_map.flags.writeable = False
    return pt_map


def _cost_dims(tau: DensityMatrix) -> tuple[int, int, int, int]:
    """The activation problem's dims [A_d, A_q, B_d, B_q] for a bipartite tau."""
    if len(tau.dims) != 2:
        raise ValueError(f"tau must be bipartite, got dims {tau.dims}")
    da, db = tau.dims
    return da, 2, db, 2


def _dense_cost(tau: DensityMatrix) -> np.ndarray:
    """The activation cost tau^T x H_{pi/4} as a dense matrix in canonical subsystem order."""
    da, db = tau.dims
    return permute_mat(kron(tau.mat.T, h_theta(H_ANGLE)), (da, db, 2, 2), _COST_PERM)


def build_cost(tau: DensityMatrix, options: SdpOptions | None = None) -> SdpProblem:
    """Assemble the SDP for tau: cost tau^T x H_{pi/4} in canonical subsystem order.

    The problem is a block form; its dense cost is derived from the blocks
    only when ``cost`` is read.  tau^T's blocks compose with the ancilla's
    Bell basis B_k on [A_q, B_q], where H_{pi/4} = sum_k h_k B_k: conjugation
    by 1 x s_g x 1 x s_g on [A_d, A_q, B_d, B_q], for each Pauli s_g, fixes
    the cost, the PSD cone, the trace and the partial transpose over
    (A_d, A_q), since conj(s_y) = -s_y, so some optimum is Bell-diagonal on
    the ancilla.  A `TwirledState` (Werner, isotropic, wi) sum_b c_b P_b
    gives its declared coefficients, which tau^T shares as every P_b is real
    symmetric: eight scalar blocks c_b h_k on P_b x B_k whatever d is.  A
    `ParityState` (Hirsch) commutes with Z x Z on [A_d, B_d], whose
    conjugation fixes the cones and the trace, so some optimum is
    parity-block-diagonal: in the basis |a, a xor b> of [A_d, B_d] the
    parity is Z on B_d, and the cost is eight blocks h_k tau^T_pi of side 2
    over the sectors pi.  Every other
    input (random states, a plain copy of either) is one block tau^T: four
    blocks h_k tau^T of side d_A d_B.
    """
    if isinstance(tau, TwirledState):
        d = tau.dims[0]
        blocks = np.asarray(tau.coeffs)[:, None, None]
        symmetry = ((twirl_projectors(tau.algebra, d), (0, 2)),)
        pt_map = _twirled_pt(tau.algebra, d)
    elif isinstance(tau, ParityState):
        blocks = np.array([tau.mat.T[np.ix_(sector, sector)] for sector in tau.sectors])
        symmetry, pt_map = ((PARITY_PROJECTORS, (2,)),), _PARITY_PT
    else:
        blocks, symmetry, pt_map = tau.mat.T[None], (), _BELL_PT
    return SdpProblem(
        costs=(_BELL_H[:, None, None] * blocks[:, None]).reshape(-1, *blocks.shape[1:]),
        factors=(*symmetry, (_BELL, (1, 3))),
        pt_map=pt_map,
        dims=_cost_dims(tau),
        t1_split=2,
        options=options or DEFAULT_OPTIONS,
        relabel=(0, 2) if isinstance(tau, ParityState) else None,
    )


def sigma_min(tau: DensityMatrix, options: SdpOptions | None = None) -> ActivationResult:
    """Minimize Tr[rho (tau^T x H_{pi/4})] over PPT ancillas; negative means activation.

    ``activated`` is True when a certified solve (converged or
    sign-decided) puts its upper bound below -ACTIVATION_TOL, False when it
    puts its lower bound at or above it, and None when the solve certifies
    neither: a run out of budget or stalled, or a gap looser than the
    distance to the cut.
    """
    witness = solve(build_cost(tau, options))
    activated = None
    if witness.status in ("converged", "decided"):
        if witness.objective < -ACTIVATION_TOL:
            activated = True
        elif witness.objective_lb >= -ACTIVATION_TOL:
            activated = False
    return ActivationResult(sigma=witness.objective, witness=witness, activated=activated)


@lru_cache(maxsize=1)
def _ancilla_R_mat() -> np.ndarray:
    r = np.array(
        [
            [9.0, 3.0, 3.0, 3.0],
            [1.0, -1.0, 3.0, -1.0],
            [1.0, -1.0, 3.0, -1.0],
            [1.0, -1.0, 3.0, -1.0],
        ]
    ) / 9.0
    mat = np.zeros((16, 16), dtype=complex)
    for i in range(4):
        for j in range(4):
            # sigma_i on the two qudit slots, sigma_j on the two ancilla qubits,
            # written in the natural order [A_d, B_d, A_q, B_q]
            mat += r[i, j] * kron(PAULI[i], PAULI[i], PAULI[j], PAULI[j])
    mat /= 16.0
    return permute_mat(mat, (2, 2, 2, 2), _COST_PERM)


def ancilla_R() -> DensityMatrix:
    """The explicit Pauli-string ancilla that activates the two-qubit Werner family.

    Returned in the canonical subsystem order [A_d, A_q, B_d, B_q]; it is
    PSD and PPT across the (A_d, A_q) cut, so it certifies activation for
    every input where its trace value goes negative.
    """
    return DensityMatrix(_ancilla_R_mat(), (2, 2, 2, 2))


def verify_ancilla(tau: DensityMatrix, rho: DensityMatrix) -> tuple[float, bool]:
    """Trace value of a fixed ancilla against the activation cost for tau.

    ``rho`` must use the canonical subsystem order; returns the trace value
    and whether it is negative (activation witnessed at this single point).
    """
    dims = _cost_dims(tau)
    if rho.dims != dims:
        raise ValueError(f"ancilla dims {rho.dims} do not match cost dims {dims}")
    value = float(np.trace(rho.mat @ _dense_cost(tau)).real)
    return value, value < 0.0
