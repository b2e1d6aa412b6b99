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
from .sdp import PARITY_PROJECTORS, SdpLayout, SdpOptions, SdpProblem, SdpSolution, solve
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
# the parity form's pt_map: T over A_d moves the parity label (see `sdp.SdpLayout`)
_PARITY_PT = np.kron(np.eye(2), _BELL_PT)
# H_theta = 1 - cos(theta) XX - sin(theta) ZZ, and XX and ZZ are +-1 on the Bell
# states, so H_{pi/4} = sum_k _BELL_H[k] _BELL[k] with h = (1 - sqrt 2, 1, 1, 1 + sqrt 2)
_BELL_H = 1.0 - math.cos(H_ANGLE) * np.array([1, -1, 1, -1]) - math.sin(H_ANGLE) * np.array([1, 1, -1, -1])
_BELL.flags.writeable = _BELL_PT.flags.writeable = _PARITY_PT.flags.writeable = _BELL_H.flags.writeable = False
# the parity form's gather: block s of tau^T is tau^T[sector_s, sector_s], with ParityState's sectors
_SECTORS = np.array(ParityState.sectors)
_SECTORS.flags.writeable = False
_PARITY_BLOCKS = (_SECTORS[:, :, None], _SECTORS[:, None, :])

__all__ = [
    "ACTIVATION_TOL",
    "DEFAULT_OPTIONS",
    "ActivationResult",
    "bisection_options",
    "build_cost",
    "certified_sign",
    "sigma_min",
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


def certified_sign(upper: float, lower: float) -> bool | None:
    """The indicator of certified bounds lower <= sigma <= upper against the cut -ACTIVATION_TOL.

    True when upper lies below the cut, False when lower lies at or above it, else None.
    """
    if upper < -ACTIVATION_TOL:
        return True
    if lower >= -ACTIVATION_TOL:
        return False
    return None


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


@lru_cache(maxsize=None)
def _layout(form: str, dims: tuple[int, int, int, int]) -> SdpLayout:
    """The layout of an activation form, "werner" or "isotropic" (twirled), "parity" or "bell", on dims.

    Built and validated once per form and dims, like `twirl_projectors`.
    In the twirled form PT over A_d maps span{P_sym, P_anti} (Werner) onto
    span{1 - Phi, Phi} (isotropic) and back; over A_q it acts on the Bell
    factor.  Its blocks have side 1, so its problems go to the simplex.
    """
    bell, d = (_BELL, (1, 3)), dims[0]
    if form == "parity":
        return SdpLayout(((PARITY_PROJECTORS, (2,)), bell), _PARITY_PT, dims, t1_split=2, relabel=(0, 2))
    if form == "bell":
        return SdpLayout((bell,), _BELL_PT, dims, t1_split=2)
    to_isotropic = [[0.5, 0.5], [(d + 1) / 2, -(d - 1) / 2]]
    to_werner = [[1 - 1 / d, 1 / d], [1 + 1 / d, -1 / d]]
    pt_map = np.kron(to_isotropic if form == "werner" else to_werner, _BELL_PT)
    pt_map.flags.writeable = False
    return SdpLayout(((twirl_projectors(form, d), (0, 2)), bell), pt_map, dims, t1_split=2)


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
    blocks h_k tau^T of side d_A d_B.  The layout is `_layout`'s, one per form and dims.
    """
    if isinstance(tau, TwirledState):
        blocks, form = np.asarray(tau.coeffs)[:, None, None], tau.algebra
    elif isinstance(tau, ParityState):
        blocks, form = tau.mat.T[_PARITY_BLOCKS], "parity"
    else:
        blocks, form = tau.mat.T[None], "bell"
    return SdpProblem(
        costs=(_BELL_H[:, None, None] * blocks[:, None]).reshape(-1, *blocks.shape[1:]),
        layout=_layout(form, _cost_dims(tau)),
        options=options or DEFAULT_OPTIONS,
    )


def sigma_min(
    tau: DensityMatrix | SdpProblem, options: SdpOptions | None = None, start: SdpSolution | None = None
) -> ActivationResult:
    """Minimize Tr[rho (tau^T x H_{pi/4})] over PPT ancillas; negative means activation.

    ``tau`` is the input, or its problem as `build_cost` built it, which
    carries its options (``options`` must then be None).  One `sdp.solve`
    from ``start``, the witness of an input of the same layout, when one is
    given: a `TwirledState` by the simplex on its scalar blocks, every
    other input by an SDP loop.  ``activated`` is the `certified_sign` of
    a certified solve's (converged or sign-decided) bounds, and None for any
    other solve or where the bounds settle neither side: a run out of
    budget or stalled, or a gap looser than the distance to the cut.
    """
    if isinstance(tau, SdpProblem):
        if options is not None:
            raise ValueError("a problem carries its own options")
        problem = tau
    else:
        problem = build_cost(tau, options)
    witness = solve(problem, start)
    certified = witness.status in ("converged", "decided")
    activated = certified_sign(witness.objective, witness.objective_lb) if certified else None
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
