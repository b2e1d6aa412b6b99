"""Constructors for the state families and fixed operators under study.

Computational basis order is |00>, |01>, |10>, |11> for two qubits, and
``psi_minus`` is (|01> - |10>)/sqrt(2).  All constructors return validated
``DensityMatrix`` values (or plain vectors for pure states); the Werner,
isotropic and wi states are `TwirledState` values that carry their exact
twirl decomposition, and the Hirsch states are `ParityState` values that
declare their Z x Z symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .linalg import DensityMatrix, check_density, kron

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_0, SIGMA_X, SIGMA_Y, SIGMA_Z)

FAMILIES = ("wi", "werner", "isotropic", "hirsch1", "hirsch2")

__all__ = [
    "PAULI",
    "SIGMA_0",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "FAMILIES",
    "FamilySpec",
    "TwirledState",
    "ParityState",
    "basis_ket",
    "psi_minus",
    "max_entangled",
    "magic_basis",
    "projector",
    "twirl_projectors",
    "twirl_ranks",
    "wi_state",
    "werner_state",
    "werner_coeffs",
    "werner_p_range",
    "isotropic_state",
    "hirsch_state",
    "h_theta",
    "ket0_projector",
]


def basis_ket(d: int, i: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def projector(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def ket0_projector() -> np.ndarray:
    """|0><0| on one qubit, the Hirsch bias state."""
    return projector(basis_ket(2, 0))


def psi_minus() -> np.ndarray:
    """The singlet vector (|01> - |10>)/sqrt(2)."""
    s = 1.0 / np.sqrt(2.0)
    return np.array([0.0, s, -s, 0.0], dtype=complex)


def max_entangled(d: int) -> np.ndarray:
    """Canonical maximally entangled vector (1/sqrt(d)) sum_i |ii>."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return np.eye(d, dtype=complex).ravel() / np.sqrt(d)


def magic_basis() -> list[np.ndarray]:
    """The magic basis: i^(a+b) (|0,b> + (-1)^a |1, 1 xor b>)/sqrt(2), order (a,b) = 00,01,10,11.

    An orthonormal set of four maximally entangled two-qubit vectors; the
    fully entangled fraction reduces to a real eigenvalue problem in it.
    """
    out = []
    for a in (0, 1):
        for b in (0, 1):
            v = np.zeros(4, dtype=complex)
            v[b] += 1.0                      # |0, b>
            v[2 + (1 ^ b)] += (-1.0) ** a    # |1, 1 xor b>
            out.append((1j ** (a + b)) * v / np.sqrt(2.0))
    return out


@lru_cache(maxsize=None)
def twirl_projectors(algebra: str, d: int) -> np.ndarray:
    """Read-only, real symmetric (P_sym, P_anti) of "werner" (U x U) or (1 - Phi, Phi) of "isotropic" (U x conj(U))."""
    eye = np.eye(d * d)
    if algebra == "werner":
        last = 0.5 * (eye - eye.reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d))
    elif algebra == "isotropic":
        last = projector(max_entangled(d)).real
    else:
        raise ValueError(f"unknown twirl algebra {algebra!r}")
    projectors = np.array([eye - last, last])
    projectors.flags.writeable = False
    return projectors


def twirl_ranks(algebra: str, d: int) -> tuple[int, int]:
    """The ranks Tr P_b of `twirl_projectors`: d(d+1)/2 and d(d-1)/2 (Werner), d^2 - 1 and 1 (isotropic)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if algebra == "werner":
        return d * (d + 1) // 2, d * (d - 1) // 2
    if algebra == "isotropic":
        return d * d - 1, 1
    raise ValueError(f"unknown twirl algebra {algebra!r}")


@dataclass(eq=False, init=False)
class TwirledState(DensityMatrix):
    """The twirl-invariant state whose ``mat`` is sum_b coeffs[b] twirl_projectors(algebra, d)[b].

    Werner, isotropic and wi states carry this exact decomposition (Vollbrecht
    & Werner, PRA 64, 062307, 2001), so the state is checked at construction
    from its coefficients alone: the projectors are orthogonal, so its
    spectrum is the coefficients with multiplicities `twirl_ranks`, and the
    checks of `DensityMatrix` read finiteness, trace and smallest eigenvalue
    off them.  It holds no matrix until ``mat`` is first read, which builds
    the matrix once through `DensityMatrix`'s own dense checks.
    """

    algebra: str
    coeffs: tuple[float, float]

    def __init__(self, algebra: str, d: int, coeffs: tuple[float, float]) -> None:
        ranks = twirl_ranks(algebra, d)
        self.algebra, self.coeffs, self.dims = algebra, coeffs, (int(d), int(d))
        check_density(
            bool(np.all(np.isfinite(coeffs))), lambda: ranks[0] * coeffs[0] + ranks[1] * coeffs[1], lambda: min(coeffs)
        )

    @cached_property
    def mat(self) -> np.ndarray:
        projectors = twirl_projectors(self.algebra, self.dims[0])
        return DensityMatrix(np.einsum("b,bij->ij", self.coeffs, projectors), self.dims).mat


class ParityState(DensityMatrix):
    """A two-qubit state that commutes with Z x Z: no entry couples its even and odd ``sectors``."""

    sectors = ([0, 3], [1, 2])
    # the entries between the sectors, as constant index arrays
    _coupling = np.ix_(*sectors)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.dims != (2, 2) or self.mat[self._coupling].any():
            raise ValueError("a parity state is a two-qubit state that commutes with Z x Z")


def wi_state(p: float) -> TwirledState:
    """Two-qubit Werner state p |psi-><psi-| + (1-p)/4 * I: the Werner state at d = 2."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"wi state requires 0 <= p <= 1, got {p}")
    return werner_state(2, p)


def werner_p_range(d: int) -> tuple[float, float]:
    """Admissible mixing range for the two-qudit Werner family."""
    return 1.0 - 2.0 * d / (d + 1.0), 1.0


def werner_coeffs(d: int, p: float) -> tuple[float, float]:
    """The (P_sym, P_anti) coefficients (w, w + 2p/(d(d-1))), w = (1-p)/d^2, of the Werner state at p."""
    if d < 2:
        raise ValueError("d must be >= 2")
    lo, hi = werner_p_range(d)
    if not lo - 1e-12 <= p <= hi + 1e-12:
        raise ValueError(f"werner d={d} requires {lo} <= p <= {hi}, got {p}")
    w = (1.0 - p) / d**2
    return w, w + 2.0 * p / (d * (d - 1))


def werner_state(d: int, p: float) -> TwirledState:
    """Two-qudit Werner state (2p/(d(d-1))) P_anti + (1-p)/d^2 * I."""
    return TwirledState("werner", d, werner_coeffs(d, p))


def isotropic_state(d: int, p: float) -> TwirledState:
    """Isotropic state p |psi_d><psi_d| + (1-p)/d^2 * I (d >= 2, checked by `max_entangled`)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"isotropic state requires 0 <= p <= 1, got {p}")
    w = (1.0 - p) / d**2
    return TwirledState("isotropic", d, (w, w + p))


# the parts of `hirsch_state`: |psi-><psi-|, |0><0| x I/2 and I/4
_SINGLET = projector(psi_minus())
_BIASED = kron(ket0_projector(), np.eye(2) / 2.0).real
_MIXED = np.eye(4) / 4.0
_SINGLET.flags.writeable = _BIASED.flags.writeable = _MIXED.flags.writeable = False


def hirsch_state(p: float, q: float = 1.0) -> ParityState:
    """Two-qubit Hirsch state p |psi-><psi-| + (1-p) [q |0><0| + (1-q) I/2] x I/2, a `ParityState`.

    The one-parameter family of interest is ``q = 1``.  Any other bias
    state sigma, with Bloch vector r, gives the state at weight q |r| up to
    a local unitary U x U, which leaves every property here unchanged.
    """
    if not 0.0 <= p <= 1.0 or not 0.0 <= q <= 1.0:
        raise ValueError(f"hirsch state requires 0 <= p, q <= 1, got p={p} q={q}")
    # (q |0><0| + (1-q) I/2) x I/2 = q |0><0| x I/2 + (1-q) I/4 to the bit: the factors 1/2 are exact
    mat = p * _SINGLET + (1.0 - p) * (q * _BIASED + (1.0 - q) * _MIXED)
    return ParityState(mat, (2, 2))


def h_theta(theta: float) -> np.ndarray:
    """The filter-witness operator 1x1 - cos(theta) XX - sin(theta) ZZ (4x4, real symmetric)."""
    return np.real(
        kron(SIGMA_0, SIGMA_0)
        - np.cos(theta) * kron(SIGMA_X, SIGMA_X)
        - np.sin(theta) * kron(SIGMA_Z, SIGMA_Z)
    )


@dataclass
class FamilySpec:
    """A one-parameter slice of a state family; ``state(p)`` builds the member at p.

    ``d`` applies to werner/isotropic, and the weight ``q`` in [0, 1] to
    hirsch2 (hirsch1 is hirsch2 pinned at q=1); the other families reject
    d != 2 and q != 1 respectively.
    """

    family: str
    d: int = 2
    q: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        # as `SdpOptions.max_iters`: a bool is an int subclass, and a float d
        # would fail only later, when a state is built
        if isinstance(self.d, bool) or not isinstance(self.d, (int, np.integer)):
            raise ValueError(f"d must be an integer, got {self.d!r}")
        if self.family in ("wi", "hirsch1", "hirsch2") and self.d != 2:
            raise ValueError(f"family {self.family} is two-qubit only")
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")
        if self.family != "hirsch2" and self.q != 1.0:
            raise ValueError(f"q applies to hirsch2 only, got q={self.q} for {self.family}")

    def state(self, p: float) -> DensityMatrix:
        if self.family == "wi":
            return wi_state(p)
        if self.family == "werner":
            return werner_state(self.d, p)
        if self.family == "isotropic":
            return isotropic_state(self.d, p)
        return hirsch_state(p, self.q)  # q = 1 for hirsch1

    def p_range(self) -> tuple[float, float]:
        if self.family == "werner":
            return werner_p_range(self.d)
        return 0.0, 1.0
