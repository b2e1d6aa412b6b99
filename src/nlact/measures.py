"""Closed-form property evaluators for two-qubit (and some two-qudit) states.

Covers: concurrence / entanglement of formation, the CHSH criterion on the
Pauli correlation matrix, the local-filtering (hidden nonlocality)
criterion, fully entangled fraction / teleportation usefulness, the
copy-count needed to superactivate nonlocality, the fixed two-dim filter on
Werner states, CGLMP values for every d >= 2, and the reference locality bounds.

The correlation matrix convention is t[n][m] = Tr[rho (sigma_n x sigma_m)]
with sigma_0 = I, yielding a 4x4 real matrix whose 3x3 lower block feeds
the CHSH criterion.  The concurrence and the filtering criterion both read
one spectral kernel, the Wootters values of the state (`_wootters_values`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import DensityMatrix, herm_eig, kron
from .states import PAULI, SIGMA_Y, TwirledState, magic_basis, werner_coeffs

DEGENERATE_TOL = 1e-12

CGLMP_DEFAULT_SETTINGS = (0.0, 0.5, 0.25, -0.25)


class HiddenNonlocality(NamedTuple):
    m_prime: float
    value: float
    indicator: bool
    margin: float  # chsh_margin of M' - 1; the indicator is margin > 0


class TeleportationUse(NamedTuple):
    fidelity: float
    value: float
    indicator: bool
    margin: float  # f2 - 1/2; the indicator is margin > 0


class PopescuFilter(NamedTuple):
    filtered: TwirledState
    weight: float  # the filter's success probability, the trace of the kept block


class ReferenceBound(NamedTuple):
    value: float
    provenance: str
    note: str


def _require_two_qubits(rho: DensityMatrix) -> None:
    if rho.dims != (2, 2):
        raise ValueError(f"a two-qubit state is required, got dims {rho.dims}")


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x), with h(0) = h(1) = 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def _entropy_form(b: float) -> float:
    # common h((1 + sqrt(1 - b^2))/2) shape shared by EoF/CHSH/HN values
    b = min(max(b, 0.0), 1.0)
    return binary_entropy((1.0 + math.sqrt(1.0 - b * b)) / 2.0)


def _wootters_values(rho: DensityMatrix) -> np.ndarray:
    """The Wootters values w1 >= w2 >= w3 >= w4 of a two-qubit state (PRL 80, 2245 (1998)).

    The w_i are square roots of the eigenvalues of rho @ rho_tilde with
    rho_tilde = (YxY) rho* (YxY).  They are computed as the singular
    values of K = sqrt(rho) (YxY) sqrt(rho)*, whose Gram matrix K K^dag
    is the Hermitian product sqrt(rho) rho_tilde sqrt(rho) similar to
    rho @ rho_tilde; going through singular values avoids the sqrt-of-
    round-off noise of eigenvalue clamping near zero.
    """
    _require_two_qubits(rho)
    yy = kron(SIGMA_Y, SIGMA_Y)
    eig = herm_eig(rho.mat)
    sqrt_rho = (eig.vectors * np.sqrt(np.clip(eig.values, 0.0, None))) @ eig.vectors.conj().T
    return np.linalg.svd(sqrt_rho @ yy @ sqrt_rho.conj(), compute_uv=False)


def concurrence_margin(rho: DensityMatrix) -> float:
    """Wootters' w1 - w2 - w3 - w4: the concurrence before its max{0, .}, > 0 iff entangled."""
    w = _wootters_values(rho)
    return float(w[0] - w[1] - w[2] - w[3])


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence max{0, l1 - l2 - l3 - l4} of a two-qubit state."""
    return max(0.0, concurrence_margin(rho))


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation h((1 + sqrt(1 - C^2))/2) at concurrence C (0 for C <= 0).

    It underflows to 0 for 0 < C below about 2e-8, so entanglement is read
    from the concurrence, not from this value.
    """
    return _entropy_form(c)


def eof(rho: DensityMatrix) -> float:
    """Entanglement of formation of a two-qubit state."""
    return eof_from_concurrence(concurrence(rho))


def pure_eof(psi: np.ndarray, dims: tuple[int, int]) -> float:
    """Entropy of entanglement -Tr(rho_A log2 rho_A) of a bipartite pure state."""
    psi = np.asarray(psi, dtype=complex)
    if len(dims) != 2:
        raise ValueError(f"a bipartite state needs two dims, got {dims}")
    da, db = int(dims[0]), int(dims[1])
    if psi.shape != (da * db,):
        raise ValueError(f"vector length {psi.shape} does not match dims {dims}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("pure state vector must be normalized")
    # Schmidt coefficients via SVD of the coefficient matrix
    s = np.linalg.svd(psi.reshape(da, db), compute_uv=False)
    probs = s * s
    probs = probs[probs > 1e-15]
    return float(-np.sum(probs * np.log2(probs)))


def correlation_matrix(rho: DensityMatrix) -> np.ndarray:
    """4x4 Pauli correlation table t[n][m] = Tr[rho (sigma_n x sigma_m)]."""
    _require_two_qubits(rho)
    t = np.empty((4, 4))
    for n in range(4):
        for m in range(4):
            t[n, m] = np.trace(rho.mat @ kron(PAULI[n], PAULI[m])).real
    return t


def chsh_M(rho: DensityMatrix) -> float:
    """Sum of the two largest eigenvalues of T^T T (3x3 block); CHSH violated iff > 1."""
    t3 = correlation_matrix(rho)[1:, 1:]
    u = np.linalg.eigvalsh(t3.T @ t3)
    return float(u[-1] + u[-2])


def chsh_margin(excess: float) -> float:
    """2 sqrt(M) - 2, the CHSH excess over the local bound 2, from excess = M - 1.

    Written as 2(M - 1)/(sqrt(M) + 1), which has the exact sign of M - 1;
    it is nearly affine in the state's mixing parameter where M is
    quadratic in it, which is what a root search on it wants.
    """
    return 2.0 * excess / (math.sqrt(max(0.0, 1.0 + excess)) + 1.0)


def chsh_value(rho: DensityMatrix) -> float:
    """Entropy-scaled CHSH violation h((1 + sqrt(1 - B^2))/2), B = sqrt(max{0, M-1}).

    Zero exactly when the state does not violate CHSH; 1 for the singlet.
    """
    return _entropy_form(math.sqrt(max(0.0, chsh_M(rho) - 1.0)))


def hidden_nonlocality(rho: DensityMatrix) -> HiddenNonlocality:
    """Local-filtering criterion of a two-qubit state, from its Wootters values.

    The optimally filtered CHSH quantity is M' = (l1 + l2)/l0 over the
    eigenvalues l0 >= ... >= l3 of C = eta T eta T^T (T the Pauli correlation
    matrix, eta = diag(1, -1, -1, -1)); a filter makes the state violate
    CHSH iff M' > 1.  The l_i and the Wootters values w1 >= ... >= w4
    (`_wootters_values`) are both covariant under SL(2,C) x SL(2,C) filters,
    and in the Bell-diagonal normal form (Verstraete, Dehaene & De Moor,
    PRA 64, 010101(R) (2001)) the l_i are, up to a common factor,
    (s^2, a^2, b^2, c^2) with s = w1 + w2 + w3 + w4, a = w1 + w2 - w3 - w4,
    b = w1 - w2 + w3 - w4 and c = w1 - w2 - w3 + w4: so M' = (a^2 + b^2)/s^2.
    Both sides are continuous in rho, so this also holds for states with no
    diagonal normal form, such as the Hirsch states.  The value is the
    entropy scaling used for CHSH.  A product corner (s = 0: rho rho_tilde
    = 0) reads M' = 1, its supremum over filters, with value 0 and margin 0.
    """
    w1, w2, w3, w4 = _wootters_values(rho)
    s = w1 + w2 + w3 + w4
    if s <= DEGENERATE_TOL:
        return HiddenNonlocality(1.0, 0.0, False, 0.0)
    a = w1 + w2 - w3 - w4
    b = w1 - w2 + w3 - w4
    m_prime = float((a * a + b * b) / (s * s))
    value = _entropy_form(math.sqrt(max(0.0, m_prime - 1.0)))
    margin = chsh_margin(float((a * a + b * b - s * s) / (s * s)))
    return HiddenNonlocality(m_prime, value, margin > 0.0, margin)


def fef2(rho: DensityMatrix) -> float:
    """Fully entangled fraction of a two-qubit state via the magic basis.

    Largest eigenvalue (clamped at zero) of M[m][n] = Re <psi_m|rho|psi_n>.
    """
    _require_two_qubits(rho)
    basis = magic_basis()
    m = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            m[i, j] = (basis[i].conj() @ rho.mat @ basis[j]).real
    m = 0.5 * (m + m.T)  # kill asymmetric round-off
    return float(max(0.0, np.linalg.eigvalsh(m)[-1]))


def sa_value(rho: DensityMatrix) -> TeleportationUse:
    """Teleportation usefulness of a two-qubit state: F2 = (2 f2 + 1)/3.

    ``value`` is the positive part of F2 - 2/3, ``margin`` is f2 - 1/2 and
    ``indicator`` is margin > 0; a true indicator implies the state is k-copy
    nonlocal.
    """
    f2 = fef2(rho)
    fot = (2.0 * f2 + 1.0) / 3.0
    margin = f2 - 0.5
    return TeleportationUse(fot, max(0.0, fot - 2.0 / 3.0), margin > 0.0, margin)


def fef_isotropic(d: int, p: float) -> float:
    """Fully entangled fraction p + (1-p)/d^2 of the isotropic family.

    By the twirling symmetry the canonical maximally entangled state
    attains the maximum; the value exceeds 1/d exactly when p > 1/(d+1).
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"isotropic family requires 0 <= p <= 1, got {p}")
    return p + (1.0 - p) / d**2


def k_factor(d: int, f: float) -> int | None:
    """Smallest copy count k certifying superactivation at dimension d and FEF f.

    k must satisfy [4 / (e^4 (ln d)^2)] (f d)^k / k^2 > 1; returns None
    when f*d <= 1 (no finite guarantee).  Beyond the turning point
    k = 2/ln(fd) the left side is increasing, so a doubling search plus
    bisection finds the exact smallest integer.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"FEF must lie in [0, 1], got {f}")
    if f * d <= 1.0:
        return None
    log_c = math.log(4.0) - 4.0 - 2.0 * math.log(math.log(d))
    log_fd = math.log(f * d)

    def ok(k: int) -> bool:
        return log_c + k * log_fd - 2.0 * math.log(k) > 0.0

    if ok(1):
        return 1
    # the left side decreases up to k = 2/ln(fd) and increases afterwards,
    # so with k=1 failing the smallest solution sits on the rising branch
    k_turn = max(1, math.ceil(2.0 / log_fd))
    if ok(k_turn):
        return k_turn
    lo, hi = k_turn, 2 * k_turn
    while not ok(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def popescu_threshold(d: int) -> float:
    """Closed-form CHSH threshold 4(d-1)/(2d(sqrt(2)-1) + 4(d-1)) after the two-dim filter."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return 4.0 * (d - 1) / (2.0 * d * (math.sqrt(2.0) - 1.0) + 4.0 * (d - 1))


def popescu_filter(d: int, p: float) -> PopescuFilter:
    """Project a two-qudit Werner state onto the {|0>,|1>} x {|0>,|1>} block.

    The block of c_sym P_sym + c_anti P_anti (`werner_coeffs`) is the same sum
    of two-qubit projectors: the filtered state is the two-qubit Werner state
    (c_sym, c_anti) / weight, where the weight 3 c_sym + c_anti, the block's
    trace, is the filter's success probability.  d = 2 is the identity filter.
    """
    c_sym, c_anti = werner_coeffs(d, p)
    weight = 3.0 * c_sym + c_anti
    return PopescuFilter(TwirledState("werner", 2, (c_sym / weight, c_anti / weight)), weight)


def _fourier_modes(d: int, phase: float, conjugate_outcome: bool) -> np.ndarray:
    """Columns are the d outcome vectors of one Fourier-basis measurement setting."""
    j = np.arange(d).reshape(-1, 1)
    k = np.arange(d).reshape(1, -1)
    sign = -1.0 if conjugate_outcome else 1.0
    return np.exp(2j * np.pi * j * (sign * k + phase) / d) / np.sqrt(d)


def cglmp_value(
    rho: DensityMatrix,
    settings: tuple[float, float, float, float] = CGLMP_DEFAULT_SETTINGS,
) -> float:
    """CGLMP Bell value I_d of a d x d state; the local bound is 2.

    Measurements are Fourier modes with phases (alpha_1, alpha_2) for
    Alice and outcome-conjugate modes with (beta_1, beta_2) for Bob; the
    defaults (0, 1/2, 1/4, -1/4) are the standard optimal settings for
    the canonical maximally entangled state.
    """
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise ValueError(f"a d x d state is required, got dims {rho.dims}")
    d = rho.dims[0]
    if d < 2:
        raise ValueError(f"cglmp requires d >= 2, got d={d}")
    a1, a2, b1, b2 = settings
    alice = [_fourier_modes(d, a, False) for a in (a1, a2)]
    bob = [_fourier_modes(d, b, True) for b in (b1, b2)]

    # joint[a][b][x, y] = P(A_a = x, B_b = y)
    joint = {}
    for a in (0, 1):
        for b in (0, 1):
            m = kron(alice[a], bob[b])  # columns are product outcome vectors
            joint[a, b] = (m.conj() * (rho.mat @ m)).sum(axis=0).real.reshape(d, d)

    def p_a_eq_b_plus(a: int, b: int, k: int) -> float:
        pm = joint[a, b]
        return float(sum(pm[(y + k) % d, y] for y in range(d)))

    def p_b_eq_a_plus(a: int, b: int, k: int) -> float:
        pm = joint[a, b]
        return float(sum(pm[x, (x + k) % d] for x in range(d)))

    total = 0.0
    for k in range(d // 2):
        weight = 1.0 - 2.0 * k / (d - 1)
        total += weight * (
            p_a_eq_b_plus(0, 0, k)
            + p_b_eq_a_plus(1, 0, k + 1)
            + p_a_eq_b_plus(1, 1, k)
            + p_b_eq_a_plus(0, 1, k)
            - p_a_eq_b_plus(0, 0, -k - 1)
            - p_b_eq_a_plus(1, 0, -k)
            - p_a_eq_b_plus(1, 1, -k - 1)
            - p_b_eq_a_plus(0, 1, -k - 1)
        )
    return total


# Locality thresholds are not computable by this package (they require
# explicit local-model constructions); they are carried as constants and
# closed forms from the literature, labeled by provenance.

def reference_bounds(family: str, d: int = 2) -> dict[str, ReferenceBound]:
    """Stored entanglement/locality reference bounds for one family row."""
    if family == "wi":
        return {
            "p_E": ReferenceBound(1.0 / 3.0, "paper-constant", "concurrence zero crossing"),
            "p_L": ReferenceBound(0.6595, "paper-constant", "best projective-locality bound"),
            "p_NL_refined": ReferenceBound(0.7054, "paper-constant", "refined nonlocality bound"),
        }
    if family == "werner":
        if d < 2:
            raise ValueError("d must be >= 2")
        if d == 2:
            return reference_bounds("wi")  # the d=2 row is the WI family
        return {
            "p_E": ReferenceBound(1.0 / (d + 1), "paper-constant", "entanglement bound 1/(d+1)"),
            "p_L": ReferenceBound((d - 1.0) / d, "paper-constant", "locality bound (d-1)/d"),
            "p_HN_filtered": ReferenceBound(
                popescu_threshold(d), "paper-constant", "closed-form filtered-CHSH threshold"
            ),
        }
    if family == "isotropic":
        if d < 2:
            raise ValueError("d must be >= 2")
        if d == 2:
            return reference_bounds("wi")
        harmonic = sum(1.0 / k for k in range(1, d + 1))
        return {
            "p_E": ReferenceBound(1.0 / (d + 1), "paper-constant", "entanglement bound 1/(d+1)"),
            "p_L": ReferenceBound(
                (harmonic - 1.0) / (d - 1), "paper-constant", "locality bound (-1 + H_d)/(d-1)"
            ),
        }
    if family in ("hirsch1", "hirsch2"):
        return {
            "p_L": ReferenceBound(0.5, "paper-constant", "locality bound for the one-parameter family"),
        }
    raise ValueError(f"unknown family {family!r}")
