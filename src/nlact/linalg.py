"""Dense complex-matrix kernel for multipartite density operators.

Conventions
-----------
- Subsystems are listed left to right: ``dims[0]`` is the leftmost tensor
  factor, and a basis label ``|i_0, i_1, ...>`` maps to the row-major flat
  index ``i_0 * (d_1 * d_2 * ...) + i_1 * (d_2 * ...) + ...``.
- Eigenvalues are always returned sorted in decreasing order (the CHSH and
  hidden-nonlocality criteria read off "the biggest" eigenvalues).
- The numerical tolerances below are the single source of truth for the
  whole package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
HERM_INPUT_TOL = 1e-10

__all__ = [
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "PSD_TOL",
    "DensityMatrix",
    "check_density",
    "EigenDecomposition",
    "kron",
    "is_hermitian",
    "herm_eig",
    "min_eig",
    "permute_mat",
    "permute_systems",
    "partial_trace",
    "partial_transpose",
    "partial_transpose_mat",
]


def kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left to right."""
    out = np.asarray(ops[0])
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op))
    return out


def is_hermitian(mat: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """Whether a square matrix, or each of a stack, is finite and Hermitian within tol."""
    mat = np.asarray(mat)
    square = mat.ndim >= 2 and mat.shape[-1] == mat.shape[-2]
    return square and np.all(np.isfinite(mat)) and np.max(np.abs(mat - mat.conj().swapaxes(-1, -2))) <= tol


def check_density(hermitian: bool, trace: Callable[[], complex], lowest: Callable[[], float]) -> tuple[complex, float]:
    """The invariants of a `DensityMatrix` in their order, each read only once the earlier ones hold.

    Raises the ``ValueError`` of the first that fails: finite and Hermitian within `HERMITICITY_TOL`,
    trace 1 within `TRACE_TOL`, smallest eigenvalue at least -`PSD_TOL`.  Returns the trace and that eigenvalue.
    """
    if not hermitian:
        raise ValueError(f"density matrix is not Hermitian within {HERMITICITY_TOL}")
    tr = trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {tr} is not 1 within {TRACE_TOL}")
    lo = lowest()
    if lo < -PSD_TOL:
        raise ValueError(f"smallest eigenvalue {lo} below {-PSD_TOL}")
    return tr, lo


@dataclass(eq=False)
class DensityMatrix:
    """A validated quantum state: Hermitian, PSD, unit trace, with subsystem dims.

    Raises ``ValueError`` on construction if any invariant fails (`check_density`).
    """

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        self.mat = np.asarray(self.mat, dtype=complex)
        self.dims = tuple(int(d) for d in self.dims)
        if self.mat.ndim != 2 or self.mat.shape[0] != self.mat.shape[1]:
            raise ValueError("density matrix must be square")
        n = self.mat.shape[0]
        if any(d < 1 for d in self.dims) or int(np.prod(self.dims)) != n:
            raise ValueError(f"dims {self.dims} do not multiply to matrix side {n}")
        check_density(
            is_hermitian(self.mat, HERMITICITY_TOL), self.mat.trace, lambda: float(np.linalg.eigvalsh(self.mat)[0])
        )

    @property
    def n(self) -> int:
        return self.mat.shape[0]


@dataclass
class EigenDecomposition:
    """Spectral decomposition with eigenvalues sorted in decreasing order."""

    values: np.ndarray
    vectors: np.ndarray = field(repr=False)


def herm_eig(h: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    h = np.asarray(h)
    if not is_hermitian(h, HERM_INPUT_TOL):
        raise ValueError("input is not Hermitian within 1e-10")
    w, v = np.linalg.eigh(h)
    return EigenDecomposition(values=w[::-1].copy(), vectors=v[:, ::-1].copy())


def min_eig(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (PSD check helper)."""
    h = np.asarray(h)
    if not is_hermitian(h, HERM_INPUT_TOL):
        raise ValueError("input is not Hermitian within 1e-10")
    return float(np.linalg.eigvalsh(h)[0])


def permute_mat(mat: np.ndarray, dims: tuple[int, ...], perm: tuple[int, ...]) -> np.ndarray:
    """Reorder the tensor factors of an operator: new factor ``t`` is old factor ``perm[t]``."""
    dims = tuple(dims)
    k = len(dims)
    if sorted(perm) != list(range(k)):
        raise ValueError("bad permutation")
    n = int(np.prod(dims))
    axes = list(perm) + [p + k for p in perm]
    return (
        np.asarray(mat).reshape(dims + dims).transpose(axes).reshape(n, n)
    )


def permute_systems(rho: DensityMatrix, perm: tuple[int, ...]) -> DensityMatrix:
    """Reorder subsystems of a state; the spectrum is unchanged."""
    out = permute_mat(rho.mat, rho.dims, tuple(perm))
    return DensityMatrix(out, tuple(rho.dims[p] for p in perm))


def partial_trace(rho: DensityMatrix, keep: tuple[int, ...] | list[int]) -> DensityMatrix:
    """Reduced state on the ``keep`` subsystems (order preserved)."""
    keep = sorted(set(int(i) for i in keep))
    k = len(rho.dims)
    if not keep:
        raise ValueError("keep set must be non-empty")
    if any(i < 0 or i >= k for i in keep):
        raise ValueError(f"keep indices {keep} out of range for {k} subsystems")
    t = rho.mat.reshape(rho.dims + rho.dims)
    dims = list(rho.dims)
    for idx in sorted(set(range(k)) - set(keep), reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + len(dims))
        del dims[idx]
    n = int(np.prod(dims))
    return DensityMatrix(t.reshape(n, n), tuple(dims))


def partial_transpose_mat(
    mat: np.ndarray, dims: tuple[int, ...], subsystems: tuple[int, ...] | int
) -> np.ndarray:
    """Transpose the listed tensor factors of an operator, leaving the rest alone."""
    if isinstance(subsystems, int):
        subsystems = (subsystems,)
    dims = tuple(dims)
    k = len(dims)
    subsystems = set(int(i) for i in subsystems)
    if any(i < 0 or i >= k for i in subsystems):
        raise ValueError(f"subsystem indices {sorted(subsystems)} out of range")
    axes = [i + k if i in subsystems else i for i in range(k)]
    axes += [i if i in subsystems else i + k for i in range(k)]
    n = int(np.prod(dims))
    return np.asarray(mat).reshape(dims + dims).transpose(axes).reshape(n, n)


def partial_transpose(rho: DensityMatrix, subsystem: int = 0) -> np.ndarray:
    """Partial transpose of a state with respect to one subsystem.

    The output is Hermitian but in general not PSD, so a plain matrix is
    returned; its negativity is the PPT entanglement test.
    """
    return partial_transpose_mat(rho.mat, rho.dims, subsystem)
