import numpy as np
import pytest

from nlact.linalg import (
    DensityMatrix,
    herm_eig,
    is_hermitian,
    kron,
    min_eig,
    partial_trace,
    partial_transpose,
    permute_systems,
)
from nlact.rand import random_density, random_separable
from nlact.states import SIGMA_X, SIGMA_Z, projector, psi_minus


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_zz():
    assert np.allclose(kron(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]))


def test_kron_trace_multiplicative(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


def test_kron_associative(rng):
    for _ in range(10):
        a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
        assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) < 1e-13


def test_permute_identity(rng):
    rho = random_density((2, 3), rng)
    out = permute_systems(rho, (0, 1))
    assert np.max(np.abs(out.mat - rho.mat)) < 1e-15


def test_permute_swap_product(rng):
    a = random_density((2,), rng)
    b = random_density((3,), rng)
    rho = DensityMatrix(kron(a.mat, b.mat), (2, 3))
    out = permute_systems(rho, (1, 0))
    assert out.dims == (3, 2)
    assert np.max(np.abs(out.mat - kron(b.mat, a.mat))) < 1e-14


def test_permute_roundtrip(rng):
    rho = random_density((2, 3, 2), rng)
    perm = (2, 0, 1)
    inverse = tuple(np.argsort(perm))
    back = permute_systems(permute_systems(rho, perm), inverse)
    assert np.max(np.abs(back.mat - rho.mat)) <= 1e-14


def test_permute_preserves_spectrum(rng):
    rho = random_density((2, 2, 3), rng)
    w0 = np.linalg.eigvalsh(rho.mat)
    w1 = np.linalg.eigvalsh(permute_systems(rho, (2, 1, 0)).mat)
    assert np.max(np.abs(w0 - w1)) < 1e-10


def test_permute_bad_permutation(rng):
    rho = random_density((2, 2), rng)
    with pytest.raises(ValueError, match="bad permutation"):
        permute_systems(rho, (0, 0))


def test_partial_trace_singlet():
    rho = DensityMatrix(projector(psi_minus()), (2, 2))
    red = partial_trace(rho, [0])
    assert np.max(np.abs(red.mat - np.eye(2) / 2)) < 1e-14


def test_partial_trace_product(rng):
    a = random_density((2,), rng)
    b = random_density((3,), rng)
    rho = DensityMatrix(kron(a.mat, b.mat), (2, 3))
    assert np.max(np.abs(partial_trace(rho, [0]).mat - a.mat)) < 1e-13
    assert np.max(np.abs(partial_trace(rho, [1]).mat - b.mat)) < 1e-13


def test_partial_trace_preserves_trace(rng):
    for _ in range(100):
        rho = random_density((3, 3), rng)
        assert abs(partial_trace(rho, [1]).mat.trace() - 1.0) < 1e-12


def test_partial_trace_empty_keep(rng):
    with pytest.raises(ValueError, match="non-empty"):
        partial_trace(random_density((2, 2), rng), [])


def test_partial_transpose_singlet():
    rho = DensityMatrix(projector(psi_minus()), (2, 2))
    assert abs(min_eig(partial_transpose(rho, 0)) + 0.5) < 1e-12


def test_partial_transpose_product_psd(rng):
    a = random_density((2,), rng)
    b = random_density((2,), rng)
    rho = DensityMatrix(kron(a.mat, b.mat), (2, 2))
    assert min_eig(partial_transpose(rho, 0)) >= -1e-12


def test_partial_transpose_involution(rng):
    rho = random_density((2, 3), rng)
    pt = partial_transpose(rho, 0)
    rho2 = DensityMatrix(
        np.asarray(pt).reshape(2, 3, 2, 3).transpose(2, 1, 0, 3).reshape(6, 6), (2, 3)
    )
    assert np.max(np.abs(rho2.mat - rho.mat)) <= 1e-14


def test_partial_transpose_separable_psd(rng):
    for _ in range(25):
        rho = random_separable((2, 2), rng)
        assert min_eig(partial_transpose(rho, 0)) >= -1e-10


def test_herm_eig_diagonal():
    eig = herm_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(eig.values, [3.0, 2.0, 1.0])


def test_herm_eig_pauli_x():
    assert np.allclose(herm_eig(SIGMA_X).values, [1.0, -1.0])


def test_herm_eig_reconstruction(rng):
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    h = a + a.conj().T
    eig = herm_eig(h)
    scale = np.linalg.norm(h)
    rebuilt = (eig.vectors * eig.values) @ eig.vectors.conj().T
    assert np.max(np.abs(rebuilt - h)) <= 1e-10 * scale
    gram = eig.vectors.conj().T @ eig.vectors
    assert np.max(np.abs(gram - np.eye(16))) <= 1e-10


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_min_eig_cases():
    assert abs(min_eig(np.eye(4)) - 1.0) < 1e-14
    assert abs(min_eig(projector(psi_minus()))) < 1e-14


def test_density_matrix_validation(rng):
    good = random_density((2, 2), rng)
    DensityMatrix(good.mat, (2, 2))  # no raise
    skewed = good.mat.copy()
    skewed[0, 1] += 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(skewed, (2, 2))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(2.0 * good.mat, (2, 2))
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]), (2, 2))
    with pytest.raises(ValueError, match="dims"):
        DensityMatrix(good.mat, (2, 3))
    # a 0-d input is refused by the shape check, not by indexing its missing axis
    for bad in (np.array(1.0), np.ones(4), np.ones((2, 3))):
        with pytest.raises(ValueError, match="must be square"):
            DensityMatrix(bad, ())


def test_density_matrix_rejects_non_finite_entries():
    # inf - inf in the Hermiticity test would be a numpy warning, not the ValueError
    for bad in (np.inf, np.nan):
        mat = np.eye(4) / 4.0
        mat[0, 0] = bad
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(mat, (2, 2))


def test_is_hermitian_on_stacks(rng):
    stack = np.array([random_density((2, 2), rng).mat for _ in range(3)])
    assert is_hermitian(stack) and is_hermitian(stack[0])
    skewed = stack.copy()
    skewed[1, 0, 1] += 1e-6
    assert not is_hermitian(skewed)
    for bad in (np.inf, -np.inf, np.nan):
        broken = stack.copy()
        broken[2, 3, 3] = bad
        assert not is_hermitian(broken) and not is_hermitian(broken[2])
    assert not is_hermitian(np.ones((2, 3))) and not is_hermitian(np.ones(4))
