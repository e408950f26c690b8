import cmath
import itertools
import math

import numpy as np
import pytest

from mixedwalk import linalg
from mixedwalk.errors import ContractViolationError, DimensionError


def leibniz_determinant(m):
    """Independent oracle: permutation expansion."""
    n = m.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):  # cycle decomposition parity
            if seen[start]:
                continue
            length, x = 0, start
            while not seen[x]:
                seen[x] = True
                x = perm[x]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= m[i, perm[i]]
        total += term
    return total


def interpolated_charpoly(m, points):
    """Independent oracle: fit the monic polynomial through det(xI - M) samples."""
    n = m.shape[0]
    vals = [leibniz_determinant(x * np.eye(n) - m) for x in points]
    vander = np.array([[x**k for k in range(n + 1)] for x in points], dtype=complex)
    coeffs, *_ = np.linalg.lstsq(vander, np.array(vals), rcond=None)
    return coeffs


def random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))


def test_determinant_identity():
    assert abs(linalg.determinant(np.eye(5)) - 1.0) < 1e-15


def test_determinant_single_digon():
    h = np.array([[0, 1], [1, 0]], dtype=complex)
    assert abs(linalg.determinant(h) - (-1.0)) < 1e-15


def test_determinant_matches_leibniz():
    rng = np.random.default_rng(2)
    for _ in range(5):
        m = random_complex(rng, 4)
        assert abs(linalg.determinant(m) - leibniz_determinant(m)) < 1e-10


def test_determinant_requires_square():
    with pytest.raises(DimensionError):
        linalg.determinant(np.zeros((2, 3)))


def test_charpoly_zero_matrix():
    coeffs = linalg.charpoly(np.zeros((4, 4)))
    expected = np.array([0, 0, 0, 0, 1], dtype=complex)
    assert np.max(np.abs(coeffs - expected)) < 1e-14


def test_charpoly_single_digon():
    # det(xI - [[0,1],[1,0]]) = x^2 - 1 by the 2x2 formula
    coeffs = linalg.charpoly(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.max(np.abs(coeffs - np.array([-1, 0, 1]))) < 1e-14


def test_charpoly_matches_interpolation():
    rng = np.random.default_rng(3)
    m = random_complex(rng, 5)
    points = [-2.5, -1.0, 0.3, 1.1, 2.2, 3.7]
    expected = interpolated_charpoly(m, points)
    assert np.max(np.abs(linalg.charpoly(m) - expected)) < 1e-8


def test_charpoly_leading_coefficient_is_monic():
    rng = np.random.default_rng(4)
    for n in (1, 3, 6):
        coeffs = linalg.charpoly(random_complex(rng, n))
        assert abs(coeffs[-1] - 1.0) < 1e-12


def test_hermitian_eigenvalues_swap_matrix():
    spec = linalg.hermitian_eigenvalues(np.array([[0, 1], [1, 0]], dtype=complex))
    assert [(round(v.real, 12), m) for v, m in spec.pairs] == [(-1.0, 1), (1.0, 1)]


def test_hermitian_eigenvalues_diagonal():
    d = np.diag([3.0, -1.0, -1.0, 0.5]).astype(complex)
    spec = linalg.hermitian_eigenvalues(d)
    assert sorted(spec.real_values()) == pytest.approx([-1.0, -1.0, 0.5, 3.0])
    assert dict((round(v.real, 9), m) for v, m in spec.pairs)[-1.0] == 2


def test_hermitian_eigenvalues_triangle():
    # adjacency of the undirected 3-cycle; roots of x^3 - 3x - 2 = (x-2)(x+1)^2
    a = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=complex)
    spec = linalg.hermitian_eigenvalues(a)
    assert [(round(v.real, 9), m) for v, m in spec.pairs] == [(-1.0, 2), (2.0, 1)]


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ContractViolationError):
        linalg.hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_eigenvalues_match_numpy():
    rng = np.random.default_rng(5)
    for n in (2, 4, 7, 10):
        b = random_complex(rng, n)
        h = (b + b.conj().T) / 2
        mine = sorted(linalg.hermitian_eigenvalues(h).real_values())
        ref = sorted(np.linalg.eigvalsh(h))
        assert max(abs(x - y) for x, y in zip(mine, ref)) < 1e-10


def test_distance_to_identity():
    assert linalg.distance_to_identity(np.eye(4)) == 0.0
    assert linalg.distance_to_identity(-np.eye(2)) == pytest.approx(2.0)
    z = cmath.exp(1j * math.pi / 4)
    expected = abs(z - 1)  # = 0.76537 to five places
    assert linalg.distance_to_identity(z * np.eye(3)) == pytest.approx(expected)
    assert round(expected, 5) == 0.76537


def test_determinant_equals_eigenvalue_product_for_hermitian():
    rng = np.random.default_rng(7)
    for n in (2, 5, 10):
        b = random_complex(rng, n)
        h = (b + b.conj().T) / 2
        prod = np.prod(linalg.hermitian_eigenvalues(h).expand())
        assert abs(linalg.determinant(h) - prod) < 1e-8


def test_charpoly_constant_term_is_signed_determinant():
    rng = np.random.default_rng(8)
    for n in (2, 4, 7):
        m = random_complex(rng, n)
        coeffs = linalg.charpoly(m)
        assert abs(coeffs[0] - (-1) ** n * linalg.determinant(m)) < 1e-8


def test_charpoly_vanishes_at_hermitian_eigenvalues():
    rng = np.random.default_rng(9)
    for n in (3, 6, 10):
        b = random_complex(rng, n)
        h = (b + b.conj().T) / 2
        coeffs = linalg.charpoly(h)
        for lam in linalg.hermitian_eigenvalues(h).expand():
            assert abs(np.polyval(coeffs[::-1], lam)) < 1e-6


def test_powering_drift_stays_small_over_ten_thousand_steps():
    rng = np.random.default_rng(10)
    q, _ = np.linalg.qr(random_complex(rng, 8))  # reference-built unitary
    acc = np.eye(8, dtype=complex)
    for step in range(1, 10_001):
        acc = acc @ q
        if step % linalg.RENORMALIZE_EVERY == 0:
            acc = linalg.project_to_unitary(acc)
    assert linalg.unitary_defect(acc) < 1e-8


def test_project_to_unitary_restores_perturbed_unitary():
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(random_complex(rng, 6))
    drifted = q + 1e-9 * random_complex(rng, 6)
    fixed = linalg.project_to_unitary(drifted)
    assert linalg.unitary_defect(fixed) < linalg.unitary_defect(drifted)
    assert linalg.unitary_defect(fixed) < 1e-12
