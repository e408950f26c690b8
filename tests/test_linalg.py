import cmath
import itertools
import math

import numpy as np
import pytest

from mixedwalk import linalg
from mixedwalk.errors import ContractViolationError, DimensionError
from mixedwalk.graphs import build_cycle, random_mixed_tree
from mixedwalk.spectra import RationalAngle, h_eta


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


def same_bits(a, b):
    """Bitwise equality, so a zero's sign (printed by the CLI) counts too."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("batch", [(3,), (2, 4)])
def test_charpoly_of_a_stack_equals_each_slice(batch):
    rng = np.random.default_rng(11)
    for n in range(1, 13):
        stack = rng.normal(size=batch + (n, n)) + 1j * rng.normal(size=batch + (n, n))
        if n % 3 == 0:  # real entries, where the zero imaginary parts carry signs
            stack = stack.real.astype(complex)
        coeffs = linalg.charpoly(stack)
        assert coeffs.shape == batch + (n + 1,)
        for index in np.ndindex(*batch):
            single = linalg.charpoly(stack[index])
            assert np.array_equal(coeffs[index], single), (n, index)
            assert same_bits(coeffs[index], single), (n, index)


def test_charpoly_of_an_empty_stack():
    for n in (0, 1, 5):
        assert linalg.charpoly(np.zeros((0, n, n))).shape == (0, n + 1)


def test_charpoly_pinned_coefficients():
    # recorded from the single-matrix recurrence before it took stacks
    cycle = linalg.charpoly(h_eta(build_cycle(5, 2), RationalAngle(1, 3)))
    assert same_bits(cycle, np.array([
        complex(0.9999999999999997, 5.949667257334985e-18),
        complex(5.0, 9.986667635501254e-17),
        complex(-0.0, 0.0),
        complex(-5.0, 0.0),
        complex(-0.0, 0.0),
        complex(1.0, 0.0),
    ]))
    tree = random_mixed_tree(7, np.random.default_rng(2021))
    assert tree.arcs == ((1, 0), (2, 1), (2, 3), (4, 1), (5, 4), (6, 3))
    assert same_bits(linalg.charpoly(h_eta(tree, 1.0)), np.array([
        complex(-0.0, 0.0),
        complex(-3.0, -2.0538147690727617e-16),
        complex(-0.0, 0.0),
        complex(9.0, -1.1535829173203442e-16),
        complex(-0.0, 0.0),
        complex(-6.0, -3.946536878868399e-17),
        complex(-0.0, 0.0),
        complex(1.0, 0.0),
    ]))


def test_charpoly_rejects_vectors_and_non_square_stacks():
    with pytest.raises(DimensionError):
        linalg.charpoly(np.zeros(3))
    with pytest.raises(DimensionError):
        linalg.charpoly(np.zeros((2, 3, 4)))


def test_hermitian_eigenvalues_swap_matrix():
    spec = linalg.hermitian_eigenvalues(np.array([[0, 1], [1, 0]], dtype=complex))
    assert [(round(v.real, 12), m) for v, m in spec] == [(-1.0, 1), (1.0, 1)]


def test_hermitian_eigenvalues_diagonal():
    d = np.diag([3.0, -1.0, -1.0, 0.5]).astype(complex)
    spec = linalg.hermitian_eigenvalues(d)
    assert sorted(v.real for v, m in spec for _ in range(m)) == pytest.approx([-1.0, -1.0, 0.5, 3.0])
    assert dict((round(v.real, 9), m) for v, m in spec)[-1.0] == 2


def test_hermitian_eigenvalues_triangle():
    # adjacency of the undirected 3-cycle; roots of x^3 - 3x - 2 = (x-2)(x+1)^2
    a = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=complex)
    spec = linalg.hermitian_eigenvalues(a)
    assert [(round(v.real, 9), m) for v, m in spec] == [(-1.0, 2), (2.0, 1)]


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ContractViolationError):
        linalg.hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_eigenvalues_match_numpy():
    rng = np.random.default_rng(5)
    for n in (2, 4, 7, 10):
        b = random_complex(rng, n)
        h = (b + b.conj().T) / 2
        mine = sorted(v.real for v, m in linalg.hermitian_eigenvalues(h) for _ in range(m))
        ref = sorted(np.linalg.eigvalsh(h))
        assert max(abs(x - y) for x, y in zip(mine, ref)) < 1e-10


def test_spectrum_groups_do_not_chain():
    # consecutive gaps of 6e-8 sit under the 1e-7 tolerance, the span does not
    values = [0.0, 6e-8, 1.2e-7, 1.8e-7]
    spec = linalg.group_values(values, 1e-7)
    assert [m for _, m in spec] == [2, 2]
    first = 0
    for _, m in spec:  # the groups are runs of the sorted values
        assert values[first + m - 1] - values[first] <= 1e-7
        first += m
    assert spec[0][0] == pytest.approx(3e-8, abs=1e-20)
    assert spec[1][0] == pytest.approx(1.5e-7, abs=1e-20)


def test_distance_to_identity():
    assert linalg.distance_to_identity(np.eye(4)) == 0.0
    assert linalg.distance_to_identity(-np.eye(2)) == pytest.approx(2.0)
    z = cmath.exp(1j * math.pi / 4)
    expected = abs(z - 1)  # = 0.76537 to five places
    assert linalg.distance_to_identity(z * np.eye(3)) == pytest.approx(expected)
    assert round(expected, 5) == 0.76537


def test_distance_to_identity_equals_the_difference_formula():
    rng = np.random.default_rng(12)
    cases = [random_complex(rng, n) for n in (1, 2, 7, 30)]
    cases += [np.eye(5, dtype=complex) + 1e-9 * random_complex(rng, 5)]
    cases += [np.eye(5, dtype=complex), -np.eye(5, dtype=complex)]
    for m in cases:
        formula = float(np.max(np.abs(m - np.eye(m.shape[0], dtype=complex))))
        assert linalg.distance_to_identity(m) == formula


def test_screened_distance_is_exact_below_the_floor_and_bounded_above_it():
    rng = np.random.default_rng(13)
    cases = [random_complex(rng, n) for n in (1, 2, 5, 12)]
    cases += [np.eye(6, dtype=complex) + 1e-3 * random_complex(rng, 6)]
    cases += [np.eye(4, dtype=complex), np.eye(4, dtype=complex)[[1, 0, 2, 3]]]
    # diagonal gap 0.5 and one off-diagonal entry 5e-13 above it
    near = np.eye(3, dtype=complex) * 0.5
    near[0, 2] = 0.5 + 5e-13
    cases += [near]
    for m in cases:
        exact = linalg.distance_to_identity(m)
        diagonal_gap = float(np.max(np.abs(np.diagonal(m) - 1.0)))
        floors = [0.0, diagonal_gap, exact, 2 * exact, math.inf]
        floors += [diagonal_gap + 1e-12, exact + 1e-12, diagonal_gap / 2, float(rng.uniform(0, 3))]
        for floor in floors:
            got = linalg.distance_to_identity(m, floor=floor)
            if exact < floor:
                assert got == exact, (m, floor)
            else:
                assert floor <= got <= exact, (m, floor)
            # the screened value is the diagonal's own gap, not the floor
            assert got == (diagonal_gap if diagonal_gap >= floor else exact)
    assert linalg.distance_to_identity(np.zeros((0, 0)), floor=0.0) == 0.0


def test_stacked_distances_match_their_slices_bit_for_bit():
    rng = np.random.default_rng(14)
    for n in (1, 3, 8):
        slices = [random_complex(rng, n), np.eye(n, dtype=complex), -np.eye(n, dtype=complex)]
        slices += [np.eye(n, dtype=complex) + scale * random_complex(rng, n) for scale in (1e-9, 1e-3, 0.5)]
        stack = np.array(slices)
        exact = [linalg.distance_to_identity(m) for m in slices]
        for floor in [math.inf, 0.0, 1e-6, 0.3] + exact:
            want = [linalg.distance_to_identity(m, floor=floor) for m in slices]
            got = linalg.distance_to_identity(stack, floor=floor)
            assert got.shape == (len(slices),)
            assert [repr(float(v)) for v in got] == [repr(v) for v in want], (n, floor)
        # any batch shape, with every slice screened out, some, or none
        for floor in (math.inf, 0.3, 0.0):
            grid = linalg.distance_to_identity(stack[:4].reshape(2, 2, n, n), floor=floor)
            want = [[linalg.distance_to_identity(m, floor=floor) for m in pair] for pair in (slices[:2], slices[2:4])]
            assert grid.tolist() == want, (n, floor)
    assert linalg.distance_to_identity(np.zeros((3, 0, 0))).tolist() == [0.0, 0.0, 0.0]
    for bad in (np.zeros(3), np.zeros((2, 3)), np.zeros((4, 2, 3))):
        with pytest.raises(DimensionError):
            linalg.distance_to_identity(bad)


def test_power_stack_is_the_successive_powers():
    rng = np.random.default_rng(15)
    q, _ = np.linalg.qr(random_complex(rng, 6))
    for count in (1, 2, 3, 10, 64):
        stack = linalg.power_stack(q, count)
        assert stack.shape == (count, 6, 6)
        acc = np.eye(6, dtype=complex)
        for k in range(count):
            acc = acc @ q
            assert np.max(np.abs(stack[k] - acc)) < 1e-12, (count, k)
    assert np.array_equal(linalg.power_stack(q, 1)[0], q)
    assert linalg.power_stack(np.zeros((0, 0)), 4).shape == (4, 0, 0)


def test_power_stack_of_a_stack_equals_each_slice_bit_for_bit():
    rng = np.random.default_rng(16)
    for batch in ((3,), (2, 2), (1,)):
        qs = np.stack([np.linalg.qr(random_complex(rng, 5))[0] for _ in range(int(np.prod(batch)))])
        qs = qs.reshape(batch + (5, 5))
        for count in (1, 3, 10):
            stack = linalg.power_stack(qs, count)
            assert stack.shape == batch + (count, 5, 5)
            for idx in np.ndindex(*batch):
                assert np.array_equal(stack[idx], linalg.power_stack(qs[idx], count))
    assert linalg.power_stack(np.zeros((0, 5, 5)), 4).shape == (0, 4, 5, 5)
    with pytest.raises(DimensionError):
        linalg.power_stack(np.zeros((2, 3, 4)), 2)


def test_hermitian_eigenvalues_of_a_stack_equal_each_slice():
    rng = np.random.default_rng(18)
    hs = [h_eta(random_mixed_tree(6, rng), RationalAngle(1, 5)) for _ in range(4)]
    hs += [h_eta(build_cycle(6, 2), eta) for eta in (0.3, RationalAngle(2, 3))]
    spectra = linalg.hermitian_eigenvalues(np.stack(hs))
    assert spectra == [linalg.hermitian_eigenvalues(h) for h in hs]
    assert linalg.hermitian_eigenvalues(np.zeros((0, 4, 4))) == []
    assert linalg.hermitian_defect(np.stack(hs)).tolist() == [0.0] * len(hs)
    # one non-Hermitian slice fails the whole stack
    bad = np.stack(hs)
    bad[2, 0, 1] += 1e-6
    assert linalg.hermitian_defect(bad)[2] > linalg.HERMITICITY_TOL
    with pytest.raises(ContractViolationError):
        linalg.hermitian_eigenvalues(bad)


def test_unitary_defect_is_the_difference_formula_bit_for_bit():
    rng = np.random.default_rng(16)
    cases = [np.linalg.qr(random_complex(rng, n))[0] for n in (1, 2, 5, 16, 33)]
    cases += [q + scale * random_complex(rng, len(q)) for q in cases for scale in (1e-12, 1e-9, 1e-3)]
    cases += [random_complex(rng, 4), np.zeros((3, 3), dtype=complex)]
    for m in cases:
        formula = float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0], dtype=complex))))
        assert repr(linalg.unitary_defect(m)) == repr(formula)
    assert linalg.unitary_defect(np.zeros((0, 0))) == 0.0
    # a non-square isometry, for which M M* = I holds, is refused
    for m in (random_complex(rng, 3)[:2], np.eye(3, dtype=complex)[:2], np.eye(3)[None, :2]):
        with pytest.raises(DimensionError):
            linalg.unitary_defect(m)


def test_unitary_defect_of_a_stack_equals_each_slice_bit_for_bit():
    rng = np.random.default_rng(18)
    for n in (1, 2, 5, 16):
        qs = np.stack([np.linalg.qr(random_complex(rng, n))[0] for _ in range(6)])
        qs[1] += 1e-9 * random_complex(rng, n)
        qs[4] = random_complex(rng, n)
        for batch in ((6,), (2, 3)):
            stack = qs.reshape(batch + (n, n))
            got = linalg.unitary_defect(stack)
            assert got.shape == batch
            for idx in np.ndindex(batch):
                assert repr(float(got[idx])) == repr(linalg.unitary_defect(stack[idx]))
    assert linalg.unitary_defect(np.eye(3)[None]).tolist() == [0.0]
    assert linalg.unitary_defect(np.zeros((0, 4, 4))).shape == (0,)
    assert linalg.unitary_defect(np.zeros((2, 0, 0))).tolist() == [0.0, 0.0]


def test_determinant_equals_eigenvalue_product_for_hermitian():
    rng = np.random.default_rng(7)
    for n in (2, 5, 10):
        b = random_complex(rng, n)
        h = (b + b.conj().T) / 2
        prod = np.prod([v for v, m in linalg.hermitian_eigenvalues(h) for _ in range(m)])
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
        for lam in [v for v, m in linalg.hermitian_eigenvalues(h) for _ in range(m)]:
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
