"""The subspace-contains-unit decision procedure: witnesses verified by
exact inversion, certified negatives cross-checked by brute force."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corings import GF, QQ, Matrix, invertible_in_span, matrix_algebra, subspace_contains_unit
from corings.fields import as_vector, basis_vector
from corings.unitsearch import (CERTIFIED_NONE, DEFAULT_BUDGET, UNDECIDED, WITNESS,
                                UnitSearchResult)

F2, F3 = GF(2), GF(3)


def test_unit_itself_is_witness():
    A = matrix_algebra(F2, 2)
    res = subspace_contains_unit([A.unit], A)
    assert res.status == WITNESS
    assert np.all(res.element == A.unit)


def test_e11_e12_certified_none_exhaustive():
    # all 4 combinations over F_2 have zero second row: brute-force oracle
    A = matrix_algebra(F2, 2)
    e11 = basis_vector(F2, 4, 0)
    e12 = basis_vector(F2, 4, 1)
    for a, b in itertools.product(range(2), repeat=2):
        x = F2.normalize(a * e11 + b * e12)
        assert A.element_inverse(x) is None
    res = subspace_contains_unit([e11, e12], A)
    assert res.status == CERTIFIED_NONE
    assert res.certainty == "deterministic"


def test_e12_e21_witness():
    A = matrix_algebra(F2, 2)
    e12 = basis_vector(F2, 4, 1)
    e21 = basis_vector(F2, 4, 2)
    res = subspace_contains_unit([e12, e21], A)
    assert res.status == WITNESS
    assert np.all(res.element == F2.normalize(e12 + e21))
    assert np.all(A.multiply(res.element, res.inverse) == A.unit)
    assert np.all(A.multiply(res.inverse, res.element) == A.unit)


def test_rational_grid_certificate_is_deterministic():
    # span{e11, e12} over Q: det of the left multiplication vanishes
    # identically, so the (D+1)-point grid certifies none deterministically
    A = matrix_algebra(QQ, 2)
    e11 = basis_vector(QQ, 4, 0)
    e12 = basis_vector(QQ, 4, 1)
    res = subspace_contains_unit([e11, e12], A)
    assert res.status == CERTIFIED_NONE
    assert res.certainty == "deterministic"


def test_rational_witness():
    A = matrix_algebra(QQ, 2)
    e12 = basis_vector(QQ, 4, 1)
    e21 = basis_vector(QQ, 4, 2)
    res = subspace_contains_unit([e12, e21], A)
    assert res.status == WITNESS
    assert np.all(A.multiply(res.element, res.inverse) == A.unit)


def test_randomized_rational_path_reports_bound():
    # force the randomized regime with a tiny budget; the span of the unit
    # always has an invertible element, found at the first random point
    # with overwhelming probability; a none answer must carry a bound
    A = matrix_algebra(QQ, 2)
    res = subspace_contains_unit([A.unit, basis_vector(QQ, 4, 1)], A, budget=1, seed=5)
    assert res.status in (WITNESS, CERTIFIED_NONE)
    if res.status == CERTIFIED_NONE:
        assert res.certainty == "probabilistic"
        assert res.failure_bound is not None
    else:
        assert np.all(A.multiply(res.element, res.inverse) == A.unit)


def test_fp_budget_exhaustion_is_undecided():
    A = matrix_algebra(F3, 2)
    basis = [basis_vector(F3, 4, i) for i in range(4)]
    res = subspace_contains_unit(basis, A, budget=2)
    assert res.status == UNDECIDED


def test_invertible_in_span_empty():
    assert invertible_in_span([]).status == CERTIFIED_NONE


@pytest.mark.parametrize("field,p", [(F2, 2), (F3, 3)])
def test_exhaustive_against_bruteforce(field, p):
    """Soundness vs completeness on small spans: the search agrees with
    direct enumeration of the whole span."""
    rng = np.random.default_rng(19)
    A = matrix_algebra(field, 2)
    for trial in range(12):
        m = int(rng.integers(1, 3))
        basis = [field.normalize(rng.integers(0, p, size=4)) for _ in range(m)]
        res = subspace_contains_unit(basis, A)
        brute = False
        for coeffs in itertools.product(range(p), repeat=m):
            x = field.zeros((4,))
            for c, b in zip(coeffs, basis):
                x = field.normalize(x + c * b)
            if A.element_inverse(x) is not None:
                brute = True
                break
        assert (res.status == WITNESS) == brute


def reference_subspace_contains_unit(basis, multiply, one, field, budget=DEFAULT_BUDGET,
                                     seed=0):
    """The unit search on a bilinear ``multiply`` and its ``one``, kept as a
    test oracle: each left multiplication from dim products with the basis,
    the witness inverted by solving x y = one, and both sides re-checked."""
    one = as_vector(field, one)
    dim = one.shape[0]
    basis = [as_vector(field, b) for b in basis]

    def left_mult(x):
        return Matrix(field, np.stack([multiply(x, basis_vector(field, dim, k))
                                       for k in range(dim)], axis=1))

    res = invertible_in_span([left_mult(b) for b in basis], budget=budget, seed=seed)
    if res.status != WITNESS:
        return res
    x = Matrix.hstack([Matrix.column(field, b) for b in basis]) @ res.witness
    y = left_mult(x).solve(one)
    assert y is not None
    assert np.all(multiply(x, y) == one) and np.all(multiply(y, x) == one)
    return UnitSearchResult(WITNESS, witness=res.witness, element=x, inverse=y,
                            certainty=res.certainty, failure_bound=res.failure_bound)


def _same(x, y):
    """Both None, or arrays of one dtype with equal entries of equal types."""
    if x is None or y is None:
        return x is None and y is None
    return x.dtype == y.dtype and [(type(a), a) for a in x] == [(type(b), b) for b in y]


# budget -> the regime it gives a span of m members in the 4-dimensional
# matrix_algebra(field, 2), whose left multiplications are 4 x 4: F_p
# exhausts p^m <= budget points and is undecided beyond; Q takes the grid
# {0..4}^m when 5^m <= budget and 20 random points beyond
BUDGETS = [DEFAULT_BUDGET, 8, 1]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_unit_search_matches_the_callable_referee(data):
    field = data.draw(st.sampled_from([F2, F3, QQ]))
    A = matrix_algebra(field, 2)
    m = data.draw(st.integers(0, 3))
    if field.kind == "Fp":
        entry = st.integers(0, field.p - 1)
    else:
        entry = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
    basis = [as_vector(field, data.draw(st.lists(entry, min_size=4, max_size=4)))
             for _ in range(m)]
    budget = data.draw(st.sampled_from(BUDGETS))
    seed = data.draw(st.integers(0, 3))
    got = subspace_contains_unit(basis, A, budget=budget, seed=seed)
    want = reference_subspace_contains_unit(basis, A.multiply, A.unit, field,
                                            budget=budget, seed=seed)
    assert (got.status, got.certainty, got.failure_bound) \
        == (want.status, want.certainty, want.failure_bound)
    for key in ("witness", "element", "inverse"):
        assert _same(getattr(got, key), getattr(want, key)), key
