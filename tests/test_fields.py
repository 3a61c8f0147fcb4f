"""Exact linear algebra: solving, kernels, echelon forms, and the packed
GF(2) elimination against the generic path.

The referee tests at the end check every field's kernel on random matrices
against sympy (rref over QQ and GF(p)) and against naive Fraction loops
(products), and check nullspace, solve_matrix and inverse by substitution."""

import operator
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from corings import (GF, QQ, Algebra, FieldSpec, Matrix, check_coring, graded_coring,
                     regular_bimodule, tensor_chain)
from corings import fields
from corings.fields import (_q_split, _rref, _rref_fp, _rref_gf2_packed, basis_vector,
                            commute_rows, sandwich_rows, stack_vecs, unstack)
from corings.report import BalancednessError

from conftest import kron_eye_difference, kz2_graded

F2, F3, F5 = GF(2), GF(3), GF(5)


def test_field_spec_rejects_bad_characteristic():
    with pytest.raises(ValueError):
        FieldSpec.prime(4)
    with pytest.raises(ValueError):
        FieldSpec.prime(1)
    with pytest.raises(ValueError):
        FieldSpec("Q", 3)


def test_scalar_parsing_and_formatting():
    assert QQ.scalar("3/4") == Fraction(3, 4)
    assert QQ.format_scalar(Fraction(-2, 6)) == "-1/3"
    assert F5.scalar(12) == 2
    assert F5.inv_scalar(2) == 3


def test_solve_identity():
    m = Matrix.eye(QQ, 2)
    x = m.solve([1, 0])
    assert list(x) == [1, 0]


def test_solve_inconsistent_rank_one():
    m = Matrix(QQ, [[1, 1], [2, 2]])
    assert m.solve([1, 3]) is None


def test_solve_f3_back_substitution():
    # hand oracle: x2 = 1, then x1 = 2 - 1 = 1
    m = Matrix(F3, [[1, 1], [0, 1]])
    x = m.solve([2, 1])
    assert list(x) == [1, 1]
    assert list(m @ x) == [2, 1]


def test_kernel_identity_empty():
    assert Matrix.eye(QQ, 3).nullspace().ncols == 0


def test_kernel_zero_map():
    assert Matrix.zeros(QQ, 2, 3).nullspace().ncols == 3


def test_kernel_line():
    m = Matrix(QQ, [[1, 1, 0], [0, 0, 1]])
    K = m.nullspace()
    assert K.ncols == 1
    v = K.col(0)
    assert (m @ v == QQ.scalar(0)).all()
    # spans the same line as (1, -1, 0)
    assert v[0] == -v[1] and v[2] == 0 and v[0] != 0


@pytest.mark.parametrize("field", [F2, F3, F5, QQ])
def test_solve_and_kernel_random(field):
    rng = np.random.default_rng(7)
    for _ in range(40):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        A = Matrix(field, rng.integers(-4, 5, size=(m, n)))
        K = A.nullspace()
        # kernel vectors are annihilated and independent
        if K.ncols:
            assert (A @ K).is_zero()
            assert K.rank() == K.ncols
        assert K.ncols == n - A.rank()
        b = A @ rng.integers(-4, 5, size=n)
        x = A.solve(b)
        assert x is not None
        assert np.all(A @ x == b)
        # independent oracle for unsolvable systems: rank jump
        b2 = rng.integers(-4, 5, size=m)
        x2 = A.solve(b2)
        aug = Matrix(field, np.hstack([A.a, field.asarray(b2).reshape(-1, 1)]))
        if x2 is None:
            assert aug.rank() == A.rank() + 1
        else:
            assert aug.rank() == A.rank()
            assert np.all(A @ x2 == field.normalize(field.asarray(b2)))


@pytest.mark.parametrize("field", [F2, F3, QQ])
def test_rref_idempotent(field):
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = Matrix(field, rng.integers(-3, 4, size=(4, 6)))
        R, piv = A.rref()
        R2, piv2 = R.rref()
        assert R == R2 and piv == piv2


def test_inverse_roundtrip():
    m = Matrix(F5, [[1, 2], [3, 4]])
    inv = m.inverse()
    assert inv is not None
    assert m @ inv == Matrix.eye(F5, 2)
    assert inv @ m == Matrix.eye(F5, 2)
    assert Matrix(F5, [[1, 2], [2, 4]]).inverse() is None


def test_packed_gf2_rref_matches_generic():
    rng = np.random.default_rng(11)
    for _ in range(150):
        m = int(rng.integers(1, 30))
        n = int(rng.integers(1, 100))
        A = rng.integers(0, 2, size=(m, n)).astype(np.int64)
        # generic elimination, unpacked
        R1 = A.copy()
        piv1, row = [], 0
        for col in range(n):
            spot = np.nonzero(R1[row:, col])[0]
            if spot.size == 0:
                continue
            p = row + int(spot[0])
            if p != row:
                R1[[row, p]] = R1[[p, row]]
            mask = R1[:, col].astype(bool)
            mask[row] = False
            if mask.any():
                R1[mask] ^= R1[row]
            piv1.append(col)
            row += 1
            if row == m:
                break
        R2, piv2 = _rref_gf2_packed(A.copy())
        assert piv1 == piv2
        assert (R1[: len(piv1)] == R2[: len(piv2)]).all()


def reference_rref_gf2(R: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The GF(2) kernel that the one-pass kernel replaced, kept as its
    referee: rows packed into 64-bit words, deduplicated, then one scan of
    the remaining rows for every pivot column."""
    m, n = R.shape
    W = (n + 63) // 64
    padded = np.zeros((m, W * 64), dtype=np.uint8)
    padded[:, :n] = R.astype(np.uint8)
    # bit j of a row's little-endian words is column j, on any host
    words = np.packbits(padded, axis=1, bitorder="little").view("<u8").reshape(m, W)
    if W == 1:
        packed = words[:, 0].tolist()
    else:
        packed = []
        for row_words in words.tolist():
            x = 0
            for w in range(W):
                x |= row_words[w] << (64 * w)
            packed.append(x)
    rows = sorted(set(packed) - {0})
    mm = len(rows)
    pivots: list[int] = []
    r = 0
    for col in range(n):
        bit = 1 << col
        piv = -1
        for i in range(r, mm):
            if rows[i] & bit:
                piv = i
                break
        if piv < 0:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        for i in range(mm):
            if i != r and rows[i] & bit:
                rows[i] ^= pr
        pivots.append(col)
        r += 1
        if r == mm:
            break
    out = np.zeros((m, n), dtype=np.int64)
    if pivots:
        back = np.zeros((len(pivots), W * 8), dtype=np.uint8)
        for i in range(len(pivots)):
            back[i, :] = np.frombuffer(rows[i].to_bytes(W * 8, "little"), dtype=np.uint8)
        out[: len(pivots), :] = np.unpackbits(back, axis=1, bitorder="little")[:, :n]
    return out, pivots


@st.composite
def _gf2_matrices(draw):
    """0/1 matrices up to 40 x 200, across the 8- and 64-bit packing
    boundaries, from two nonzeros per row (a balancing relation's) to dense,
    with zero rows, repeated rows and sums of earlier rows."""
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 200))
    density = draw(st.floats(min(1.0, 2 / n), 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = np.zeros((m, n), dtype=np.int64)
    for i, kind in enumerate(draw(st.lists(st.sampled_from(["dense", "pair", "zero", "copy", "sum"]),
                                           min_size=m, max_size=m))):
        if kind == "dense":
            A[i] = rng.random(n) < density
        elif kind == "pair":
            A[i, rng.choice(n, size=min(2, n), replace=False)] = 1
        elif kind == "copy" and i:
            A[i] = A[rng.integers(i)]
        elif kind == "sum" and i:
            A[i] = A[rng.integers(i)] ^ A[rng.integers(i)]
    return A


@settings(max_examples=300, deadline=None)
@given(A=_gf2_matrices(), fortran=st.booleans())
@example(A=np.zeros((5, 70), dtype=np.int64), fortran=False)
def test_gf2_rref_matches_reference_and_fp_kernel(A, fortran):
    if fortran:  # a transposed product's layout
        A = np.asfortranarray(A)
    before = A.copy()
    R, piv = _rref_gf2_packed(A)
    assert np.array_equal(A, before)
    ref, ref_piv = reference_rref_gf2(A)
    assert piv == ref_piv and R.dtype == ref.dtype and np.array_equal(R, ref)
    fp, fp_piv = _rref_fp(A.copy(), 2)
    assert piv == fp_piv and np.array_equal(R, fp)


def test_no_floats_anywhere():
    m = Matrix(QQ, [[1, 2], [3, 4]])
    inv = m.inverse()
    assert all(isinstance(x, Fraction) for x in inv.a.reshape(-1))


def test_large_prime_field_object_path():
    p = (1 << 31) - 1  # Mersenne prime, beyond the int64 fast path
    f = GF(p)
    m = Matrix(f, [[2, 1], [1, 1]])
    inv = m.inverse()
    assert inv is not None and m @ inv == Matrix.eye(f, 2)


def test_basis_vector():
    v = basis_vector(F3, 4, 2)
    assert list(v) == [0, 0, 1, 0]


# -- referees: sympy and naive Fraction loops ---------------------------------

REFEREE_FIELDS = [QQ, F2, F3, F5]
_small_q = st.one_of(st.just(Fraction(0)),
                     st.fractions(min_value=-4, max_value=4, max_denominator=6))
_huge_q = st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**40))


def _rows(entries, m, n):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m)


def _matrices(entries, max_rows=6, max_cols=7):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)).flatmap(
        lambda mn: _rows(entries, *mn))


def _entries(field):
    if field.kind == "Q":
        return _small_q
    return st.integers(-2 * field.p, 2 * field.p)


def _sympy_rref(field, rows):
    """Reduced echelon form and pivots computed by sympy, as field scalars."""
    if field.kind == "Q":
        R, piv = sympy.Matrix(rows).rref()
        return [[Fraction(str(x)) for x in R.row(i)] for i in range(R.rows)], tuple(piv)
    R, piv = DomainMatrix.from_list(rows, sympy.GF(field.p)).rref()
    return [[int(x) % field.p for x in r] for r in R.to_list()], tuple(piv)


def _naive_matmul(a, b):
    k = len(b)
    return [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(len(b[0]))]
            for i in range(len(a))]


def _naive_kron(a, b):
    return [[a[i][j] * b[k][l] for j in range(len(a[0])) for l in range(len(b[0]))]
            for i in range(len(a)) for k in range(len(b))]


@pytest.mark.parametrize("field", REFEREE_FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rref_matches_sympy(field, data):
    rows = data.draw(_matrices(_entries(field)))
    R, piv = Matrix(field, rows).rref()
    ref, ref_piv = _sympy_rref(field, rows)
    assert piv == ref_piv
    assert R.a.tolist() == ref


@pytest.mark.parametrize("field", [F3, F5, GF(7)], ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fp_rref_entries_are_reduced(field, data):
    # unreduced input is reduced once, when the Matrix is built; the kernel
    # takes those residues as they are, and rows that no pivot touches must
    # still land in [0, p)
    rows = data.draw(_matrices(st.integers(-3 * field.p, 3 * field.p)))
    R, piv = _rref(field, Matrix(field, np.array(rows, dtype=np.int64)).a)
    assert R.dtype == np.int64
    assert ((R >= 0) & (R < field.p)).all()
    assert R.tolist() == _sympy_rref(field, rows)[0]


def test_fp_rref_untouched_rows_stay_reduced():
    # the first row has no entry in the second pivot column, so that pivot
    # leaves it alone: its 7 must still read 2 from the reduction on input
    R, piv = _rref(F5, Matrix(F5, np.array([[1, 0, 7], [0, -1, 13], [2, 0, -6]])).a)
    assert piv == [0, 1]
    assert R.tolist() == [[1, 0, 2], [0, 1, 2], [0, 0, 0]]


@pytest.mark.parametrize("field", REFEREE_FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_nullspace_and_solve_matrix_by_substitution(field, data):
    rows = data.draw(_matrices(_entries(field)))
    A = Matrix(field, rows)
    m, n = A.shape
    K = A.nullspace()
    assert K.ncols == n - A.rank()
    if K.ncols:
        assert (A @ K).is_zero()
        assert K.rank() == K.ncols
    X0 = Matrix(field, data.draw(_rows(_entries(field), n, data.draw(st.integers(1, 3)))))
    B = A @ X0
    X = A.solve_matrix(B)
    assert X is not None and A @ X == B
    B2 = Matrix(field, data.draw(_rows(_entries(field), m, 2)))
    X2 = A.solve_matrix(B2)
    if X2 is None:
        assert Matrix.hstack([A, B2]).rank() > A.rank()
    else:
        assert A @ X2 == B2


@pytest.mark.parametrize("field", REFEREE_FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inverse_by_substitution(field, data):
    n = data.draw(st.integers(1, 5))
    rows = data.draw(_rows(_entries(field), n, n))
    A = Matrix(field, rows)
    inv = A.inverse()
    det = sympy.Matrix(rows).det()
    singular = det == 0 if field.kind == "Q" else int(det) % field.p == 0
    if singular:
        assert inv is None
    else:
        eye = Matrix.eye(field, n)
        assert inv is not None and A @ inv == eye and inv @ A == eye


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_q_products_match_naive_loops(data):
    entries = st.one_of(_small_q, _huge_q)
    a = data.draw(_matrices(entries, max_rows=4, max_cols=4))
    k = len(a[0])
    b = data.draw(_rows(entries, k, data.draw(st.integers(1, 4))))
    A, B = Matrix(QQ, a), Matrix(QQ, b)
    assert (A @ B).a.tolist() == _naive_matmul(a, b)
    assert A.kron(B).a.tolist() == _naive_kron(a, b)
    v = [row[0] for row in b]
    assert (A @ v).tolist() == [r[0] for r in _naive_matmul(a, [[x] for x in v])]
    assert all(type(x) is Fraction for x in (A @ B).a.reshape(-1))


def test_q_products_on_both_sides_of_the_int64_bound():
    # max|a| * max|b| * k: (2^31 - 1)^2 stays in int64, 2^31 * 2^31 does not
    for big in (2**31 - 1, 2**31, 2**70):
        a = [[Fraction(big), Fraction(-1, 3)], [Fraction(0), Fraction(big, 7)]]
        b = [[Fraction(big), Fraction(5)], [Fraction(-big, 2), Fraction(1, 9)]]
        A, B = Matrix(QQ, a), Matrix(QQ, b)
        assert (A @ B).a.tolist() == _naive_matmul(a, b)
        assert A.kron(B).a.tolist() == _naive_kron(a, b)


# -- the integer form of matrices over Q --------------------------------------

# entries whose numerators sit just below 2^63: int64 on their own, while
# their sums, differences and products overflow int64
_edge_q = st.builds(Fraction, st.integers(2**62, 2**63 - 1).flatmap(
    lambda x: st.sampled_from([x, -x])), st.integers(1, 3))
_any_q = st.one_of(_small_q, _small_q, _huge_q, _edge_q)


def _assert_integer_form(m):
    """m's integer form is the one computed afresh from m.a."""
    N, den, bound = m.N, m.den, m.bound
    fresh_N, fresh_den, fresh_bound = _q_split(m.a)
    assert (den, bound) == (fresh_den, fresh_bound)
    assert N.dtype == fresh_N.dtype and N.tolist() == fresh_N.tolist()
    assert all(type(x) is Fraction for x in m.a.reshape(-1))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_q_integer_form_arithmetic_matches_naive_loops(data):
    """+ - == scale transpose kron @ over Q against Fraction loops, with the
    cached integer form equal to a fresh one after every operation."""
    m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    a, b = data.draw(_rows(_any_q, m, n)), data.draw(_rows(_any_q, m, n))
    A, B = Matrix(QQ, a), Matrix(QQ, b)
    c = data.draw(_any_q)
    expect = {
        "sum": (A + B, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]),
        "difference": (A - B, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)]),
        "self difference": (A - A, [[Fraction(0)] * n for _ in range(m)]),
        "negation": (-A, [[-x for x in r] for r in a]),
        "scale": (A.scale(c), [[c * x for x in r] for r in a]),
        "transpose": ((A + B).T, [[a[i][j] + b[i][j] for i in range(m)] for j in range(n)]),
        "kron": (A.kron(B), _naive_kron(a, b)),
        "product": (A @ B.T, _naive_matmul(a, [list(col) for col in zip(*b)])),
    }
    for name, (got, want) in expect.items():
        assert got.a.tolist() == want, name
        _assert_integer_form(got)
    v = [row[0] for row in b]
    assert (A.T @ v).tolist() == [r[0] for r in _naive_matmul([list(c) for c in zip(*a)],
                                                                  [[x] for x in v])]
    assert (A == B) == (a == b)
    assert A == Matrix(QQ, [list(r) for r in a]) and A - B + B == A
    assert (A - B).is_zero() == (a == b)
    assert (A - B).support().tolist() == [[x != y for x, y in zip(r, s)] for r, s in zip(a, b)]


def test_q_sums_on_both_sides_of_the_int64_bound():
    # numerators below 2^63 whose sum, difference or common-denominator
    # scaling is not: every result must leave int64 for Python ints
    big = 2**63 - 1
    cases = [([[big, 1]], [[big, -1]]), ([[big, 0]], [[-big, 5]]),
             ([[Fraction(big, 2), 1]], [[Fraction(big, 3), 1]]),
             ([[2**62, 2**62]], [[2**62, Fraction(1, 2)]])]
    for a, b in cases:
        A, B = Matrix(QQ, a), Matrix(QQ, b)
        fa, fb = ([[Fraction(x) for x in r] for r in m] for m in (a, b))
        for got, want in ((A + B, [[x + y for x, y in zip(r, s)] for r, s in zip(fa, fb)]),
                          (A - B, [[x - y for x, y in zip(r, s)] for r, s in zip(fa, fb)]),
                          (A.scale(3), [[3 * x for x in r] for r in fa])):
            assert got.a.tolist() == want
            _assert_integer_form(got)


def test_q_zero_results_over_denominators_past_int64():
    # results that vanish over a common denominator past 2^63: the integer
    # form of a zero matrix has denominator 1
    A = Matrix(QQ, [[0, Fraction(1, 3**40)]])
    B = Matrix(QQ, [[Fraction(1, 2**70)], [0]])
    for got in (A @ B, A - A, A.scale(0), A.kron(Matrix(QQ, [[0]]))):
        assert got.is_zero() and got.den == 1
        _assert_integer_form(got)
    # a zero operand (bound 0) scaled to a denominator past 2^63, or met by
    # numerators past float64's range in a product large enough for BLAS
    Z, tiny = Matrix.zeros(QQ, 1, 1), Matrix(QQ, [[Fraction(1, 2**70)]])
    cases = [(Z + tiny, [[Fraction(1, 2**70)]]), (Z - tiny, [[Fraction(-1, 2**70)]]),
             (Matrix.vstack([Z, tiny]), [[0], [Fraction(1, 2**70)]]),
             (Z.scale(Fraction(2**70)), [[0]]),
             (Matrix(QQ, [[2**1100] * 64] * 64) @ Matrix.zeros(QQ, 64, 64), [[0] * 64] * 64)]
    for got, want in cases:
        assert got.a.tolist() == want
        _assert_integer_form(got)


def test_q_array_is_read_only():
    """Over Q the matrix is its integer form N / den, so a write into the
    Fraction array ``a`` could not reach it: it raises instead.  Over F_p
    ``a`` is N, and a write takes effect."""
    for m in (Matrix(QQ, [[0, 0]]), Matrix.zeros(QQ, 1, 2),
              Matrix(QQ, [[1, 2]]) - Matrix(QQ, [[1, 2]]), Matrix.eye(QQ, 2)):
        with pytest.raises(ValueError):
            m.a[0, 0] = 1
        assert m.a[0, 0] == (m == Matrix.eye(QQ, 2))
    m = Matrix.zeros(F3, 1, 2)
    m.a[0, 0] = 1
    assert not m.is_zero() and m == Matrix(F3, [[1, 0]])


def _fraction_rref(rows):
    """Gauss-Jordan elimination on Fractions: first nonzero pivot, columns
    left to right."""
    R = [[Fraction(x) for x in r] for r in rows]
    pivots, row = [], 0
    for col in range(len(R[0])):
        hit = next((i for i in range(row, len(R)) if R[i][col] != 0), None)
        if hit is None:
            continue
        R[row], R[hit] = R[hit], R[row]
        R[row] = [x / R[row][col] for x in R[row]]
        for i in range(len(R)):
            if i != row and R[i][col] != 0:
                R[i] = [x - R[i][col] * y for x, y in zip(R[i], R[row])]
        pivots.append(col)
        row += 1
        if row == len(R):
            break
    return R, pivots


def _fraction_solve(a, b):
    """The solution of a X = b with free variables 0, from the Fraction
    echelon form of [a | b]; None when b is not in the column space."""
    n = len(a[0])
    R, pivots = _fraction_rref([r + t for r, t in zip(a, b)])
    if pivots and pivots[-1] >= n:
        return None
    X = [[Fraction(0)] * len(b[0]) for _ in range(n)]
    for r, p in enumerate(pivots):
        X[p] = R[r][n:]
    return X


def _filled(m):
    """Whether m holds its array ``a``, looked up without building it."""
    try:
        Matrix.a.__get__(m, Matrix)
    except AttributeError:
        return False
    return True


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_q_carried_forms_match_fraction_loops(data):
    """Stacks, selections, echelon forms, kernels and solutions over Q carry
    their integer form and leave ``a`` unbuilt; once read, ``a`` equals a
    Fraction loop and the form equals one computed afresh from it."""
    m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, 3))
    a = data.draw(_rows(_any_q, m, n))
    c = data.draw(_rows(_any_q, k, n))
    A, C = Matrix(QQ, a), Matrix(QQ, c)
    if data.draw(st.booleans()):  # a solvable right-hand side
        b = _naive_matmul(a, data.draw(_rows(_any_q, n, k)))
    else:
        b = data.draw(_rows(_any_q, m, k))
    B = Matrix(QQ, b)
    rows = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m))
    cols = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    s = data.draw(_any_q)

    R, piv = _fraction_rref(a)
    free = [j for j in range(n) if j not in piv]
    kernel = [[-R[piv.index(i)][f] if i in piv else Fraction(int(i == f)) for f in free]
              for i in range(n)]
    flat = [x for r in a for x in r]

    assert A.rref()[1] == tuple(piv)
    expect = {
        "hstack": (Matrix.hstack([A, B]), [r + t for r, t in zip(a, b)]),
        "vstack": (Matrix.vstack([A, C]), a + c),
        "stack_vecs": (stack_vecs([A, A.scale(s)]), [[x, s * x] for x in flat]),
        "unstack": (unstack(Matrix.hstack([A, B]), (m, 1))[-1], [[r[-1]] for r in b]),
        "submatrix": (A.submatrix(rows, cols), [[a[i][j] for j in cols] for i in rows]),
        "column pick": (A.rearranged(lambda x: x[:, cols[:1]]), [[r[cols[0]]] for r in a]),
        "reshape": (A.rearranged(lambda x: x.reshape(1, -1)), [flat]),
        "copy": (A.copy(), a),
        "rref": (A.rref()[0], R),
        "nullspace": (A.nullspace(), kernel),
        "solve_matrix": (A.solve_matrix(B), _fraction_solve(a, b)),
    }
    for name, (got, want) in expect.items():
        if want is None:
            assert got is None, name
            continue
        assert not _filled(got), name
        assert got.a.tolist() == want, name
        _assert_integer_form(got)
    x, want = A.solve([r[0] for r in b]), _fraction_solve(a, [r[:1] for r in b])
    assert (x is None) if want is None else x.tolist() == [r[0] for r in want]


def test_q_selections_from_carried_forms_are_in_lowest_terms():
    # a product carries its form over the common denominator 2; a column
    # of integers picked from it must compare and test as integers
    S = Matrix(QQ, [[1, Fraction(1, 2)], [2, 0]]) @ Matrix.eye(QQ, 2)
    assert unstack(S, (2, 1))[0] == Matrix(QQ, [[1], [2]])
    zero = Matrix(QQ, [[0, Fraction(1, 2)]]) @ Matrix.eye(QQ, 2)
    assert zero.rearranged(lambda x: x[:, :1]).is_zero()


def test_check_coring_over_q_builds_no_fraction_array(monkeypatch):
    C = graded_coring(kz2_graded(QQ))
    built = []
    real = fields._q_from_ints
    monkeypatch.setattr(fields, "_q_from_ints", lambda N, den: built.append(N.shape) or real(N, den))
    assert check_coring(C).ok
    # comparison, hashing and support read the integer form only
    D, E = C.delta.kron(Matrix.eye(QQ, 1)), C.delta.scale(Fraction(1, 3)).scale(3)
    assert D == E and hash(D) == hash(E)
    assert D.support().any() and not D.is_zero() and (D - E).is_zero()
    assert built == []


@pytest.mark.parametrize("field", [F2, F3, GF(2**31 - 1)], ids=str)
def test_fp_matrices_always_hold_their_array(field):
    A = Matrix(field, [[1, 2, 0], [2, 4, 1]])
    results = [A + A, A - A, -A, A.scale(2), A @ A.T, A.kron(A), A.T, A.copy(),
               A.submatrix([1], [0, 2]), Matrix.hstack([A, A]), Matrix.vstack([A, A]),
               A.rref()[0], A.nullspace(), A.solve_matrix(A), stack_vecs([A, A]),
               *unstack(A, (1, 2)), Matrix.zeros(field, 2, 2), Matrix.eye(field, 2),
               Matrix.column(field, [1, 2]), tensor_chain([regular_bimodule(
                   Algebra(field, [[[1]]], [1]))] * 2).project]
    assert all(_filled(m) for m in results)


def _quarter_algebra():
    """Q[t]/(t^2 - 1/4): structure constants with a denominator."""
    return Algebra(QQ, [[[1, 0], [0, 1]], [[0, 1], [Fraction(1, 4), 0]]], [1, 0])


def test_q_tensor_relations_match_fraction_arrays():
    """The dense relation blocks (the referee's) are the Fraction arrays'
    nonzero rows, and the quotient's sparse rows are those rows, each
    times a positive integer."""
    bim = regular_bimodule(_quarter_algebra())
    t = tensor_chain([bim, bim])
    eye = Matrix.eye(QQ, bim.dim).a
    want = []
    for R, L in zip(bim.right_action, bim.left_action):
        arr = np.kron(R.a.T, eye) - np.kron(eye, L.a.T)
        want += [row for row in arr.tolist() if any(x != 0 for x in row)]
    stack = Matrix.vstack([kron_eye_difference(R.T, L.T)
                           for R, L in zip(bim.right_action, bim.left_action)])
    assert [row for row in stack.a.tolist() if any(x != 0 for x in row)] == want
    assert t.relations.nrows == len(want)
    for row, w in zip(t.relations.rows, want):
        scale = {Fraction(row[c]) / x for c, x in enumerate(w) if x != 0}
        assert set(row) == {c for c, x in enumerate(w) if x != 0} and len(scale) == 1
        assert min(scale) > 0 and min(scale).denominator == 1


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_q_descend_witness_matches_fraction_arrays(data):
    """descend over Q on maps near the projection of a chain with fractional
    relations: it accepts exactly the maps that kill I - section @ project,
    and its witness is that matrix's first column the map does not kill."""
    bim = regular_bimodule(_quarter_algebra())
    cube = tensor_chain([bim, bim, bim])
    P, S = cube.project.a.tolist(), cube.section.a.tolist()
    n = cube.ambient_dim
    entries = st.sampled_from([0, 0, 0, Fraction(1, 2), -3])
    if data.draw(st.booleans()):
        noise = data.draw(_rows(entries, cube.dim, n))
    else:  # X @ P kills the kernel of P, so the map descends
        noise = _naive_matmul(data.draw(_rows(entries, cube.dim, cube.dim)), P)
    M = [[x + y for x, y in zip(r, s)] for r, s in zip(P, noise)]
    kernel = [[Fraction(i == j) - x for j, x in enumerate(row)]
              for i, row in enumerate(_naive_matmul(S, P))]
    killed = _naive_matmul(M, kernel)
    bad = [j for j in range(n) if any(killed[i][j] != 0 for i in range(cube.dim))]
    if not bad:
        assert cube.descend(Matrix(QQ, M)).a.tolist() == _naive_matmul(M, S)
        return
    with pytest.raises(BalancednessError) as exc:
        cube.descend(Matrix(QQ, M))
    assert exc.value.witness.tolist() == [row[bad[0]] for row in kernel]


# -- F_p products on both sides of the float64 BLAS gate ----------------------

# shapes (rows, k, cols) below and above the 4096 multiply-add gate; cols 0
# multiplies by a vector of length k
_FP_SHAPES = st.one_of(
    st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 6)),
    st.tuples(st.integers(8, 16), st.integers(32, 48), st.integers(16, 24)),
    st.tuples(st.integers(64, 80), st.integers(64, 80), st.just(0)))


def _residues(field, data, shape):
    """Residues from a drawn seed, all p-1 (the largest partial sums) or random."""
    if data.draw(st.booleans()):
        return np.full(shape, field.p - 1, dtype=np.int64)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, field.p, size=shape, dtype=np.int64)


@pytest.mark.parametrize("p", [2, 3, 5, (1 << 31) - 1])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fp_products_match_integer_loops(p, data):
    """Matrix and vector products over F_p equal plain integer loops reduced
    mod p, with reduced entries of the field's dtype (int64 below 2^20),
    whether they run on float64 BLAS or in int64/object."""
    f = GF(p)
    m, k, n = data.draw(_FP_SHAPES)
    a = _residues(f, data, (m, k)).tolist()
    b = _residues(f, data, (k, max(n, 1))).tolist()
    A = Matrix(f, a)
    want = [[sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(len(b[0]))]
            for i in range(m)]
    if n:
        out = (A @ Matrix(f, b)).a
    else:
        out = A @ [row[0] for row in b]
        want = [row[0] for row in want]
    assert out.dtype == f.dtype
    assert out.tolist() == want
    assert all(0 <= x < p for x in out.reshape(-1).tolist())


def test_fp_product_past_the_float64_bound_stays_exact():
    # k * (p-1)^2 >= 2^53 for p = 1048573 (the largest prime below 2^20) and
    # k = 8200: float64 would round these partial sums, int64 does not
    p, k = 1048573, 8200
    f = GF(p)
    assert k * (p - 1) ** 2 >= 1 << 53 and f.dtype is np.int64
    A = Matrix(f, np.full((1, k), p - 1, dtype=np.int64))
    B = Matrix(f, np.full((k, 1), p - 1, dtype=np.int64))
    assert (A @ B).a.tolist() == [[k * (p - 1) ** 2 % p]]
    assert (A @ np.full(k, p - 1, dtype=np.int64)).tolist() == [k * (p - 1) ** 2 % p]


def test_fp_blas_product_past_2_20_keeps_python_int_residues():
    # p = 1048583, the smallest prime past 2^20, keeps Python-int residues;
    # a 16 x 16 x 16 product (4096 multiply-adds, 16 (p-1)^2 < 2^53) runs on
    # float64 BLAS and must come back as Python ints, not int64 or floats
    p = 1048583
    f = GF(p)
    a = [[(p - 1 - 7 * i - j) % p for j in range(16)] for i in range(16)]
    A = Matrix(f, a)
    want = [[sum(a[i][t] * a[t][j] for t in range(16)) % p for j in range(16)] for i in range(16)]
    for got in ((A @ A).a, A @ a[0]):
        assert got.dtype == object and all(type(x) is int for x in got.reshape(-1).tolist())
    assert (A @ A).a.tolist() == want
    assert (A @ a[0]).tolist() == [sum(a[i][t] * a[0][t] for t in range(16)) % p for i in range(16)]


def test_large_prime_products_from_int64_arrays_do_not_overflow():
    # past 2^20 residues are Python ints: (p-1)^2 * 4 overflows int64 for
    # p = 2^31 - 1, so a matrix built from an int64 array must not stay int64
    p = (1 << 31) - 1
    f = GF(p)
    want = [[4 * (p - 1) ** 2 % p]]
    assert want == [[4]]
    from_arrays = (Matrix(f, np.full((1, 4), p - 1, dtype=np.int64)),
                   Matrix(f, np.full((4, 1), p - 1, dtype=np.int64)))
    from_lists = Matrix(f, [[p - 1] * 4]), Matrix(f, [[p - 1]] * 4)
    for A, B in (from_arrays, from_lists):
        assert A.a.dtype == B.a.dtype == object
        assert (A @ B).a.tolist() == want
        assert (A @ np.full(4, p - 1, dtype=np.int64)).tolist() == want[0]


# -- F_p arithmetic and input ------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, (1 << 31) - 1])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fp_arithmetic_matches_integer_loops(p, data):
    """+ - negation scale kron == support is_zero over F_p against integer
    loops mod p, each result holding residues in [0, p) of the field's
    dtype.  Both sides of "reduce only when the bound reaches p" run: a
    kron over F_2 (bound 1) and scales by 0 and 1 are left unreduced, sums
    (bound 2(p - 1)) and differences are reduced."""
    f = GF(p)
    m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    entries = st.one_of(st.integers(0, p - 1), st.sampled_from([0, 1, p - 1]))
    a, b = data.draw(_rows(entries, m, n)), data.draw(_rows(entries, m, n))
    c = data.draw(_matrices(entries, max_rows=3, max_cols=3))
    k = data.draw(st.one_of(st.sampled_from([0, 1, -1]), st.integers(-2 * p, 2 * p)))
    A, B = Matrix(f, a), Matrix(f, b)

    def entrywise(op, x, y):
        return [[op(u, v) % p for u, v in zip(r, s)] for r, s in zip(x, y)]

    expect = {
        "sum": (A + B, entrywise(operator.add, a, b)),
        "difference": (A - B, entrywise(operator.sub, a, b)),
        "self difference": (A - A, [[0] * n for _ in range(m)]),
        "negation": (-A, entrywise(lambda u, _: -u, a, a)),
        "scale": (A.scale(k), entrywise(lambda u, _: k * u, a, a)),
        "kron": (A.kron(Matrix(f, c)), [[x % p for x in r] for r in _naive_kron(a, c)]),
    }
    for name, (got, want) in expect.items():
        assert got.a.dtype == f.dtype and got.N is got.a and got.den == 1, name
        assert got.a.tolist() == want, name
        assert all(type(x) is int and 0 <= x < p for r in got.a.tolist() for x in r), name
    assert (A == B) == (a == b)
    assert A == Matrix(f, np.array(a, dtype=np.int64)) and A - B + B == A
    assert (A == A.T) == (m == n and a == [list(r) for r in zip(*a)])
    assert (A - B).is_zero() == (a == b)
    assert (A - B).support().tolist() == [[x != y for x, y in zip(r, s)] for r, s in zip(a, b)]


def test_fp_input_keeps_exact_residues():
    # narrow integer arrays are widened to the field's dtype before their
    # products: 40 * 2 * 2 = 160 overflows int8, 300 * 2 * 2 = 1200 uint8
    for dtype, k, want in ((np.int8, 40, 160 % 3), (np.uint8, 300, 1200 % 3)):
        row = Matrix(F3, np.full((1, k), 2, dtype=dtype))
        assert row.a.dtype == np.int64
        assert (row @ row.T).a.tolist() == [[want]]
    # integral floats and integers past int64 are exact residues
    assert Matrix(F3, np.array([[2.0, -4.0]])).a.tolist() == [[2, 2]]
    assert Matrix(F3, [[2**70, 2**63 + 1, -1]]).a.tolist() == [[1, 0, 2]]
    # anything that is not an integer is refused, not truncated or stored
    for bad in (np.array([[1.5, 2.0]]), [[1.5]], [[Fraction(1, 2)]], [["1/2"]],
                np.array([[np.inf]]), [[float("nan")]]):
        with pytest.raises(ValueError):
            Matrix(F3, bad)
    with pytest.raises(ValueError):
        Matrix.column(F3, [1, 0.5])


def test_equal_matrices_hash_equal():
    big = 2**64 + 5  # numerators past 2^63 live in object arrays
    lazy = Matrix(QQ, [[1, Fraction(1, 2)], [big, 0]]) @ Matrix.eye(QQ, 2)
    read = Matrix(QQ, [[1, Fraction(1, 2)], [big, 0]]) @ Matrix.eye(QQ, 2)
    read.a
    pairs = [
        (Matrix(QQ, [[1, 2]]), Matrix(QQ, [[2, 4]]).scale(Fraction(1, 2))),
        (Matrix(QQ, [[big, 3]]), Matrix(QQ, [[Fraction(big, 3), 1]]).scale(3)),
        (Matrix(QQ, [[big - 2**64, 3]]), Matrix(QQ, [[big, 3]]) - Matrix(QQ, [[2**64, 0]])),
        (lazy, read),
        (Matrix(GF(2**31 - 1), [[1, 2**31 - 2]]),
         Matrix(GF(2**31 - 1), np.array([[1, -1]], dtype=np.int64))),
        (Matrix(F3, [[1, 2]]), Matrix(F3, np.array([[4, -1]], dtype=np.int8))),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
    assert Matrix(QQ, [[5, 3]]).N.dtype == np.int64 and Matrix(QQ, [[big, 3]]).N.dtype == object
    assert not _filled(lazy) and len({lazy, read}) == 1


# -- the row builders for linear conditions on an unknown matrix ------------

HELPER_FIELDS = [QQ, F2, F3]


def _naive_product(field, *mats):
    """The product of matrices given as lists of rows, by plain loops."""
    out = [[field.scalar(x) for x in row] for row in mats[0]]
    for b in mats[1:]:
        b = [[field.scalar(x) for x in row] for row in b]
        out = [[field.scalar(sum(out[i][t] * b[t][j] for t in range(len(b))))
                for j in range(len(b[0]))] for i in range(len(out))]
    return out


@pytest.mark.parametrize("field", HELPER_FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sandwich_rows_maps_vec_f_to_vec_xfy(field, data):
    p, n, m, q = (data.draw(st.integers(1, 4)) for _ in range(4))
    X, F, Y = (data.draw(_rows(_entries(field), r, c)) for r, c in ((p, n), (n, m), (m, q)))
    S = sandwich_rows(Matrix(field, X), Matrix(field, Y))
    assert S.shape == (p * q, n * m)
    vec_f = [field.scalar(x) for row in F for x in row]
    assert (S @ vec_f).tolist() == [x for row in _naive_product(field, X, F, Y) for x in row]


@pytest.mark.parametrize("field", HELPER_FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_commute_rows_kernel_is_the_intertwiners(field, data):
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    small = st.integers(-1, 1)
    X = data.draw(_rows(small, m, m))
    # Y = X (when square) makes the kernel nonzero: it holds the commutant of X
    Y = X if n == m and data.draw(st.booleans()) else data.draw(_rows(small, n, n))
    rows = commute_rows(Matrix(field, X), Matrix(field, Y))
    K = rows.nullspace()
    _, pivots = _sympy_rref(field, rows.a.tolist())
    assert K.ncols == n * m - len(pivots)
    for j in range(K.ncols):
        F = K.col(j).reshape(n, m).tolist()
        assert _naive_product(field, F, X) == _naive_product(field, Y, F)
