"""Structure-constant algebras, bimodules, group algebras, projectivity.

The entry-by-entry loops that multiplied algebra elements before the
structure matrix ``mu`` are kept here as referees: every product, action and
axiom report is checked against them on random structures, valid and broken,
over F2, F3, F5 and Q."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from corings import (GF, QQ, Algebra, AlgebraMorphism, Bialgebra, Bimodule, check_algebra,
                     check_group_table, cyclic_group, direct_sum, free_right_module,
                     group_algebra, grouplike_bialgebra, is_projective_right, matrix_algebra,
                     regular_bimodule, right_module, scalar_algebra)
from corings.families import _tensor_products
from corings.fields import Matrix, as_vector, basis_vector
from corings.report import InvalidStructureError, ReportBuilder

from conftest import dual_numbers, s3_table

F2, F3, F5 = GF(2), GF(3), GF(5)


def test_field_as_algebra_valid():
    assert check_algebra(scalar_algebra(QQ)).ok


def test_matrix_algebra_oracle():
    # hand oracle: e_ij e_kl = delta_jk e_il on all pairs
    A = matrix_algebra(F2, 2)
    rep = check_algebra(A)
    assert rep.ok
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    got = A.multiply(basis_vector(F2, 4, 2 * i + j),
                                     basis_vector(F2, 4, 2 * k + l))
                    want = F2.zeros((4,))
                    if j == k:
                        want[2 * i + l] = 1
                    assert np.all(got == want)


def test_flipped_structure_constant_names_triple():
    A = matrix_algebra(F2, 2)
    bad = A.mult.copy()
    bad[0, 0, :] = 0
    bad[0, 0, 3] = 1  # e11*e11 = e22, breaking associativity
    rep = check_algebra(Algebra(F2, bad, A.unit, names=A.names))
    assert not rep.ok
    assert not rep.check("associativity").ok
    assert "triple" in rep.check("associativity").witness


def test_group_algebra_trivial():
    alg, degrees = group_algebra([[0]], QQ)
    assert alg.dim == 1 and degrees == [0]
    assert check_algebra(alg).ok


def test_group_algebra_z2_f3():
    alg, _ = group_algebra([[0, 1], [1, 0]], F3)
    g = basis_vector(F3, 2, 1)
    assert np.all(alg.multiply(g, g) == alg.unit)  # table lookup: g^2 = e
    assert check_algebra(alg).ok


def test_group_algebra_s3_rational():
    table = s3_table()
    assert check_group_table(table).ok
    alg, _ = group_algebra(table, QQ)
    assert alg.dim == 6
    assert check_algebra(alg).ok
    # noncommutative: find witnesses
    a = basis_vector(QQ, 6, 1)
    b = basis_vector(QQ, 6, 2)
    assert not np.all(alg.multiply(a, b) == alg.multiply(b, a))


def test_group_algebra_rejects_non_group():
    with pytest.raises(InvalidStructureError):
        group_algebra([[0, 1], [0, 1]], F2)


def test_algebra_morphism_validation():
    A, _ = group_algebra([[0, 1], [1, 0]], F3)
    ident = AlgebraMorphism.identity(A)
    assert ident.validate().ok
    # g -> -g is an algebra automorphism of k[Z_2] over F_3
    flip = AlgebraMorphism(A, A, Matrix(F3, [[1, 0], [0, 2]]))
    assert flip.validate().ok
    assert flip.is_isomorphism()
    bad = AlgebraMorphism(A, A, Matrix(F3, [[1, 1], [0, 1]]))
    assert not bad.validate().ok


def test_compose_needs_the_same_middle_algebra():
    """Composing through two different algebras of one dimension is
    refused: F3[Z2] and F3[t]/t^2 are both 2-dimensional."""
    A, _ = group_algebra([[0, 1], [1, 0]], F3)
    D = dual_numbers(F3)
    with pytest.raises(ValueError):
        AlgebraMorphism.identity(D).compose(AlgebraMorphism.identity(A))


def test_element_inverse():
    A = dual_numbers(F3)
    one_plus_t = F3.normalize(A.unit + basis_vector(F3, 2, 1))
    inv = A.element_inverse(one_plus_t)
    assert inv is not None
    assert np.all(A.multiply(one_plus_t, inv) == A.unit)
    assert A.element_inverse(basis_vector(F3, 2, 1)) is None


def test_opposite_algebra():
    A = matrix_algebra(F2, 2)
    Aop = A.opposite()
    assert check_algebra(Aop).ok
    x, y = basis_vector(F2, 4, 1), basis_vector(F2, 4, 2)
    assert np.all(Aop.multiply(x, y) == A.multiply(y, x))


def test_regular_bimodule_valid():
    for alg in (dual_numbers(F2), matrix_algebra(F3, 2)):
        assert regular_bimodule(alg).validate().ok


def test_bimodule_validation_catches_noncommuting_actions():
    A = matrix_algebra(F2, 2)
    bim = regular_bimodule(A)
    # use left multiplications on both sides: these do not commute
    from corings.algebra import Bimodule
    bad = Bimodule(A, A, A.dim, bim.left_action, bim.left_action)
    rep = bad.validate()
    assert not rep.ok


def test_projectivity_free_modules():
    A = dual_numbers(F2)
    assert is_projective_right(regular_bimodule(A))
    assert is_projective_right(free_right_module(A, 2))
    reg = regular_bimodule(A)
    assert is_projective_right(direct_sum(reg, reg))


def test_projectivity_fails_for_residue_field():
    # k with t acting as 0 over F[t]/(t^2): no splitting exists.
    # independent oracle: enumerate all right-linear sigma: k -> A over F_2
    A = dual_numbers(F2)
    act_one = Matrix.eye(F2, 1)
    act_t = Matrix.zeros(F2, 1, 1)
    M = right_module(A, 1, [act_one, act_t])
    # brute force: sigma is a 2x1 matrix with sigma(m t) = sigma(m) t;
    # pi: A -> k sends 1 -> 1, t -> 0
    found = False
    for s0 in range(2):
        for s1 in range(2):
            sigma = Matrix(F2, [[s0], [s1]])
            right_lin = sigma @ act_t == Matrix(F2, A.basis_right_mult(1).a) @ sigma
            pi = Matrix(F2, [[1, 0]])  # coordinates of pi on basis {1, t}
            splits = (pi @ sigma) == Matrix.eye(F2, 1)
            if right_lin and splits:
                found = True
    assert not found
    assert not is_projective_right(M)


def test_module_of_wrong_shape_rejected():
    A = dual_numbers(F2)
    with pytest.raises(ValueError):
        right_module(A, 2, [Matrix.eye(F2, 2)])


def test_structure_tensor_must_be_cubic():
    with pytest.raises(ValueError):
        Algebra(F5, np.zeros((2, 2, 3), dtype=np.int64), [1, 0])
    with pytest.raises(ValueError):
        Algebra(F5, np.zeros((2, 3, 3), dtype=np.int64), [1, 0])


@pytest.mark.parametrize("field", [F3, QQ])
def test_zero_dimensional_algebra_audits(field):
    """The dual of a coring with no one-sided linear maps but eps = 0 is the
    zero algebra; its audits have no cases and pass."""
    A = Algebra(field, np.zeros((0, 0, 0), dtype=np.int64), [])
    assert check_algebra(A).ok
    assert AlgebraMorphism.identity(A).validate().ok
    assert A.multiply([], []).shape == (0,)


# -- the loops the structure matrix replaced, kept as referees ---------------

def loop_multiply(A, x, y):
    x, y = as_vector(A.field, x), as_vector(A.field, y)
    out = A.field.zeros((A.dim,))
    for i in range(A.dim):
        if x[i] != 0:
            out = out + x[i] * (A.mult[i, :, :].T @ y)
    return A.field.normalize(out)


def loop_combination(field, mats, coeffs):
    coeffs = as_vector(field, coeffs)
    out = field.zeros(mats[0].shape)
    for c, M in zip(coeffs, mats):
        if c != 0:
            out = out + M.a * c
    return Matrix(field, out)


def loop_tensor_product(A, B, u, v):
    """(a (x) b)(a' (x) b') = aa' (x) bb' extended bilinearly on A (x) B."""
    f, dB = A.field, B.dim
    out = f.zeros((A.dim * dB,))
    for ih, jl in product(range(A.dim * dB), repeat=2):
        if u[ih] != 0 and v[jl] != 0:
            (i, h), (j, l) = divmod(ih, dB), divmod(jl, dB)
            out = out + u[ih] * v[jl] * np.kron(A.mult[i, j, :], B.mult[h, l, :])
    return f.normalize(out)


def loop_lmul(A):
    return [Matrix(A.field, A.mult[i, :, :].T) for i in range(A.dim)]


def loop_rmul(A):
    return [Matrix(A.field, A.mult[:, j, :].T) for j in range(A.dim)]


def loop_check_algebra(A):
    rb = ReportBuilder(f"algebra dim {A.dim} over {A.field}")
    e = [basis_vector(A.field, A.dim, i) for i in range(A.dim)]
    rb.add_all("associativity", (
        (f"triple ({A.name_of(i)},{A.name_of(j)},{A.name_of(k)})",
         np.all(loop_multiply(A, A.mult[i, j, :], e[k])
                == loop_multiply(A, e[i], A.mult[j, k, :])))
        for i, j, k in product(range(A.dim), repeat=3)))
    rb.add_all("unit-law", (
        (f"basis {A.name_of(j)}", np.all(loop_multiply(A, A.unit, e[j]) == e[j])
         and np.all(loop_multiply(A, e[j], A.unit) == e[j]))
        for j in range(A.dim)))
    return rb.build()


def loop_morphism_report(m):
    rb = ReportBuilder("algebra morphism")
    F, S, T = m.matrix, m.source, m.target
    rb.add("unit", np.all(F @ S.unit == T.unit))
    rb.add_all("multiplicative", (
        (f"pair ({i},{j})",
         np.all(F @ S.mult[i, j, :] == loop_multiply(T, F.col(i), F.col(j))))
        for i, j in product(range(S.dim), repeat=2)))
    return rb.build()


def loop_bimodule_report(M):
    rb = ReportBuilder(f"bimodule dim {M.dim}")
    A, B, f = M.right_algebra, M.left_algebra, M.field
    L, R = M.left_action, M.right_action
    I = Matrix.eye(f, M.dim)
    rb.add("left-unit", loop_combination(f, L, B.unit) == I)
    rb.add("right-unit", loop_combination(f, R, A.unit) == I)
    rb.add_all("left-associativity", (
        (f"pair ({i},{j})", L[i] @ L[j] == loop_combination(f, L, B.mult[i, j, :]))
        for i, j in product(range(B.dim), repeat=2)))
    rb.add_all("right-associativity", (
        (f"pair ({i},{j})", R[j] @ R[i] == loop_combination(f, R, A.mult[i, j, :]))
        for i, j in product(range(A.dim), repeat=2)))
    rb.add_all("actions-commute", ((f"pair ({i},{j})", L[i] @ R[j] == R[j] @ L[i])
                                   for i, j in product(range(B.dim), range(A.dim))))
    return rb.build()


def loop_bialgebra_report(H):
    rb = ReportBuilder("bialgebra")
    rb.merge(loop_check_algebra(H.algebra), prefix="algebra-")
    f, d, A, D, eps = H.field, H.dim, H.algebra, H.delta, H.epsilon
    I = Matrix.eye(f, d)
    rb.add("coassociativity", D.kron(I) @ D == I.kron(D) @ D)
    rb.add("counit", eps.kron(I) @ D == I and I.kron(eps) @ D == I)
    rb.add_all("delta-multiplicative", (
        (f"pair ({i},{j})",
         np.all(D @ A.mult[i, j, :] == loop_tensor_product(A, A, D.col(i), D.col(j))))
        for i, j in product(range(d), repeat=2)))
    rb.add("delta-unital", np.all(D @ A.unit == f.normalize(np.kron(A.unit, A.unit))))
    rb.add("epsilon-multiplicative", all(
        np.all(f.normalize(eps @ A.mult[i, j, :]) == f.normalize(eps.col(i) * eps.col(j)))
        for i, j in product(range(d), repeat=2)))
    rb.add("epsilon-unital", np.all(eps @ A.unit == f.normalize(np.array([1], dtype=f.dtype))))
    return rb.build()


# -- random structures, valid and broken --------------------------------------

FIELDS = (F2, F3, F5, QQ)
Q_VALUES = tuple(Fraction(x) for x in (-2, -1, 0, 1, 2)) + (Fraction(1, 2), Fraction(-1, 3))
VALID = (scalar_algebra, dual_numbers, lambda f: group_algebra(cyclic_group(2), f)[0],
         lambda f: group_algebra(cyclic_group(3), f)[0], lambda f: matrix_algebra(f, 2))


def scalars(f):
    return st.sampled_from(Q_VALUES) if f.kind == "Q" else st.integers(0, f.p - 1)


def arrays(draw, f, shape):
    n = int(np.prod(shape))
    vals = draw(st.lists(scalars(f), min_size=n, max_size=n))
    return np.array(vals, dtype=object).reshape(shape)


def matrices(draw, f, rows, cols):
    return Matrix(f, arrays(draw, f, (rows, cols)))


def tampered(draw, f, arr):
    """arr with one entry overwritten by a drawn scalar."""
    arr = np.array(arr, dtype=object)
    idx = tuple(draw(st.integers(0, n - 1)) for n in arr.shape)
    arr[idx] = draw(scalars(f))
    return arr


def change_of_basis(draw, f, d):
    P = matrices(draw, f, d, d)
    assume(P.is_invertible())
    return P, P.inverse()


def structure_matrix(A):
    return Matrix(A.field, A.mult.reshape(A.dim * A.dim, A.dim).T)


def rebased(A, P, Pinv):
    """A in the basis of the columns of P; x -> Pinv x is an isomorphism onto it."""
    d = A.dim
    mu = Pinv @ structure_matrix(A) @ P.kron(P)
    return Algebra(A.field, mu.a.T.reshape(d, d, d), Pinv @ A.unit)


@st.composite
def algebras(draw, f=None):
    """A random structure tensor, or a valid algebra (in a random basis or
    not), possibly with one structure constant or unit entry overwritten."""
    f = draw(st.sampled_from(FIELDS)) if f is None else f
    if draw(st.booleans()):
        d = draw(st.integers(1, 3))
        return Algebra(f, arrays(draw, f, (d, d, d)), arrays(draw, f, (d,)))
    A = draw(st.sampled_from(VALID))(f)
    if draw(st.booleans()):
        A = rebased(A, *change_of_basis(draw, f, A.dim))
    which = draw(st.sampled_from(("valid", "mult", "unit")))
    if which == "mult":
        return Algebra(f, tampered(draw, f, A.mult), A.unit)
    if which == "unit":
        return Algebra(f, A.mult, tampered(draw, f, A.unit))
    return A


@st.composite
def bimodules(draw):
    f = draw(st.sampled_from(FIELDS))
    B, A = draw(algebras(f)), draw(algebras(f))
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        return Bimodule(B, A, n, [matrices(draw, f, n, n) for _ in range(B.dim)],
                        [matrices(draw, f, n, n) for _ in range(A.dim)])
    reg = regular_bimodule(A)
    left, right = list(reg.left_action), list(reg.right_action)
    if draw(st.booleans()):
        side = draw(st.sampled_from((left, right)))
        i = draw(st.integers(0, A.dim - 1))
        side[i] = Matrix(f, tampered(draw, f, side[i].a))
    return Bimodule(A, A, A.dim, left, right)


@st.composite
def bialgebras(draw):
    f = draw(st.sampled_from(FIELDS))
    if draw(st.booleans()):
        A = draw(algebras(f))
        d = A.dim
        return Bialgebra(A, matrices(draw, f, d * d, d), matrices(draw, f, 1, d))
    H = grouplike_bialgebra(cyclic_group(draw(st.integers(1, 3))), f)
    A, delta, eps = H.algebra, H.delta, H.epsilon
    if draw(st.booleans()):
        P, Pinv = change_of_basis(draw, f, H.dim)
        A, delta, eps = rebased(A, P, Pinv), Pinv.kron(Pinv) @ delta @ P, eps @ P
    which = draw(st.sampled_from(("valid", "delta", "epsilon")))
    if which == "delta":
        delta = Matrix(f, tampered(draw, f, delta.a))
    elif which == "epsilon":
        eps = Matrix(f, tampered(draw, f, eps.a))
    return Bialgebra(A, delta, eps)


def same(x, y):
    return x.shape == y.shape and bool(np.all(x == y))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_products_match_the_loops(data):
    A = data.draw(algebras())
    f, d = A.field, A.dim
    x, y = arrays(data.draw, f, (d,)), arrays(data.draw, f, (d,))
    assert same(A.multiply(x, y), loop_multiply(A, x, y))
    assert A.left_mult(x) == loop_combination(f, loop_lmul(A), x)
    assert A.right_mult(x) == loop_combination(f, loop_rmul(A), x)
    assert all(A.basis_left_mult(i) == L for i, L in enumerate(loop_lmul(A)))
    assert all(A.basis_right_mult(i) == R for i, R in enumerate(loop_rmul(A)))
    assert A.mu == structure_matrix(A)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_tensor_algebra_products_match_the_loop(data):
    f = data.draw(st.sampled_from(FIELDS))
    A, B = data.draw(algebras(f)), data.draw(algebras(f))
    n, p, q = A.dim * B.dim, data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    X, Y = matrices(data.draw, f, n, p), matrices(data.draw, f, n, q)
    want = [loop_tensor_product(A, B, X.col(i), Y.col(j)) for i in range(p) for j in range(q)]
    assert _tensor_products(A, B, X, Y) == Matrix(f, np.stack(want, axis=1))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_actions_match_the_loops(data):
    M = data.draw(bimodules())
    f = M.field
    a = arrays(data.draw, f, (M.right_algebra.dim,))
    b = arrays(data.draw, f, (M.left_algebra.dim,))
    assert M.right_act(a) == loop_combination(f, M.right_action, a)
    assert M.left_act(b) == loop_combination(f, M.left_action, b)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_check_algebra_report_matches_the_loop(data):
    A = data.draw(algebras())
    assert str(check_algebra(A)) == str(loop_check_algebra(A))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_morphism_report_matches_the_loop(data):
    """Random maps between random algebras, and the change of basis of a
    valid algebra (an isomorphism), possibly with one entry overwritten."""
    f = data.draw(st.sampled_from(FIELDS))
    if data.draw(st.booleans()):
        S, T = data.draw(algebras(f)), data.draw(algebras(f))
        F = matrices(data.draw, f, T.dim, S.dim)
    else:
        S = data.draw(st.sampled_from(VALID))(f)
        P, Pinv = change_of_basis(data.draw, f, S.dim)
        T, F = rebased(S, P, Pinv), Pinv
        if data.draw(st.booleans()):
            F = Matrix(f, tampered(data.draw, f, F.a))
    m = AlgebraMorphism(S, T, F)
    assert str(m.validate()) == str(loop_morphism_report(m))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_bimodule_report_matches_the_loop(data):
    M = data.draw(bimodules())
    assert str(M.validate()) == str(loop_bimodule_report(M))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_bialgebra_report_matches_the_loop(data):
    H = data.draw(bialgebras())
    assert str(H.validate()) == str(loop_bialgebra_report(H))


# -- generators and the generator-word check -----------------------------------

KLEIN = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


@pytest.mark.parametrize("A, want", [
    (scalar_algebra(F3), ()),
    (dual_numbers(F2), (1,)),
    (group_algebra(cyclic_group(5), F5)[0], (1,)),
    (group_algebra(cyclic_group(4), QQ)[0], (1,)),
    (group_algebra(KLEIN, F3)[0], (1, 2)),
    (group_algebra(s3_table(), QQ)[0], (1, 2)),
    (matrix_algebra(F2, 2), (0, 1, 2)),
], ids=["k", "F2[t]/t^2", "F5[Z5]", "Q[Z4]", "F3[Z2xZ2]", "Q[S3]", "M2(F2)"])
def test_generators_of_known_algebras(A, want):
    assert A.generators() == want
    assert A.generators() is A.generators()


def words_span(A, gens):
    """The dimension of the span of the unit and gens closed under left
    multiplication by gens, by the loop multiplication."""
    f = A.field
    span = [as_vector(f, A.unit)] + [basis_vector(f, A.dim, g) for g in gens]
    while True:
        grown = span + [loop_multiply(A, basis_vector(f, A.dim, g), v) for g in gens
                        for v in span]
        rank = Matrix(f, np.array(grown, dtype=object).reshape(len(grown), A.dim)).rank()
        if rank == Matrix(f, np.array(span, dtype=object).reshape(len(span), A.dim)).rank():
            return rank
        span = grown


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_generator_words_span_the_algebra(data):
    """On random structures too: the words in the chosen generators span A,
    and each generator lies outside the words in those chosen before it."""
    A = data.draw(algebras())
    gens = A.generators()
    assert words_span(A, gens) == A.dim
    for k, g in enumerate(gens):
        assert words_span(A, gens[:k]) < words_span(A, gens[:k] + (g,))


@st.composite
def valid_bimodules(draw):
    """Bimodules over valid algebras, in a random basis or not: the regular
    one or a random-basis copy of it, perhaps with one action entry
    overwritten, or random actions."""
    f = draw(st.sampled_from(FIELDS))
    A = draw(st.sampled_from(VALID))(f)
    if draw(st.booleans()):
        A = rebased(A, *change_of_basis(draw, f, A.dim))
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        return Bimodule(A, A, n, [matrices(draw, f, n, n) for _ in range(A.dim)],
                        [matrices(draw, f, n, n) for _ in range(A.dim)])
    reg = regular_bimodule(A)
    P, Pinv = change_of_basis(draw, f, A.dim)
    left = [Pinv @ X @ P for X in reg.left_action]
    right = [Pinv @ X @ P for X in reg.right_action]
    if draw(st.booleans()):
        side = draw(st.sampled_from((left, right)))
        i = draw(st.integers(0, A.dim - 1))
        side[i] = Matrix(f, tampered(draw, f, side[i].a))
    return Bimodule(A, A, A.dim, left, right)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_generator_check_agrees_with_the_full_audit(data):
    """Over an associative unital algebra the generator-word check of each
    side passes exactly when that side's unit and associativity rows of
    Bimodule.validate pass."""
    M = data.draw(valid_bimodules())
    rep = M.validate()
    for side in ("left", "right"):
        full = rep.check(f"{side}-unit").ok and rep.check(f"{side}-associativity").ok
        assert getattr(M, f"{side}_is_representation") == full
