"""Convolution duals: pointwise structure on group-likes, matrix duals,
two-sided inverses, and transport of comodules to modules over R."""

import itertools

import numpy as np

from corings import (GF, QQ, DualElement, Matrix, check_algebra, comodule_to_dual_module,
                     convolution_inverse, counit_element, grouplike_coalgebra,
                     is_convolution_invertible, left_dual_algebra, matrix_coring,
                     regular_bicomodule, right_dual_algebra, scalar_algebra,
                     subspace_contains_unit, trivial_coring)
from corings.convolution import RIGHT
from corings.fields import basis_vector

from conftest import dual_numbers, kz2_graded

F2, F3, F5 = GF(2), GF(3), GF(5)


def test_trivial_coring_dual_is_base_field():
    C = trivial_coring(scalar_algebra(QQ))
    d = right_dual_algebra(C)
    assert d.dim == 1
    assert check_algebra(d.algebra).ok


def test_grouplike_dual_is_pointwise():
    """C* of kG is the function algebra k^G: build the pointwise table
    independently and compare structure constants."""
    for n, field in ((2, F2), (3, QQ)):
        C = grouplike_coalgebra(n, field)
        d = right_dual_algebra(C)
        assert d.dim == n
        # identify basis elements: each is supported on one group1-like
        support = []
        for b in d.basis:
            nz = [j for j in range(n) if b.a[0, j] != field.scalar(0)]
            assert len(nz) == 1
            support.append(nz[0])
        assert sorted(support) == list(range(n))
        # pointwise oracle: delta_g * delta_h = [g == h] delta_g
        for i in range(d.dim):
            for j in range(d.dim):
                prod = d.algebra.mult[i, j, :]
                want = field.zeros((n,))
                if support[i] == support[j]:
                    scale = d.basis[i].a[0, support[i]] * d.basis[j].a[0, support[j]]
                    # coefficient in the basis: value / basis value
                    want[i] = field.normalize(np.array([scale]))[0] \
                        * field.inv_scalar(d.basis[i].a[0, support[i]])
                assert np.all(prod == field.normalize(want))


def test_grouplike_left_dual_is_pointwise():
    C = grouplike_coalgebra(3, F2)
    ld = left_dual_algebra(C)
    assert ld.dim == 3
    assert check_algebra(ld.algebra).ok
    for i in range(3):
        di = F2.zeros((1, 3))
        di[0, i] = 1
        for j in range(3):
            dj = F2.zeros((1, 3))
            dj[0, j] = 1
            prod = ld.convolve(Matrix(F2, di), Matrix(F2, dj))
            want = F2.zeros((1, 3))
            if i == j:
                want[0, i] = 1
            assert prod == Matrix(F2, want)


def test_matrix_coring_dual_is_matrix_algebra():
    C = matrix_coring(scalar_algebra(F2), 2)
    d = right_dual_algebra(C)
    assert d.dim == 4
    assert check_algebra(d.algebra).ok
    # noncommutative
    noncomm = any(
        not np.all(d.algebra.mult[i, j, :] == d.algebra.mult[j, i, :])
        for i in range(4) for j in range(4))
    assert noncomm
    # dual-basis maps x_ij (e_kl) = [ik][jl]: convolution matches matrix
    # units up to the convention's transpose: x_ij * x_kl = [i==l] x_kj
    def dual_basis_matrix(i, j):
        vals = F2.zeros((1, 4))
        vals[0, 2 * i + j] = 1
        return Matrix(F2, vals)

    for i, j, k, l in itertools.product(range(2), repeat=4):
        prod = d.convolve(dual_basis_matrix(i, j), dual_basis_matrix(k, l))
        want = F2.zeros((1, 4))
        if i == l:
            want[0, 2 * k + j] = 1
        assert prod == Matrix(F2, want), (i, j, k, l)


def test_left_dual_dimension_of_graded_coring():
    from corings import graded_coring
    C = graded_coring(kz2_graded(F3))
    ld = left_dual_algebra(C)
    # Hom of a free rank-|X| left module into A: |X| * dim A
    assert ld.dim == 4
    assert check_algebra(ld.algebra).ok


def test_counit_is_convolution_unit():
    C = grouplike_coalgebra(2, F3)
    eps = counit_element(C)
    q = convolution_inverse(eps)
    assert q is not None and q.values == eps.values


def test_pointwise_inverse_on_grouplikes():
    C = grouplike_coalgebra(2, F3)
    p = DualElement(C, RIGHT, Matrix(F3, [[1, 2]]))
    q = convolution_inverse(p)
    assert q is not None
    # pointwise inversion: 1^-1 = 1, 2^-1 = 2 mod 3
    assert q.values == Matrix(F3, [[1, 2]])
    p0 = DualElement(C, RIGHT, Matrix(F3, [[1, 0]]))
    assert convolution_inverse(p0) is None


def test_inverse_agrees_with_unit_search_single_element():
    """p invertible iff subspace_contains_unit on {p}: exhaustive over all
    81 elements of the graded dual over F_3."""
    from corings import graded_coring
    C = graded_coring(kz2_graded(F3))
    dual = right_dual_algebra(C)
    assert dual.dim == 4
    n_inv = 0
    for entries in itertools.product(range(3), repeat=4):
        coords = np.array(entries, dtype=np.int64)
        p = dual.element(coords)
        direct = convolution_inverse(p) is not None
        search = subspace_contains_unit([coords], dual.algebra)
        assert direct == (search.status == "witness")
        n_inv += direct
    assert 0 < n_inv < 81


def test_trivial_coring_units_are_algebra_units():
    """For C = A, p is convolution invertible iff p = left multiplication by
    a unit of A: exhaustive over small algebras."""
    for A in (dual_numbers(F2), dual_numbers(F3)):
        C = trivial_coring(A)
        dual = right_dual_algebra(C)
        assert dual.dim == A.dim  # Hom_A(A, A) = A via p -> p(1)
        field = A.field
        p_count = 0
        for entries in itertools.product(range(field.p), repeat=A.dim):
            coords = np.array(entries, dtype=np.int64)
            p = dual.element(coords)
            b = p.values @ A.unit  # p(1)
            expect = A.element_inverse(b) is not None
            got = convolution_inverse(p) is not None
            assert got == expect
            # p is left multiplication by b
            assert p.values == A.left_mult(b)
            p_count += got
        assert p_count >= 1


def test_dual_element_validation():
    C = matrix_coring(scalar_algebra(F2), 2)
    eps = counit_element(C)
    assert eps.validate().ok
    bad = DualElement(C, RIGHT, Matrix(F2, [[1, 1, 0, 0]]))
    # over the base field every linear map is right-linear; use a base with
    # more structure to see a failure
    A = dual_numbers(F2)
    T = trivial_coring(A)
    notlin = DualElement(T, RIGHT, Matrix(F2, [[0, 0], [0, 1]]))
    assert not notlin.validate().ok


# -- transport to modules over R ---------------------------------------------

def test_transport_regular_grouplike():
    """For M = C = kG the R-action is the pointwise one."""
    C = grouplike_coalgebra(2, F3)
    reg = regular_bicomodule(C).as_right
    tr = comodule_to_dual_module(reg)
    assert tr.ring.dim == 2
    assert tr.module.validate().ok
    # each left-dual basis element acts diagonally on the group-likes
    ld = left_dual_algebra(C)
    for i, h in enumerate(ld.basis):
        act = tr.module.right_action[i]
        for g in range(2):
            want = F3.normalize(h.a[0, g] * basis_vector(F3, 2, g))
            assert np.all(act @ basis_vector(F3, 2, g) == want)


def test_transport_trivial_coring_is_right_multiplication():
    A = dual_numbers(F3)
    C = trivial_coring(A)
    reg = regular_bicomodule(C).as_right
    tr = comodule_to_dual_module(reg)
    assert tr.module.validate().ok
    # R = (*C)^op acts on A by right multiplication: for the dual element
    # f with f(1) = b, the action is m -> m b
    ld = tr.dual
    for i, h in enumerate(ld.basis):
        b = h @ A.unit  # h(1)
        assert tr.module.right_action[i] == A.right_mult(b)


def test_transport_hom_set_equality():
    """Comodule morphisms equal R-module morphisms inside Hom_k(M, N)."""
    from corings import comodule_hom_space
    C = grouplike_coalgebra(2, F2)
    reg = regular_bicomodule(C).as_right
    tr = comodule_to_dual_module(reg)
    homs_comodule = comodule_hom_space(reg, reg)
    # R-module morphism space by direct solve
    rows = []
    for a in range(tr.ring.dim):
        X = tr.module.right_action[a]
        rows.append((Matrix.eye(F2, 2).kron(X.T) - X.kron(Matrix.eye(F2, 2))).a)
    basis = Matrix(F2, np.vstack(rows)).nullspace()
    homs_module = [basis.col(j) for j in range(basis.ncols)]
    assert len(homs_comodule) == len(homs_module)
    span1 = Matrix(F2, np.stack([h.a.reshape(-1) for h in homs_comodule], axis=0))
    span2 = Matrix(F2, np.stack(homs_module, axis=0))
    both = Matrix(F2, np.vstack([span1.a, span2.a]))
    assert span1.rank() == span2.rank() == both.rank()


def test_transport_requires_left_projectivity():
    # every family coring here is left projective; verify the check runs
    C = matrix_coring(dual_numbers(F2), 2)
    reg = regular_bicomodule(C).as_right
    tr = comodule_to_dual_module(reg)
    assert tr.module.validate().ok
