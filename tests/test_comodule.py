"""Comodules, hom spaces, cotensor products, and twisted bicomodules."""

import numpy as np
import pytest

from corings import (GF, QQ, AlgebraMorphism, Bicomodule, Comodule, CoringMorphism,
                     Matrix, bicomodule_hom_space, bicomodule_iso_exists, check_bicomodule,
                     check_comodule, comodule_hom_space, cotensor, cotensor_unit_left,
                     cotensor_unit_right, enumerate_automorphisms, graded_coring,
                     grouplike_coalgebra, matrix_coring, regular_bicomodule, right_dual_algebra,
                     right_module, scalar_algebra, tensor_over, trivial_coring,
                     twisted_bicomodule)
from corings.fields import basis_vector

from conftest import dual_numbers, kz2_graded

F2, F3 = GF(2), GF(3)


def test_regular_comodule_valid():
    for C in (grouplike_coalgebra(2, F2), matrix_coring(scalar_algebra(F2), 2),
              trivial_coring(dual_numbers(F3)), graded_coring(kz2_graded(F3))):
        reg = regular_bicomodule(C)
        assert check_comodule(reg.as_right).ok
        assert check_bicomodule(reg).ok


def test_base_module_over_trivial_coring():
    A = dual_numbers(F2)
    C = trivial_coring(A)
    reg = regular_bicomodule(C).as_right
    assert check_comodule(reg).ok


def test_broken_counit_witnessed():
    C = grouplike_coalgebra(2, F2)
    reg = regular_bicomodule(C).as_right
    bad_rho = reg.rho.copy()
    bad_rho.a.setflags(write=True)
    bad_rho.a[:, 0] = 0  # kill the coaction on the first group-like
    M = Comodule(C, reg.module, bad_rho)
    rep = check_comodule(M)
    assert not rep.ok
    assert not rep.check("counit").ok


def grouplike_graded_comodule(C, dims):
    """Right kG-comodule from a G-graded vector space: rho(m_g) = m_g (x) g."""
    f = C.field
    n = sum(dims)
    module = right_module(C.base, n, [Matrix.eye(f, n)])
    mc = tensor_over(module, C.bimodule)
    amb = f.zeros((n * C.dim, n))
    one = f.scalar(1)
    i = 0
    for g, d in enumerate(dims):
        for _ in range(d):
            amb[i * C.dim + g, i] = one
            i += 1
    return Comodule(C, module, mc.project @ Matrix(f, amb))


def test_hom_space_of_regular_grouplike():
    # Hom^C(C, C) for C = kZ_2 over F_2: the two diagonal maps
    C = grouplike_coalgebra(2, F2)
    reg = regular_bicomodule(C).as_right
    homs = comodule_hom_space(reg, reg)
    assert len(homs) == 2
    for h in homs:
        assert h.a[0, 1] == 0 and h.a[1, 0] == 0


def test_hom_space_contains_identity():
    for C in (grouplike_coalgebra(3, F3), matrix_coring(scalar_algebra(F2), 2)):
        reg = regular_bicomodule(C).as_right
        homs = comodule_hom_space(reg, reg)
        span = Matrix(C.field, np.stack([h.a.reshape(-1) for h in homs], axis=1))
        assert span.column_space_contains(Matrix.eye(C.field, C.dim).a.reshape(-1))


def test_hom_space_dimension_matches_dual():
    # Hom^C(C, C) and C* have equal dimension (dual-basis duality)
    C = matrix_coring(scalar_algebra(F2), 2)
    reg = regular_bicomodule(C).as_right
    homs = comodule_hom_space(reg, reg)
    assert len(homs) == right_dual_algebra(C).dim == 4


def test_cotensor_unit_laws():
    for C in (grouplike_coalgebra(2, F2), matrix_coring(scalar_algebra(F2), 2),
              graded_coring(kz2_graded(F3))):
        reg = regular_bicomodule(C)
        ct, iso = cotensor_unit_left(reg)
        assert ct.dim == C.dim
        assert iso.is_invertible()
        ct2, iso2 = cotensor_unit_right(reg)
        assert ct2.dim == C.dim
        assert iso2.is_invertible()
        assert check_bicomodule(ct.bicomodule).ok


def test_cotensor_unit_iso_is_bicomodule_morphism():
    C = grouplike_coalgebra(3, F2)
    reg = regular_bicomodule(C)
    ct, iso = cotensor_unit_left(reg)
    homs = bicomodule_hom_space(ct.bicomodule, reg)
    span = Matrix(F2, np.stack([h.a.reshape(-1) for h in homs], axis=1))
    assert span.column_space_contains(iso.a.reshape(-1))


def test_cotensor_of_graded_comodules_counts_matches():
    """Over kG, M box N picks out matched isotypic pieces: its dimension is
    sum_g dim(M_g) dim(N_g) when N carries the left mirror grading."""
    C = grouplike_coalgebra(2, F2)
    dimsM = (2, 1)
    dimsN = (1, 3)
    # build the bicomodule views: M as (A, C)-bicomodule with trivial left
    triv = trivial_coring(C.base, name="k-trivial")
    f = C.field
    from corings.algebra import Bimodule as Bim

    # left coaction of the trivial coring: m -> [1 (x) m]
    def as_bicomodule_right(dims):
        n = sum(dims)
        module = Bim(C.base, C.base, n, [Matrix.eye(f, n)], [Matrix.eye(f, n)])
        mc = tensor_over(module, C.bimodule)
        amb = f.zeros((n * C.dim, n))
        i = 0
        for g, d in enumerate(dims):
            for _ in range(d):
                amb[i * C.dim + g, i] = f.scalar(1)
                i += 1
        rho = mc.project @ Matrix(f, amb)
        t = tensor_over(triv.bimodule, module)
        unitcol = Matrix.column(f, triv.base.unit)
        lam = t.project @ unitcol.kron(Matrix.eye(f, n))
        return Bicomodule(triv, C, module, lam, rho)

    def as_bicomodule_left(dims):
        # left kG-comodule from the grading, right trivial
        n = sum(dims)
        module = Bim(C.base, C.base, n, [Matrix.eye(f, n)], [Matrix.eye(f, n)])
        cm = tensor_over(C.bimodule, module)
        amb = f.zeros((C.dim * n, n))
        i = 0
        for g, d in enumerate(dims):
            for _ in range(d):
                amb[g * n + i, i] = f.scalar(1)
                i += 1
        lam = cm.project @ Matrix(f, amb)
        t = tensor_over(module, triv.bimodule)
        unitcol = Matrix.column(f, triv.base.unit)
        rho = t.project @ Matrix.eye(f, n).kron(unitcol)
        return Bicomodule(C, triv, module, lam, rho)

    M = as_bicomodule_right(dimsM)
    N = as_bicomodule_left(dimsN)
    assert check_bicomodule(M).ok and check_bicomodule(N).ok
    ct = cotensor(M, N)
    want = sum(dm * dn for dm, dn in zip(dimsM, dimsN))
    assert ct.dim == want == 2 * 1 + 1 * 3


def test_cotensor_associativity():
    C = grouplike_coalgebra(2, F3)
    reg = regular_bicomodule(C)
    left = cotensor(cotensor(reg, reg).bicomodule, reg)
    right = cotensor(reg, cotensor(reg, reg).bicomodule)
    assert left.dim == right.dim == C.dim
    res = bicomodule_iso_exists(left.bicomodule, right.bicomodule)
    assert res.status == "isomorphic"


def test_cotensor_associativity_twisted_triple():
    """Bracketings agree on a genuinely twisted triple (kZ3 automorphisms)."""
    C = grouplike_coalgebra(3, F2)
    auts = enumerate_automorphisms(C)
    ms = [m for m in auts.elements if m.phi != Matrix.eye(F2, 3)][:2]
    X = twisted_bicomodule(ms[0])
    Y = twisted_bicomodule(ms[1])
    Z = regular_bicomodule(C)
    left = cotensor(cotensor(X, Y).bicomodule, Z)
    right = cotensor(X, cotensor(Y, Z).bicomodule)
    assert left.dim == right.dim
    res = bicomodule_iso_exists(left.bicomodule, right.bicomodule)
    assert res.status == "isomorphic"


def test_iso_exists_identity():
    C = grouplike_coalgebra(2, F2)
    reg = regular_bicomodule(C)
    res = bicomodule_iso_exists(reg, reg)
    assert res.status == "isomorphic"


def test_twisted_identity_is_regular():
    C = graded_coring(kz2_graded(F3))
    tw = twisted_bicomodule(CoringMorphism.identity(C))
    assert tw.lam == C.delta and tw.rho == C.delta
    res = bicomodule_iso_exists(tw, regular_bicomodule(C))
    assert res.status == "isomorphic"


def test_twisted_swap_not_isomorphic_to_regular():
    C = grouplike_coalgebra(2, F2)
    swap = CoringMorphism(C, C, Matrix(F2, [[0, 1], [1, 0]]),
                          AlgebraMorphism.identity(C.base))
    tw = twisted_bicomodule(swap)
    assert check_bicomodule(tw).ok
    res = bicomodule_iso_exists(tw, regular_bicomodule(C))
    assert res.status == "not-isomorphic"
    assert res.certainty == "deterministic"


def test_twisted_swap_exchanges_coactions():
    # for the group-like swap f, the left coaction of _fC tags each
    # group-like with its image under the swap
    C = grouplike_coalgebra(2, F2)
    swap = CoringMorphism(C, C, Matrix(F2, [[0, 1], [1, 0]]),
                          AlgebraMorphism.identity(C.base))
    tw = twisted_bicomodule(swap)
    lam_amb = tw.as_left.lam_ambient()
    for g in range(2):
        want = F2.zeros((4,))
        want[(1 - g) * 2 + g] = 1   # swap(g) (x) g
        assert np.all(lam_amb @ basis_vector(F2, 2, g) == want)


def test_twist_functoriality_kz3():
    """_{gf}C = _gC box_C _fC for the nontrivial automorphisms of kZ_3."""
    C = grouplike_coalgebra(3, F2)
    auts = enumerate_automorphisms(C)
    nontrivial = [m for m in auts.elements if m.phi != Matrix.eye(F2, 3)]
    f, g = nontrivial[0], nontrivial[1]
    comp = g.compose(f)
    lhs = twisted_bicomodule(comp)
    rhs = cotensor(twisted_bicomodule(g), twisted_bicomodule(f)).bicomodule
    assert bicomodule_iso_exists(lhs, rhs).status == "isomorphic"


def test_twist_requires_isomorphism():
    C = grouplike_coalgebra(2, QQ)
    m = CoringMorphism(C, C, Matrix(QQ, [[1, 0], [0, 0]]),
                       AlgebraMorphism.identity(C.base))
    from corings.report import InvalidStructureError
    with pytest.raises(InvalidStructureError):
        twisted_bicomodule(m)
