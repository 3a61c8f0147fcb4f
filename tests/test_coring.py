"""Coring axioms, morphisms, composition, and cointegral search."""

import numpy as np
import pytest

from corings import (GF, QQ, AlgebraMorphism, Cointegral, Coring, CoringMorphism,
                     EntwiningStructure,
                     Matrix, check_coring, check_coring_morphism, compose_morphisms,
                     coring_from_entwining, find_cointegral, group_algebra,
                     grouplike_coalgebra, matrix_algebra, matrix_coring, scalar_algebra,
                     trivial_coring)
from corings.algebra import Bimodule
from corings.report import BalancednessError
from corings.tensor import tensor_over

from conftest import dual_numbers

F2, F3 = GF(2), GF(3)


def test_trivial_coring_every_base():
    for A in (scalar_algebra(QQ), matrix_algebra(QQ, 2), dual_numbers(F2),
              group_algebra([[0, 1], [1, 0]], F2)[0]):
        assert check_coring(trivial_coring(A)).ok


def test_matrix_coring_valid_and_formula():
    C = matrix_coring(scalar_algebra(F2), 2)
    assert check_coring(C).ok
    # Delta(e_12) = e_11 (x) e_12 + e_12 (x) e_22 read off in ambient coords
    amb = C.delta_ambient @ np.array([0, 1, 0, 0], dtype=np.int64)
    expect = F2.zeros((16,))
    expect[0 * 4 + 1] = 1   # e11 (x) e12
    expect[1 * 4 + 3] = 1   # e12 (x) e22
    assert np.all(amb == expect)


def test_matrix_coring_over_group_algebra():
    A, _ = group_algebra([[0, 1], [1, 0]], F2)
    C = matrix_coring(A, 2)
    assert C.dim == 8
    assert check_coring(C).ok


def test_matrix_coring_n1_is_trivial():
    A = dual_numbers(F3)
    C1 = matrix_coring(A, 1)
    T = trivial_coring(A)
    assert C1.dim == T.dim
    assert check_coring(C1).ok
    assert C1.delta == T.delta and C1.epsilon == T.epsilon


def test_broken_counit_names_witness():
    C = matrix_coring(scalar_algebra(F2), 2)
    eps_bad = C.epsilon.copy()
    eps_bad.a.setflags(write=True)
    eps_bad.a[0, 1] = 1  # eps(e_12) = 1
    bad = Coring(C.base, C.bimodule, C.delta, eps_bad)
    rep = check_coring(bad)
    assert not rep.ok
    failed = {c.name for c in rep.failures()}
    assert failed & {"counit-left", "counit-right", "epsilon-left-linear",
                     "epsilon-right-linear"}


def test_grouplike_coalgebra_axioms():
    assert check_coring(grouplike_coalgebra(1, QQ)).ok
    assert check_coring(grouplike_coalgebra(2, F2)).ok
    assert check_coring(grouplike_coalgebra(["a", "b", "c"], F3)).ok


# -- morphisms ------------------------------------------------------------------

def swap_morphism(C):
    f = C.field
    return CoringMorphism(C, C, Matrix(f, [[0, 1], [1, 0]]),
                          AlgebraMorphism.identity(C.base))


def test_identity_morphism_is_iso():
    C = grouplike_coalgebra(2, F2)
    m = CoringMorphism.identity(C)
    assert check_coring_morphism(m).ok
    assert m.is_isomorphism()


def test_grouplike_swap_is_morphism():
    # Delta(g) = g (x) g is preserved by any permutation of group-likes
    C = grouplike_coalgebra(2, F2)
    m = swap_morphism(C)
    assert check_coring_morphism(m).ok
    assert m.is_isomorphism()


def test_grouplike_to_sum_fails_comultiplicativity():
    C = grouplike_coalgebra(2, QQ)
    m = CoringMorphism(C, C, Matrix(QQ, [[1, 1], [0, 1]]),
                       AlgebraMorphism.identity(C.base))
    rep = check_coring_morphism(m)
    assert not rep.ok
    assert not rep.check("comultiplicative").ok


def test_compose_with_identity():
    C = grouplike_coalgebra(3, F2)
    m = CoringMorphism(C, C, Matrix(F2, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                       AlgebraMorphism.identity(C.base))
    assert compose_morphisms(m, CoringMorphism.identity(C)).phi == m.phi


def test_compose_grouplike_cycles():
    C = grouplike_coalgebra(3, F2)
    # two transpositions compose to a 3-cycle (permutation oracle)
    s01 = Matrix(F2, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    s12 = Matrix(F2, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    m1 = CoringMorphism(C, C, s01, AlgebraMorphism.identity(C.base))
    m2 = CoringMorphism(C, C, s12, AlgebraMorphism.identity(C.base))
    comp = compose_morphisms(m2, m1)
    perm = {0: 2, 1: 0, 2: 1}  # s12 after s01 on indices
    want = F2.zeros((3, 3))
    for src, dst in perm.items():
        want[dst, src] = 1
    assert comp.phi == Matrix(F2, want)
    assert check_coring_morphism(comp).ok


def test_swap_squares_to_identity():
    C = grouplike_coalgebra(2, F3)
    m = swap_morphism(C)
    assert compose_morphisms(m, m).phi == Matrix.eye(F3, 2)


def test_inverse_morphism():
    C = grouplike_coalgebra(2, F3)
    m = swap_morphism(C)
    inv = m.inverse()
    assert check_coring_morphism(inv).ok
    assert (m.compose(inv)).phi == Matrix.eye(F3, 2)


# -- cointegrals ----------------------------------------------------------------

def test_trivial_coring_cointegral():
    A = dual_numbers(F2)
    C = trivial_coring(A)
    ci = find_cointegral(C)
    assert ci is not None
    assert ci.validate().ok
    # delta is the unit isomorphism A (x)_A A -> A: composing with Delta
    # gives the identity on A coordinates
    assert ci.delta @ C.delta == C.epsilon


def test_matrix_coring_cointegral():
    C = matrix_coring(scalar_algebra(F2), 2)
    ci = find_cointegral(C)
    assert ci is not None
    assert ci.validate().ok


def test_grouplike_coalgebra_cointegral():
    # delta(g (x) h) = [g == h] works for any group-like coalgebra
    C = grouplike_coalgebra(3, QQ)
    ci = find_cointegral(C)
    assert ci is not None


def test_divided_power_coalgebra_has_no_cointegral():
    # C = span{c0, c1}, Delta(c1) = c0 (x) c1 + c1 (x) c0: the dual algebra
    # is k[t]/(t^2), which is not separable, so no cointegral can exist
    k = scalar_algebra(QQ)
    bim = Bimodule(k, k, 2, [Matrix.eye(QQ, 2)], [Matrix.eye(QQ, 2)])
    sq = tensor_over(bim, bim)
    damb = Matrix(QQ, [[1, 0], [0, 1], [0, 1], [0, 0]])
    C = Coring(k, bim, sq.project @ damb, Matrix(QQ, [[1, 0]]), name="divided-power")
    assert check_coring(C).ok
    assert find_cointegral(C) is None


def test_zero_carrier_is_refused():
    """A coring needs a nonzero carrier, as grouplike_coalgebra and
    matrix_coring need a nonempty basis; the zero bimodule, which a cotensor
    kernel can be, stays a bimodule."""
    k = scalar_algebra(F3)
    zero = Bimodule(k, k, 0, [Matrix.zeros(F3, 0, 0)], [Matrix.zeros(F3, 0, 0)])
    assert zero.validate().ok
    with pytest.raises(ValueError, match="nonzero carrier"):
        Coring(k, zero, Matrix.zeros(F3, 0, 0), Matrix.zeros(F3, 1, 0))


def _unbalanced_coring():
    """The dual numbers over F2 entwined with grouplike(2) by psi = bits 73
    (entry (k // 4, k % 4) is bit k), and its coring report: Delta is not
    right A-linear, and Delta (x) C does not descend to the cube."""
    psi = Matrix(F2, np.array([(73 >> k) & 1 for k in range(16)]).reshape(4, 4))
    return coring_from_entwining(EntwiningStructure(dual_numbers(F2),
                                                    grouplike_coalgebra(2, F2), psi))


def test_coassociativity_maps_are_kept_and_unbalanced_ones_raise():
    C = matrix_coring(dual_numbers(F2), 2)
    left, right = C.coassociativity_maps
    assert C.coassociativity_maps[0] is left and C.coassociativity_maps[1] is right
    assert left.shape == (C.cube.dim, C.square.dim)
    assert left @ C.delta == right @ C.delta
    D, rep = _unbalanced_coring()
    with pytest.raises(BalancednessError) as exc:
        D.coassociativity_maps
    assert exc.value.witness is not None
    assert [c.witness for c in rep.checks if c.name == "coassociativity"] \
        == ["ambient comultiplication is unbalanced"]
    assert find_cointegral(D) is None


def test_cointegral_on_an_unbalanced_comultiplication_fails_its_report():
    """Cointegral.validate reports a failed mixed coassociativity, as
    check_coring reports its coassociativity, when Delta (x) C does not
    descend to the cube; it does not raise."""
    D, _ = _unbalanced_coring()
    rep = Cointegral(D, Matrix.zeros(F2, D.base.dim, D.square.dim)).validate()
    assert not rep.ok
    assert [(c.ok, c.witness) for c in rep.checks if c.name == "mixed-coassociativity"] \
        == [(False, "ambient comultiplication is unbalanced")]
