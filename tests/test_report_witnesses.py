"""Every axiom audit's report, pinned as text: the check names, their order,
their verdicts and the witness of each first failure.

The inputs are broken on purpose (tampered tables, actions, coactions,
mixing maps and morphisms) so that each check fails somewhere, plus the
valid corpus corings.  ``tests/data/report_witnesses.json`` maps each case
to ``str(report)``; regenerate it with

    PYTHONPATH=src python tests/test_report_witnesses.py --write

only when a report is meant to change.
"""

import json
import pathlib
import sys

import numpy as np

from corings import (GF, QQ, Algebra, AlgebraMorphism, Bialgebra, Bimodule, Cointegral,
                     Comodule, Coring, CoringMorphism, DualElement, EntwiningStructure,
                     GradedData, LeftComodule, Matrix, check_algebra, check_bicomodule,
                     check_comodule, check_coring, check_coring_morphism,
                     check_graded_triple, check_group_table, check_left_comodule,
                     coring_from_entwining, cyclic_group, dk_from_graded,
                     entwined_to_comodule, find_cointegral, flip_entwining, graded_coring,
                     group_algebra, grouplike_bialgebra, grouplike_coalgebra,
                     matrix_algebra, matrix_coring, regular_bicomodule, regular_bimodule,
                     regular_gset, right_module, scalar_algebra, tensor_over,
                     trivial_coring)
from corings.convolution import LEFT, RIGHT

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from conftest import dual_numbers, kz2_graded  # noqa: E402

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "report_witnesses.json"
F2, F3 = GF(2), GF(3)

# 16-bit mixing maps psi (bit k is entry (k // 4, k % 4)) of the dual numbers
# over F2 entwined with grouplike(2): together they fail every coring check
# an entwining can break, with each witness string that check produces
PSI_BITS = (0, 2, 3, 4, 5, 17, 19, 33, 73, 224, 279, 4369, 43690, 65535)


def tampered(M: Matrix, entries) -> Matrix:
    """A copy of M with the (row, col, value) entries overwritten."""
    arr = M.a.copy()
    arr.setflags(write=True)
    for r, c, v in entries:
        arr[r, c] = M.field.scalar(v)
    return Matrix(M.field, arr)


def psi_from_bits(bits: int) -> Matrix:
    return Matrix(F2, np.array([(bits >> k) & 1 for k in range(16)],
                               dtype=np.int64).reshape(4, 4))


def algebra_cases():
    A = matrix_algebra(F2, 2)
    bad = A.mult.copy()
    bad[0, 0, :] = 0
    bad[0, 0, 3] = 1  # e11 * e11 = e22
    yield "algebra/matrix-F2-assoc", check_algebra(Algebra(F2, bad, A.unit, names=A.names))
    D = dual_numbers(F3)
    yield "algebra/dual-F3-unit", check_algebra(Algebra(F3, D.mult, [0, 1], names=D.names))
    Q = matrix_algebra(QQ, 2)
    badq = Q.mult.copy()
    badq[1, 2, 0] = 2  # e12 * e21 = 2 e11
    yield "algebra/matrix-Q-assoc", check_algebra(Algebra(QQ, badq, Q.unit, names=Q.names))
    yield "group/nonassoc", check_group_table([[0, 1, 2], [1, 0, 0], [2, 0, 1]])
    yield "group/shape", check_group_table([[0, 1], [1, 5]])
    yield "group/no-identity", check_group_table([[1, 0], [0, 1]])


def bimodule_cases():
    A = matrix_algebra(F2, 2)
    reg = regular_bimodule(A)
    left = list(reg.left_action)
    left[1] = Matrix.eye(F2, 4)
    yield "bimodule/left-broken", Bimodule(A, A, 4, left, reg.right_action).validate()
    right = list(reg.right_action)
    right[2] = reg.left_action[2]
    yield "bimodule/right-broken", Bimodule(A, A, 4, reg.left_action, right).validate()
    yield "bimodule/sides-swapped", Bimodule(A, A, 4, reg.right_action,
                                             reg.left_action).validate()
    T = Matrix(F2, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    yield "morphism/transpose", AlgebraMorphism(A, A, T).validate()
    yield "morphism/zero", AlgebraMorphism(A, A, Matrix.zeros(F2, 4, 4)).validate()


def coring_cases():
    A, C = dual_numbers(F2), grouplike_coalgebra(2, F2)
    for bits in PSI_BITS:
        _, rep = coring_from_entwining(EntwiningStructure(A, C, psi_from_bits(bits)))
        yield f"coring/entwined-psi-{bits}", rep
    Mc = matrix_coring(scalar_algebra(F2), 2)
    eps_bad = tampered(Mc.epsilon, [(0, 1, 1)])
    yield "coring/matrix-eps-broken", check_coring(
        Coring(Mc.base, Mc.bimodule, Mc.delta, eps_bad))
    T = trivial_coring(group_algebra(cyclic_group(2), F3)[0])
    yield "coring/trivial-delta-doubled", check_coring(
        Coring(T.base, T.bimodule, T.delta.scale(2), T.epsilon))
    yield "coring/trivial-eps-swapped", check_coring(
        Coring(T.base, T.bimodule, T.delta, Matrix(F3, [[0, 1], [1, 0]])))
    D = trivial_coring(dual_numbers(F3))
    yield "coring/dual-delta-tampered", check_coring(
        Coring(D.base, D.bimodule, tampered(D.delta, [(0, 1, 1)]), D.epsilon))
    left = [D.bimodule.right_action[1], D.bimodule.left_action[1]]
    bim = Bimodule(D.base, D.base, 2, left, D.bimodule.right_action)
    sq = tensor_over(bim, bim)
    yield "coring/dual-left-action-broken", check_coring(
        Coring(D.base, bim, sq.project @ D.delta_ambient, D.epsilon))
    for C in (grouplike_coalgebra(2, F2), grouplike_coalgebra(3, F2),
              matrix_coring(scalar_algebra(F2), 2),
              trivial_coring(group_algebra(cyclic_group(2), F2)[0], name="trivial F2[Z2]"),
              graded_coring(kz2_graded(F3)), grouplike_coalgebra(3, GF(5)),
              graded_coring(kz2_graded(QQ)), matrix_coring(dual_numbers(QQ), 2),
              trivial_coring(dual_numbers(F2))):
        yield f"coring/valid-{C.name}-{C.field}", check_coring(C)


def morphism_cases():
    C = grouplike_coalgebra(2, QQ)
    yield "coring-morphism/grouplike-sum", check_coring_morphism(
        CoringMorphism(C, C, Matrix(QQ, [[1, 1], [0, 1]]), AlgebraMorphism.identity(C.base)))
    yield "coring-morphism/grouplike-zero", check_coring_morphism(
        CoringMorphism(C, C, Matrix.zeros(QQ, 2, 2), AlgebraMorphism.identity(C.base)))
    A = group_algebra(cyclic_group(2), F3)[0]
    T = matrix_coring(A, 2)
    phi = tampered(Matrix.eye(F3, T.dim), [(0, 1, 1)])
    yield "coring-morphism/matrix-left-broken", check_coring_morphism(
        CoringMorphism(T, T, phi, AlgebraMorphism.identity(A)))
    swap = AlgebraMorphism(A, A, Matrix(F3, [[0, 1], [1, 0]]))
    yield "coring-morphism/matrix-rho-swap", check_coring_morphism(
        CoringMorphism(T, T, Matrix.eye(F3, T.dim), swap))
    D = dual_numbers(F2)
    Td = trivial_coring(D)
    yield "coring-morphism/dual-rho-broken", check_coring_morphism(
        CoringMorphism(Td, Td, Matrix.eye(F2, 2),
                       AlgebraMorphism(D, D, Matrix(F2, [[1, 1], [0, 1]]))))


def comodule_cases():
    C = grouplike_coalgebra(2, F2)
    reg = regular_bicomodule(C)
    bad_rho = tampered(reg.rho, [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])
    yield "comodule/grouplike-counit", check_comodule(
        Comodule(C, reg.module, bad_rho))
    yield "left-comodule/grouplike-counit", check_left_comodule(
        LeftComodule(C, reg.module, bad_rho))
    T = trivial_coring(dual_numbers(F3))
    treg = regular_bicomodule(T)
    for label, rho in (("rho-tampered", tampered(treg.rho, [(0, 1, 1)])),
                       ("rho-swapped", Matrix(F3, [[0, 1], [1, 0]])),
                       ("rho-doubled", treg.rho.scale(2))):
        yield f"comodule/dual-{label}", check_comodule(
            Comodule(T, treg.module, rho))
        yield f"left-comodule/dual-{label}", check_left_comodule(
            LeftComodule(T, treg.module, rho))
    A = dual_numbers(F3)
    T2 = trivial_coring(A)
    bad = Coring(A, T2.bimodule, T2.delta, Matrix(F3, [[0, 1], [1, 0]]))
    yield "comodule/eps-swapped", check_comodule(Comodule(bad, bad.bimodule, bad.delta))
    yield "left-comodule/eps-swapped", check_left_comodule(
        LeftComodule(bad, bad.bimodule, bad.delta))
    G = grouplike_coalgebra(2, QQ)
    module = right_module(G.base, 2, [Matrix.eye(QQ, 2)])
    yield "comodule/Q-zero-coaction", check_comodule(
        Comodule(G, module, Matrix.zeros(QQ, 4, 2)))
    for C in (T, matrix_coring(scalar_algebra(F2), 2), graded_coring(kz2_graded(F3))):
        yield f"bicomodule/regular-{C.name}-{C.field}", check_bicomodule(regular_bicomodule(C))
    E = flip_entwining(dual_numbers(F2), grouplike_coalgebra(2, F2))
    A = E.algebra
    module = right_module(A, 2, [A.basis_right_mult(i) for i in range(2)])
    rho_plain = Matrix(F2, [[1, 0], [0, 1], [0, 1], [1, 1]])
    _, crep, compat = entwined_to_comodule(E, module, rho_plain)
    yield "entwined-comodule/comodule", crep
    yield "entwined-comodule/compat", compat


def dual_cases():
    T = trivial_coring(dual_numbers(F2))
    for side in (RIGHT, LEFT):
        for label, values in (("swap", [[0, 1], [1, 0]]), ("first", [[1, 0], [0, 0]]),
                              ("unit", [[1, 0], [0, 1]])):
            yield f"dual-element/{side}-{label}", DualElement(
                T, side, Matrix(F2, values)).validate()
    Mc = matrix_coring(dual_numbers(F3), 2)
    v = Matrix.zeros(F3, 2, Mc.dim)
    yield "dual-element/matrix-zero", DualElement(Mc, RIGHT, v).validate()
    yield "dual-element/matrix-tampered", DualElement(
        Mc, LEFT, tampered(Mc.epsilon, [(1, 0, 1)])).validate()


def cointegral_cases():
    for C in (matrix_coring(scalar_algebra(F2), 2), graded_coring(kz2_graded(F3)),
              trivial_coring(dual_numbers(F3)), graded_coring(kz2_graded(QQ))):
        found = find_cointegral(C)
        if found is not None:
            yield f"cointegral/found-{C.name}-{C.field}", found.validate()
        q2, dA = C.square.dim, C.base.dim
        yield f"cointegral/zero-{C.name}-{C.field}", Cointegral(
            C, Matrix.zeros(C.field, dA, q2)).validate()
        ones = Matrix(C.field, [[1] * q2 for _ in range(dA)])
        yield f"cointegral/ones-{C.name}-{C.field}", Cointegral(C, ones).validate()


def family_cases():
    H = grouplike_bialgebra(cyclic_group(2), F2)
    yield "bialgebra/valid", H.validate()
    yield "bialgebra/delta-tampered", Bialgebra(
        H.algebra, tampered(H.delta, [(1, 1, 1)]), H.epsilon).validate()
    yield "bialgebra/epsilon-broken", Bialgebra(
        H.algebra, H.delta, Matrix(F2, [[1, 0]])).validate()
    H3 = grouplike_bialgebra(cyclic_group(3), F3)
    yield "bialgebra/Z3-delta-swapped", Bialgebra(
        H3.algebra, tampered(H3.delta, [(4, 1, 0), (3, 1, 1)]), H3.epsilon).validate()
    Dk = dk_from_graded(kz2_graded(F3))
    yield "dk/valid", Dk.validate()
    yield "dk/coaction-tampered", type(Dk)(
        Dk.bialgebra, Dk.algebra, tampered(Dk.coaction, [(0, 0, 0), (1, 0, 1)]),
        Dk.coalgebra, Dk.action).validate()
    yield "dk/action-tampered", type(Dk)(
        Dk.bialgebra, Dk.algebra, Dk.coaction, Dk.coalgebra,
        tampered(Dk.action, [(0, 1, 1)])).validate()
    G = cyclic_group(3)
    A, degrees = group_algebra(G, F3)
    yield "graded/valid", GradedData(G, regular_gset(G), A, degrees).validate()
    yield "graded/gset-nonassoc", GradedData(
        G, [[0, 1, 2], [1, 0, 2], [2, 2, 0]], A, degrees).validate()
    yield "graded/degrees-broken", GradedData(G, regular_gset(G), A, [0, 2, 1]).validate()
    yield "graded/unit-degree", GradedData(G, regular_gset(G), A, [1, 2, 0]).validate()
    yield "graded/gset-shape", GradedData(G, [[0, 1, 2], [1, 2]], A, degrees).validate()
    Gd = kz2_graded(F3)
    alpha = Matrix.eye(F3, 2)
    yield "graded-triple/valid", check_graded_triple(Gd, [0, 1], [1, 0], alpha)
    yield "graded-triple/phi-not-equivariant", check_graded_triple(
        Gd, [0, 0], [1, 0], alpha)
    yield "graded-triple/alpha-degree", check_graded_triple(
        Gd, [0, 1], [0, 1], Matrix(F3, [[0, 1], [1, 0]]))
    yield "graded-triple/alpha-not-multiplicative", check_graded_triple(
        Gd, [0, 1], [0, 1], Matrix(F3, [[1, 1], [0, 1]]))
    Gd3 = GradedData(G, regular_gset(G), A, degrees)
    yield "graded-triple/Z3-inversion-alpha-identity", check_graded_triple(
        Gd3, [0, 2, 1], [0, 2, 1], Matrix.eye(F3, 3))


def reports() -> dict:
    out = {}
    for family in (algebra_cases, bimodule_cases, coring_cases, morphism_cases,
                   comodule_cases, dual_cases, cointegral_cases, family_cases):
        for label, rep in family():
            assert label not in out, label
            out[label] = str(rep)
    return out


def test_reports_match_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = reports()
    assert list(got) == list(want)
    for label in want:
        assert got[label] == want[label], label


def test_golden_exercises_failures_and_witnesses():
    """The pinned reports are not vacuous: many fail, with witnesses."""
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sum("INVALID" in text for text in want.values()) >= 50
    assert sum(text.count(" @ ") for text in want.values()) >= 60


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(json.dumps(reports(), indent=1) + "\n", encoding="utf-8")
    else:
        for label, text in reports().items():
            print(f"== {label}\n{text}")
