"""Tensor products over the base algebra as explicit quotients: unit
isomorphisms, associativity of bracketings, induced maps, and independence
from the section choice.

Chains of three factors are built by left bracketing; ``chain_oracle``
keeps the all-at-once construction (every adjacent balancing family on the
full k-tensor product, one elimination) as their referee, and ``_eager``
the composition ``P_last @ (P_head (x) I)``, ``(S_head (x) I) @ S_last`` as
the referee of the maps a chain applies through its head.  ``_every_basis``
keeps the relation blocks of every basis vector of A as the referee of
balancing over the generators of A.  Its blocks are dense, written by
``kron_eye_difference`` and eliminated by ``Matrix._kernel`` (``_dense_route``):
the referee of the quotients, which eliminate the nonzeros alone."""

import gc
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corings import (GF, QQ, Bimodule, EntwiningStructure, GradedData, Matrix, check_coring,
                     coring_from_entwining, cotensor, cyclic_group, enumerate_automorphisms,
                     graded_coring, group_algebra, grouplike_coalgebra, inner_via_bicomodule,
                     is_inner, matrix_algebra, matrix_coring, regular_bicomodule,
                     regular_bimodule, regular_gset, scalar_algebra, tensor_chain, tensor_over,
                     twisted_bicomodule)
from corings import cli
from corings import io as doc_io
from corings.fields import (basis_vector, first_difference, kron_eye_difference_rows,
                            kron_eye_times, times_kron_eye)
from corings.report import BalancednessError
from corings.tensor import TensorQuotient

from conftest import dual_numbers, kron_eye_difference

F2, F3 = GF(2), GF(3)


def algebras():
    A, _ = group_algebra([[0, 1], [1, 0]], F3)
    return [scalar_algebra(QQ), dual_numbers(F2), A, matrix_algebra(F2, 2)]


@pytest.mark.parametrize("A", algebras())
def test_a_tensor_a_collapses_to_a(A):
    bim = regular_bimodule(A)
    t = tensor_over(bim, bim)
    assert t.dim == A.dim
    assert t.project @ t.section == Matrix.eye(A.field, t.dim)
    # balancing subspace is exactly the kernel of project
    relations = _every_basis(bim, bim)[2]
    if relations.nrows:
        assert (t.project @ relations.T).is_zero()
    assert relations.rank() == t.ambient_dim - t.dim


def test_base_field_balancing_is_vacuous():
    # over k, M (x)_k N never collapses: dim 16 for two 4-dim modules
    A = scalar_algebra(F2)
    mc = matrix_algebra(F2, 2)
    from corings.algebra import right_module, left_module
    M = right_module(A, 4, [Matrix.eye(F2, 4)])
    N = left_module(A, 4, [Matrix.eye(F2, 4)])
    t = tensor_over(M, N)
    assert t.dim == 16
    assert t.relations.nrows == 0


def test_unit_isomorphism_is_action():
    """A (x)_A M = M via the action: project restricted to 1 (x) m."""
    A = dual_numbers(F2)
    bim = regular_bimodule(A)
    t = tensor_over(bim, bim)
    # the map m -> [1 (x) m] is inverse to the left action on the quotient
    unitcol = Matrix.column(F2, A.unit)
    embed = t.project @ unitcol.kron(Matrix.eye(F2, A.dim))
    # multiply back: [a (x) b] -> ab
    mult = F2.zeros((A.dim, A.dim * A.dim))
    for i in range(A.dim):
        for j in range(A.dim):
            mult[:, i * A.dim + j] = A.mult[i, j, :]
    collapse = Matrix(F2, mult) @ t.section
    assert collapse @ embed == Matrix.eye(F2, A.dim)
    assert embed @ collapse == Matrix.eye(F2, t.dim)


@pytest.mark.parametrize("A", [dual_numbers(F2), group_algebra([[0, 1], [1, 0]], F3)[0]])
def test_chain_matches_iterated_bracketing(A):
    bim = regular_bimodule(A)
    chain = tensor_chain([bim, bim, bim])
    # left bracketing: (M (x)_A N) (x)_A P
    t12 = tensor_over(bim, bim)
    left_iter = tensor_over(t12.module, bim)
    # right bracketing: M (x)_A (N (x)_A P)
    right_iter = tensor_over(bim, t12.module)
    assert chain.dim == left_iter.dim == right_iter.dim
    # explicit isomorphism: section of the iterated, expanded to the chain
    f = A.field
    expand_l = chain.project @ t12.section.kron(Matrix.eye(f, A.dim)) @ left_iter.section
    assert expand_l.is_invertible()
    expand_r = chain.project @ Matrix.eye(f, A.dim).kron(t12.section) @ right_iter.section
    assert expand_r.is_invertible()


def test_induced_identity_map():
    A = dual_numbers(F2)
    bim = regular_bimodule(A)
    t = tensor_over(bim, bim)
    ind = t.induce(Matrix.eye(F2, t.ambient_dim), t)
    assert ind == Matrix.eye(F2, t.dim)


def test_induced_map_balancedness_checked():
    """A non-A-linear perturbation of the comultiplication embedding must be
    rejected with a witness relation."""
    from corings import matrix_coring
    A = dual_numbers(F2)
    C = matrix_coring(A, 2)
    t2 = C.square
    cube = C.cube
    good = C.delta_ambient.kron(Matrix.eye(F2, C.dim))
    ind = t2.induce(good, cube)  # passes: Delta is A-bilinear
    assert ind.shape == (cube.dim, t2.dim)
    bad = good.copy()
    bad.a.setflags(write=True)
    bad.a[0, :] = (bad.a[0, :] + 1) % 2
    with pytest.raises(BalancednessError) as exc:
        t2.induce(bad, cube)
    assert exc.value.witness is not None


def test_induced_map_independent_of_section():
    """project o f o section agrees between two different pivot orders: the
    quotient's chart and one eliminated with the ambient columns reversed."""
    A, _ = group_algebra([[0, 1], [1, 0]], F3)
    bim = regular_bimodule(A)
    t = tensor_over(bim, bim)
    n = t.ambient_dim
    relations = _every_basis(bim, bim)[2]
    back = np.arange(n)[::-1]      # the reversal is its own inverse
    kernel, free = relations.rearranged(lambda x: x[:, back])._kernel()
    project = kernel.rearranged(lambda x: np.ascontiguousarray(x.T[:, back]))
    section = Matrix.eye(F3, n).rearranged(lambda x: x[back][:, free])
    assert len(free) == t.dim
    assert project @ section == Matrix.eye(F3, t.dim)
    assert (project @ relations.T).is_zero()
    assert section != t.section
    # an A-bilinear ambient endomorphism: the flip a (x) b -> b (x) a is not
    # bilinear in general; use multiplication-recombination instead
    amb = Matrix.eye(F3, n)
    ind1 = t.induce(amb, t)
    # transport through the other chart
    chart = project @ t.section          # t-coords -> other-coords
    chart_inv = t.project @ section
    ind2 = chart_inv @ (project @ amb @ section) @ chart
    assert ind1 == ind2
    # and the induced actions agree across charts
    Ir = Matrix.eye(F3, bim.dim)
    for a in range(A.dim):
        other_left = project @ bim.left_action[a].kron(Ir) @ section
        assert chart_inv @ other_left @ chart == t.module.left_action[a]


def test_quotient_bimodule_actions_valid():
    A = matrix_algebra(F2, 2)
    bim = regular_bimodule(A)
    t = tensor_over(bim, bim)
    assert t.module.validate().ok


def test_mismatched_inner_algebras_rejected():
    A = dual_numbers(F2)
    B = matrix_algebra(F2, 2)
    with pytest.raises(ValueError):
        tensor_over(regular_bimodule(A), regular_bimodule(B))


def test_inner_algebras_of_one_dimension_must_be_the_same_object():
    """F3[Z2] and F3[t]/t^2 are both 2-dimensional; balancing over one of
    them the other's module is refused, not a quotient."""
    with pytest.raises(ValueError):
        tensor_over(regular_bimodule(_kz(2, F3)), regular_bimodule(dual_numbers(F3)))


# -- the all-at-once chain quotient as a referee for left bracketing ---------

def chain_oracle(factors):
    """Relations, project, section and induced bimodule of M_1 (x) ... (x) M_r
    quotiented by every adjacent balancing family at once, on the full
    k-tensor product, in one elimination."""
    field = factors[0].field
    dims = [m.dim for m in factors]
    blocks = []
    for pos, (M, N) in enumerate(zip(factors, factors[1:])):
        IL = Matrix.eye(field, int(np.prod(dims[:pos])))
        IR = Matrix.eye(field, int(np.prod(dims[pos + 2:])))
        for a in range(M.right_algebra.dim):
            core = M.right_action[a].T.kron(Matrix.eye(field, N.dim)) \
                - Matrix.eye(field, M.dim).kron(N.left_action[a].T)
            blocks.append(IL.kron(core).kron(IR).a)
    relations = Matrix(field, np.vstack(blocks))
    # the rows of the rref kernel basis are the project matrix: identity on
    # the free columns, minus the reduced rows on the pivot columns
    project = relations.nullspace().T
    n, q = project.ncols, project.nrows
    _, pivots = relations.rref()
    free = [j for j in range(n) if j not in set(pivots)]
    section = field.zeros((n, q))
    for idx, j in enumerate(free):
        section[j, idx] = field.scalar(1)
    section = Matrix(field, section)
    rest, head = int(np.prod(dims[1:])), int(np.prod(dims[:-1]))
    lact = [project @ L.kron(Matrix.eye(field, rest)) @ section for L in factors[0].left_action]
    ract = [project @ Matrix.eye(field, head).kron(R) @ section for R in factors[-1].right_action]
    module = Bimodule(factors[0].left_algebra, factors[-1].right_algebra, q, lact, ract)
    return relations, project, section, module


def _same(x: Matrix, y: Matrix) -> bool:
    """Entry for entry equal, with the same dtype and entry types."""
    return (x.a.dtype == y.a.dtype and x.shape == y.shape
            and x.a.tolist() == y.a.tolist()
            and [type(v) for v in x.a.reshape(-1)] == [type(v) for v in y.a.reshape(-1)])


def _kz(n, field):
    A, _ = group_algebra(cyclic_group(n), field)
    return A


def _graded(n, field):
    G = cyclic_group(n)
    A, degrees = group_algebra(G, field)
    return graded_coring(GradedData(G, regular_gset(G), A, degrees))


def _entwined(seed):
    """The coring on A (x) C of a seeded random psi over F2: mostly not an
    entwining, so mostly an invalid coring, but its bimodule's actions
    commute and its cube is a chain all the same."""
    rng = np.random.default_rng(seed)
    psi = Matrix(F2, rng.integers(0, 2, size=(4, 4)))
    coring, _ = coring_from_entwining(
        EntwiningStructure(dual_numbers(F2), grouplike_coalgebra(2, F2), psi))
    return coring


REGULAR = {"F2[t]/t^2": lambda: dual_numbers(F2), "F3[Z2]": lambda: _kz(2, F3),
           "Q[Z2]": lambda: _kz(2, QQ)}
CORINGS = {"Mc2(F2[t]/t^2)": lambda: matrix_coring(dual_numbers(F2), 2),
           "Mc2(F3[Z2])": lambda: matrix_coring(_kz(2, F3), 2),
           "graded Z2/F3": lambda: _graded(2, F3), "graded Z3/F3": lambda: _graded(3, F3),
           **{f"entwined psi seed {s}": (lambda s=s: _entwined(s)) for s in range(4)}}
def _regular_chain(A):
    factors = [regular_bimodule(A)] * 3
    return factors, tensor_chain(factors)


def _cube(C):
    return [C.bimodule] * 3, C.cube


def _comodule_chain(C, side):
    """The chain that check_comodule (side "mcc") or check_left_comodule
    (side "ccm") reads for C as a regular bicomodule."""
    M = regular_bicomodule(C).module
    factors = [M, C.bimodule, C.bimodule] if side == "mcc" else [C.bimodule, C.bimodule, M]
    return factors, tensor_chain(factors)


def _twisted_chain(which):
    """A chain that check_bicomodule ("bicomodule") or cotensor ("mcn",
    "left", "right") reads for M = N the twist of graded Z2/F3 by an
    automorphism whose rho is not the identity, so M's module is not C's
    carrier."""
    C = _graded(2, F3)
    M = twisted_bicomodule(_moved(C)[0])
    cotensor(M, M)
    m, c = M.module, C.bimodule
    factors = {"bicomodule": [c, m, c], "mcn": [m, c, m], "left": [c, m, m],
               "right": [m, m, c]}[which]
    return factors, tensor_chain(factors)


# each case returns its factors and its chain, built through the library's
# own call site
CHAINS = {
    **{f"{name} regular": (lambda A=A: _regular_chain(A())) for name, A in REGULAR.items()},
    **{f"{name} cube": (lambda C=C: _cube(C())) for name, C in CORINGS.items()},
    **{f"{name} {side}": (lambda C=C, side=side: _comodule_chain(C(), side))
       for side in ("mcc", "ccm") for name, C in CORINGS.items()},
    **{f"graded Z2/F3 twist {which}": (lambda which=which: _twisted_chain(which))
       for which in ("bicomodule", "mcn", "left", "right")},
}


@pytest.mark.parametrize("build", CHAINS.values(), ids=CHAINS.keys())
def test_left_bracketed_chain_matches_all_at_once(build):
    factors, chain = build()
    _, project, section, module = chain_oracle(factors)
    assert chain.dim == project.nrows
    assert _same(chain.project, project)
    assert _same(chain.section, section)
    got = chain.module
    assert all(_same(x, y) for x, y in zip(got.left_action, module.left_action))
    assert all(_same(x, y) for x, y in zip(got.right_action, module.right_action))


def _eager(factors, chain):
    """The chain's project and section composed with the krons:
    ``P_last @ (P_head (x) I)`` and ``(S_head (x) I) @ S_last``."""
    head = tensor_chain(factors[:-1])
    I = Matrix.eye(chain.field, factors[-1].dim)
    return chain.last.project @ head.project.kron(I), head.section.kron(I) @ chain.last.section


def _random(field, rows, cols, rng):
    """A seeded matrix; over Q its entries have denominators up to 3."""
    if field == QQ:
        return Matrix(QQ, np.array([[Fraction(int(x), int(y)) for x, y in row] for row in
                                    rng.integers([-3, 1], [4, 4], size=(rows, cols, 2))],
                                   dtype=object).reshape(rows, cols))
    return Matrix(field, rng.integers(0, field.p, size=(rows, cols)))


@pytest.mark.parametrize("build", CHAINS.values(), ids=CHAINS.keys())
def test_chain_maps_through_the_head_match_the_eager_composition(build):
    """Every map a chain applies through its head, and its lazily composed
    project and section, equal the eager kron composition."""
    factors, chain = build()
    P, S = _eager(factors, chain)
    f, n, q = chain.field, chain.ambient_dim, chain.dim
    rng = np.random.default_rng(n + q)
    X, Y, Z, noise = (_random(f, *shape, rng) for shape in ((n, 3), (q, 2), (2, q), (2, n)))
    assert _same(chain.apply_project(X), P @ X)
    assert _same(chain.apply_section(Y), S @ Y)
    assert _same(chain.restrict(noise), noise @ S)
    assert _same(chain.descend(Z @ P), Z @ P @ S)
    bad = Z @ P + noise
    j = first_difference(bad, bad @ S @ P)
    assert (j is None) == (q == n)
    if j is not None:
        with pytest.raises(BalancednessError) as exc:
            chain.descend(bad)
        e = basis_vector(f, n, j)
        want = f.normalize(e - S @ (P @ e))
        assert exc.value.witness.tolist() == want.tolist()
    assert _same(chain.project, P)
    assert _same(chain.section, S)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_kron_eye_helpers_match_an_explicit_kron(data):
    """(P (x) I_d) @ X and Y @ (P (x) I_d), applied to reshaped operands,
    and the relation block A (x) I - I (x) B, against the krons
    themselves, over F2, F3, Q with denominators and F_p past 2^20, whose
    residues are Python ints."""
    f = data.draw(st.sampled_from([F2, F3, QQ, GF(2**31 - 1)]), label="field")
    q, n, m = (data.draw(st.integers(0, 3)) for _ in range(3))
    d = data.draw(st.integers(1, 3), label="d")
    if f == QQ:
        entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        entries = st.integers(0, f.p - 1)

    def matrix(rows, cols):
        cells = data.draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
        return Matrix(f, np.array(cells, dtype=object).reshape(rows, cols))

    P, X, Y = matrix(q, n), matrix(n * d, m), matrix(m, q * d)
    E = P.kron(Matrix.eye(f, d))
    assert _same(kron_eye_times(P, X, d), E @ X)
    assert _same(times_kron_eye(Y, P, d), Y @ E)
    A, B = matrix(n, n), matrix(d, d)
    assert _same(kron_eye_difference(A, B),
                 A.kron(Matrix.eye(f, d)) - Matrix.eye(f, n).kron(B))


def test_relation_block_scales_past_int64_in_python_ints():
    """Numerators scaled to the common denominator 12 pass 2^63, so the
    dense block is built in Python ints, not wrapped in int64; the sparse
    rows, in Python ints throughout, eliminate to its quotient."""
    X = Matrix(QQ, [[Fraction(2**61, 3), 1], [0, 1]])
    Y = Matrix(QQ, [[Fraction(1, 4), 2**60], [1, 0]])
    assert _same(kron_eye_difference(X, Y),
                 X.kron(Matrix.eye(QQ, 2)) - Matrix.eye(QQ, 2).kron(Y))
    _assert_sparse_route(QQ, [(X.T, Y.T)], 4)


def _dense_route(field, pairs, ncols):
    """The free columns and project of the relation blocks ``X (x) I - I
    (x) Y``, X = R^T and Y = L^T for each pair (R, L), written dense and
    stacked, and eliminated by ``Matrix._kernel``; and the stack."""
    blocks = [kron_eye_difference(R.T, L.T) for R, L in pairs]
    relations = Matrix.vstack(blocks) if blocks else Matrix.zeros(field, 0, ncols)
    kernel, free = relations._kernel()
    return free, kernel.T, relations


def _densify(rel):
    """The sparse rows as a dense Matrix, row for row."""
    out = np.zeros((rel.nrows, rel.ncols), dtype=object)
    for r, row in enumerate(rel.rows):
        for c, v in ([(c, 1) for c in range(rel.ncols) if row >> c & 1]
                     if rel.field.p == 2 else row.items()):
            out[r, c] = v
    return Matrix(rel.field, out)


def _assert_sparse_route(field, pairs, ncols):
    """The sparse rows of the pairs' blocks are the dense stack's nonzero
    rows, each times a positive integer (1 over F_p), and eliminate to the
    dense route's free columns and project, byte for byte."""
    rel = kron_eye_difference_rows(field, pairs, ncols)
    project, free = rel.kernel_rows()
    want_free, want_project, stack = _dense_route(field, pairs, ncols)
    assert free == want_free
    assert _same(project, want_project)
    dense = stack.a[(stack.N != 0).any(axis=1)]
    assert rel.nrows == len(dense) and rel.ncols == ncols
    for got, want in zip(_densify(rel).a.tolist(), dense.tolist()):
        if field == QQ:
            scale = {x / y for x, y in zip(got, want) if y}
            assert len(scale) == 1
            c = scale.pop()
            assert c > 0 and c.denominator == 1
            want = [c * y for y in want]
        assert got == want


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_sparse_relations_match_the_dense_route(data):
    """Random pairs (R, L), mostly sparse, sometimes dense (as after a
    change of basis, which makes the elimination fill in), over F2, F3, F5,
    F_p past 2^20 (Python-int residues) and Q, with denominators and with
    numerators past 2^63: the sparse rows and their quotient against the
    dense route."""
    f = data.draw(st.sampled_from([F2, F3, GF(5), GF(2**31 - 1), QQ]), label="field")
    m, n = data.draw(st.integers(1, 4), label="m"), data.draw(st.integers(1, 4), label="n")
    dense = data.draw(st.booleans(), label="dense")
    if f == QQ:
        nonzero = st.sampled_from([1, -1, 2, Fraction(1, 3), Fraction(-5, 4), 2**64 + 1,
                                   -(2**70), Fraction(2**65, 3)])
    else:
        nonzero = st.integers(1, f.p - 1)
    entries = nonzero if dense else st.one_of(st.just(0), st.just(0), nonzero)

    def matrix(k):
        cells = data.draw(st.lists(entries, min_size=k * k, max_size=k * k))
        return Matrix(f, np.array(cells, dtype=object).reshape(k, k))

    pairs = [(matrix(m), matrix(n)) for _ in range(data.draw(st.integers(1, 3), label="pairs"))]
    _assert_sparse_route(f, pairs, m * n)


@pytest.mark.parametrize("name", ["Mc2(F2[t]/t^2)", "graded Z2/F3"])
def test_descend_witness_is_an_unkilled_relation(name):
    """A map that breaks balance fails with a witness in the span of the
    all-at-once relations that the map does not kill."""
    C = CORINGS[name]()
    cube = C.cube
    relations = chain_oracle([C.bimodule] * 3)[0]
    f = C.field
    good = cube.project
    assert cube.descend(good) == Matrix.eye(f, cube.dim)
    for row in (0, good.nrows - 1):
        bad = good.copy()
        bad.a[row, :] = f.normalize(bad.a[row, :] + np.arange(cube.ambient_dim))
        with pytest.raises(BalancednessError) as exc:
            cube.descend(bad)
        w = exc.value.witness
        assert Matrix.vstack([relations, Matrix(f, w.reshape(1, -1))]).rank() == relations.rank()
        assert any(x != f.scalar(0) for x in bad @ w)


# -- every product is kept by its left operand ---------------------------------

@pytest.mark.parametrize("power", ["square", "cube"])
@pytest.mark.parametrize("name", CORINGS.keys())
def test_cached_power_equals_a_fresh_quotient(name, power):
    """C.square and C.cube, kept by the carrier and by the square, are the
    quotients built afresh from an uncached twin of the carrier."""
    C = CORINGS[name]()
    got = getattr(C, power)
    bim = C.bimodule
    twin = Bimodule(bim.left_algebra, bim.right_algebra, bim.dim, bim.left_action,
                    bim.right_action)
    fresh = TensorQuotient([twin] * (2 if power == "square" else 3))
    assert got is tensor_chain([bim] * (2 if power == "square" else 3))
    assert got.dim == fresh.dim
    assert got.relations == fresh.relations
    for attr in ("project", "section"):
        assert _same(getattr(got, attr), getattr(fresh, attr))
    for side in ("left_action", "right_action"):
        assert all(_same(x, y) for x, y in zip(getattr(got.module, side),
                                               getattr(fresh.module, side)))


@pytest.fixture
def builds(monkeypatch):
    """Counts TensorQuotient constructions: "two" for a two-factor
    elimination, "chain" for three or more factors."""
    counts = Counter()
    init = TensorQuotient.__init__

    def counted(self, factors):
        counts["two" if len(factors) == 2 else "chain" if len(factors) > 2 else "one"] += 1
        init(self, factors)

    monkeypatch.setattr(TensorQuotient, "__init__", counted)
    return counts


def test_cube_after_square_is_one_new_elimination(builds):
    C = matrix_coring(_kz(2, F3), 2)
    C.square
    builds.clear()
    C.cube
    assert builds == {"two": 1, "chain": 1}
    C.cube
    assert builds == {"two": 1, "chain": 1}


def test_bicomodule_oracle_on_rho_identity_builds_no_quotient(builds):
    C = _graded(3, F3)
    C.square, C.cube
    f = enumerate_automorphisms(C).elements[1]
    builds.clear()
    assert inner_via_bicomodule(f).status == "isomorphic"
    assert not builds


@pytest.mark.parametrize("build, command", [
    (["grouplike", "-n", "3", "--field", "F2"], ["exactseq", "--enumerate"]),
    (["matrix", "-n", "2", "--field", "F2"], ["exactseq", "--enumerate"]),
    (["graded-coring", "--group", "3", "--field", "F3"], ["exactseq", "--enumerate"]),
    (["graded-coring", "--group", "3", "--field", "F3"], ["validate"]),
    (["graded-coring", "--group", "3", "--field", "F3"], ["cointegral"]),
], ids=["kZ3/F2 exactseq", "Mc2(F2) exactseq", "graded Z3/F3 exactseq",
        "graded Z3/F3 validate", "graded Z3/F3 cointegral"])
def test_cli_builds_the_square_and_cube_once(tmp_path, capsys, builds, build, command):
    """A loaded coring's square, and its cube (one chain over the cached
    square), are the only quotients a command builds: with rho = id the
    bicomodule oracle reads C's square and cube on every automorphism."""
    doc = str(tmp_path / "c.json")
    assert cli.main(["build", *build, "-o", doc]) == 0
    builds.clear()
    assert cli.main([command[0], doc, *command[1:]]) == 0
    assert builds == {"two": 2, "chain": 1}
    capsys.readouterr()


def test_cli_validate_makes_no_cube_wide_matrix(tmp_path, capsys, monkeypatch):
    """validate on graded Z3/F3 (d = 9) reaches the cube through its head,
    the square, so no matrix it makes has d^3 = 729 rows or columns."""
    doc = str(tmp_path / "c.json")
    assert cli.main(["build", "graded-coring", "--group", "3", "--field", "F3", "-o", doc]) == 0
    shapes = []
    made = Matrix._from_ints

    def recorded(field, N, *args):
        shapes.append(N.shape)
        return made(field, N, *args)

    monkeypatch.setattr(Matrix, "_from_ints", staticmethod(recorded))
    assert cli.main(["validate", doc]) == 0
    assert shapes and max(max(shape) for shape in shapes) < 9 ** 3
    capsys.readouterr()


@pytest.fixture
def descents(monkeypatch):
    """Counts TensorQuotient.descend calls by (ambient dimension, rows of
    the map)."""
    counts = Counter()
    descend = TensorQuotient.descend

    def counted(self, ambient_map):
        counts[self.ambient_dim, ambient_map.nrows] += 1
        return descend(self, ambient_map)

    monkeypatch.setattr(TensorQuotient, "descend", counted)
    return counts


@pytest.mark.parametrize("command", ["cointegral", "validate"])
def test_cli_induces_the_coassociativity_maps_once(tmp_path, capsys, descents, command):
    """Graded Z3/F3: find_cointegral and both re-validations of its
    cointegral, or check_coring, read the coring's one pair of square ->
    cube maps Delta (x) C and C (x) Delta, each descended once on the
    square."""
    doc = str(tmp_path / "c.json")
    assert cli.main(["build", "graded-coring", "--group", "3", "--field", "F3", "-o", doc]) == 0
    C = doc_io.coring_from_payload(F3, doc_io.load(doc)["payload"])
    descents.clear()
    assert cli.main([command, doc]) == 0
    assert descents[C.dim ** 2, C.cube.dim] == 2
    capsys.readouterr()


def _moved(C):
    """The automorphisms of C whose rho is not the identity."""
    eye = Matrix.eye(C.field, C.base.dim)
    return [f for f in enumerate_automorphisms(C, fix_rho_identity=False).elements
            if f.rho.matrix != eye]


def test_full_rho_exactseq_shares_each_twists_quotients(tmp_path, capsys, builds):
    """Graded Z2/F3 with --full-rho: beyond C's square and cube, each of
    the two twists with rho != id builds its five pairs and three chains
    once, for the twist and its check, not again for its comodules.  One
    more pair is the square of the coalgebra A*, whose automorphism scan
    finds the base automorphisms."""
    doc = str(tmp_path / "c.json")
    assert cli.main(["build", "graded-coring", "--group", "2", "--field", "F3", "-o", doc]) == 0
    builds.clear()
    assert cli.main(["exactseq", doc, "--enumerate", "--full-rho"]) == 0
    assert builds == {"two": 13, "chain": 7}
    capsys.readouterr()


def test_twist_and_cotensor_read_the_quotients_already_built(builds):
    """With rho != id, the twisted bicomodule's comodules hold the very
    M (x) C and D (x) M that twisted_bicomodule built, and its check adds
    three chains on them; a cotensor with C afterwards builds only the two
    products of its kernel with C."""
    C = _graded(2, F3)
    C.square, C.cube
    f = _moved(C)[0]
    builds.clear()
    tw = twisted_bicomodule(f)
    assert builds == {"two": 5, "chain": 3}
    assert tw.as_right.mc is tensor_over(tw.module, C.bimodule)
    assert tw.as_left.cm is tensor_over(C.bimodule, tw.module)
    assert builds == {"two": 5, "chain": 3}
    builds.clear()
    cotensor(tw, regular_bicomodule(C))
    assert builds == {"two": 2}


def test_products_make_no_reference_cycle():
    """Reference counting alone frees every twisted module once its twist,
    oracle and cotensor are dropped, and with it every product it keys, so
    the carrier keeps only its square; and it frees the coring, its carrier
    and its cube once they are dropped."""
    gc.disable()
    try:
        C = _graded(2, F3)
        C.square, C.cube.module
        assert check_coring(C).ok
        auts = enumerate_automorphisms(C)
        assert inner_via_bicomodule(auts.elements[1]).status == "isomorphic"
        moved = _moved(C)
        twists = [twisted_bicomodule(f) for f in moved]
        assert {inner_via_bicomodule(f).status for f in moved} == {"isomorphic"}
        cotensors = [cotensor(tw, regular_bicomodule(C)) for tw in twists]
        modules = [weakref.ref(tw.module) for tw in twists]
        assert len(modules) == 2 and len(C.bimodule.products) > 1
        del twists, cotensors
        assert [r() for r in modules] == [None, None]
        assert list(C.bimodule.products.keys()) == [C.bimodule]
        refs = [weakref.ref(x) for x in (C, C.bimodule, C.cube)]
        del C, auts, moved
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def test_twist_with_rho_not_identity_gets_its_own_module():
    """Graded Z2/F3 has two automorphisms whose rho is g -> -g; their twist
    is carried by a new module, and both oracles still agree on them.  A
    twist over a field base, such as the group-like swap, always has
    rho = id."""
    C = _graded(2, F3)
    eye = Matrix.eye(F3, C.base.dim)
    auts = enumerate_automorphisms(C, fix_rho_identity=False).elements
    moved = [f for f in auts if f.rho.matrix != eye]
    assert len(moved) == 2
    for f in auts:
        tw = twisted_bicomodule(f)
        assert (tw.module is C.bimodule) == (f not in moved)
        lin = is_inner(f).is_inner
        assert lin is not None and lin == (inner_via_bicomodule(f).status == "isomorphic")
    for f in moved:
        tw = twisted_bicomodule(f)
        assert tw.module.left_action != C.bimodule.left_action


# -- balancing over algebra generators -----------------------------------------

def _every_basis(M, N):
    """The free columns and project of M (x)_A N from the dense relation
    blocks of every basis vector of A, in one elimination, and their stack:
    the referee of balancing over generators, and of the sparse rows."""
    return _dense_route(M.field, [(M.right_action[a], N.left_action[a])
                                  for a in range(M.right_algebra.dim)], M.dim * N.dim)


def _last_pair(build):
    factors, _ = build()
    return tensor_chain(factors[:-1]).module, factors[-1]


def _power_pair(C, power):
    return (C.bimodule if power == "square" else C.square.module), C.bimodule


def _regular_pair(A):
    bim = regular_bimodule(A)
    return bim, bim


# every case returns the two factors (M, N) of one balanced product
PAIRS = {
    **{f"{name} last step": (lambda build=build: _last_pair(build))
       for name, build in CHAINS.items()},
    **{f"graded Z{n}/F{p} square": (lambda n=n, p=p: _power_pair(_graded(n, GF(p)), "square"))
       for n in range(2, 6) for p in (2, 3, 5)},
    **{f"graded Z{n}/F{p} cube": (lambda n=n, p=p: _power_pair(_graded(n, GF(p)), "cube"))
       for n in range(2, 5) for p in (2, 3, 5)},
    **{f"graded Z{n}/Q {power}": (lambda n=n, power=power: _power_pair(_graded(n, QQ), power))
       for n in range(2, 5) for power in ("square", "cube")},
    "Q[Z3] regular": lambda: _regular_pair(_kz(3, QQ)),
    "Q[Z4] regular": lambda: _regular_pair(_kz(4, QQ)),
    **{f"F{p}[Z3] regular": (lambda p=p: _regular_pair(_kz(3, GF(p)))) for p in (2, 3, 5)},
    "M2(F2) regular": lambda: _regular_pair(matrix_algebra(F2, 2)),
    "M2(F3) regular": lambda: _regular_pair(matrix_algebra(F3, 2)),
}


def _assert_generators_suffice(M, N):
    free, project, every = _every_basis(M, N)
    got = TensorQuotient([M, N])
    assert got.free.tolist() == free
    assert _same(got.project, project)
    A = M.right_algebra
    if A.dim > 2 and M.right_is_representation and N.left_is_representation:
        assert got.relations.nrows < every.nrows
    else:
        assert got.relations.nrows == every.support().any(axis=1).sum()


@pytest.mark.parametrize("name", PAIRS.keys())
def test_generator_relations_match_every_basis_relation(name):
    """The blocks of the generators of A span the balancing subspace: the
    free columns are those of every basis vector's block, and project is
    byte for byte the same."""
    _assert_generators_suffice(*PAIRS[name]())


def _with_actions(M, side, actions):
    """M with its actions on one side replaced; a quotient reads only its
    left factor's right actions and its right factor's left actions."""
    left, right = (actions, M.right_action) if side == "left_action" else \
        (M.left_action, actions)
    return Bimodule(M.left_algebra, M.right_algebra, M.dim, left, right)


# the small cases of PAIRS, each drawn by the hypothesis test below
SMALL = ["graded Z2/F3 square", "graded Z3/F2 square", "graded Z3/F3 square",
         "graded Z4/F2 square", "Q[Z3] regular", "Q[Z4] regular", "F2[Z3] regular",
         "F5[Z3] regular", "M2(F2) regular", "M2(F3) regular",
         "F3[Z2] regular last step", "Mc2(F3[Z2]) cube last step"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generator_relations_match_after_a_change_of_basis(data):
    """Random bases of both factors, and one action entry perhaps
    overwritten (so that the check fails and every basis vector is kept):
    the two sets of relations give the same quotient."""
    M, N = PAIRS[data.draw(st.sampled_from(SMALL), label="case")]()
    f = M.field
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    factors = []
    for X, side in ((M, "right_action"), (N, "left_action")):
        P = _random(f, X.dim, X.dim, rng)
        if not P.is_invertible():
            P = Matrix.eye(f, X.dim)
        Pinv = P.inverse()
        actions = [Pinv @ Y @ P for Y in getattr(X, side)]
        if data.draw(st.booleans(), label=f"tamper {side}"):
            a = data.draw(st.integers(0, len(actions) - 1), label="which")
            bumped = actions[a].a.copy()
            bumped[0, -1] = bumped[0, -1] + f.scalar(1)
            actions[a] = Matrix(f, bumped)
        factors.append(_with_actions(X, side, actions))
    _assert_generators_suffice(*factors)


def test_non_associative_right_action_keeps_every_basis_relation():
    """F3[Z3] with g^2 acting on the right as g does: the generator g's
    block alone would give a larger quotient, so the check fails and the
    quotient is the one of every basis vector's block."""
    A = _kz(3, F3)
    reg = regular_bimodule(A)
    right = list(reg.right_action)
    right[2] = right[1]
    M = Bimodule(A, A, A.dim, reg.left_action, right)
    assert not M.right_is_representation and reg.left_is_representation
    free, project, every = _every_basis(M, reg)
    got = TensorQuotient([M, reg])
    assert got.free.tolist() == free and _same(got.project, project)
    assert _same(_densify(got.relations), every.rearranged(lambda x: x[(x != 0).any(axis=1)]))
    only_g = kron_eye_difference(M.right_action[1].T, reg.left_action[1].T)
    assert only_g.rank() < every.rank()


@pytest.fixture
def generator_work(monkeypatch):
    """Counts Algebra.generators() calls and generator-word checks."""
    from corings import algebra
    counts = Counter()
    generators, represents = algebra.Algebra.generators, algebra.represents

    def counted_generators(self):
        counts["generators"] += 1
        return generators(self)

    def counted_represents(*args, **kwargs):
        counts["represents"] += 1
        return represents(*args, **kwargs)

    monkeypatch.setattr(algebra.Algebra, "generators", counted_generators)
    monkeypatch.setattr(algebra, "represents", counted_represents)
    return counts


NO_GAIN = {"kZ3/F2": lambda: grouplike_coalgebra(3, F2),
           "Mc2(F2[t]/t^2)": CORINGS["Mc2(F2[t]/t^2)"],
           "entwined psi seed 0": CORINGS["entwined psi seed 0"],
           **{f"graded Z2/{f}": (lambda f=f: _graded(2, f)) for f in (F2, F3, QQ)}}


@pytest.mark.parametrize("name", NO_GAIN.keys())
def test_no_generator_work_where_it_cannot_gain(generator_work, name):
    """Over k, F2[t]/t^2 and k[Z2] a generating set could drop only the
    unit's block, so building the square and the cube computes no
    generators and runs no representation check."""
    C = NO_GAIN[name]()
    assert C.base.dim <= 2
    C.square, C.cube
    assert not generator_work


def test_generator_checks_run_once_per_side(generator_work):
    """Graded Z3/F3's square and cube read the generators of F3[Z3] and run
    one check per side that a product reads: the carrier's two sides and
    the square's right side, however often the cube is asked for."""
    C = _graded(3, F3)
    C.square, C.cube, tensor_chain([C.bimodule] * 3), C.cube
    assert generator_work["represents"] == 3 and generator_work["generators"] > 0


def test_cube_last_step_holds_few_relation_blocks():
    """Graded Z4/F2's cube: the last step's ambient is 64 * 16 = 1024, so a
    dense relation block over int64 is 8 MB; its build, on the nonzeros
    alone, stays below one (it held 85 MB with one block per basis vector
    of F2[Z4], and below 48 MB with the generators' dense blocks)."""
    C = _graded(4, F2)
    M = C.square.module
    block = 1024 * 1024 * 8
    tracemalloc.start()
    try:
        TensorQuotient([M, C.bimodule])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_graded_z5_f5_validate_peaks_below_200_mb(tmp_path, capsys):
    """validate on graded Z5/F5 (d = 25, the cube's last step on 125 * 25
    columns) peaks at 200 MB or less, as the child process running it
    reports its own peak (VmHWM, in kB); it peaked at 374 MB with the
    generators' dense relation blocks.  Not ru_maxrss: a child spawned
    from a large process, such as the test runner, reports that process's
    resident size there."""
    doc = str(tmp_path / "c.json")
    assert cli.main(["build", "graded-coring", "--group", "5", "--field", "F5", "-o", doc]) == 0
    capsys.readouterr()
    code = ("import sys\n"
            "from corings import cli\n"
            "code = cli.main(['validate', sys.argv[1]])\n"
            "peak = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')][0]\n"
            "print('PEAK', peak.split()[1], code)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code, doc], env=env, capture_output=True,
                         text=True, timeout=300, check=True).stdout
    peak_kb, status = map(int, out.strip().splitlines()[-1].split()[1:])
    assert status == 0
    assert peak_kb <= 200 * 1024
