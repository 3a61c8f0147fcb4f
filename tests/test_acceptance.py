"""Acceptance suite: the ten headline properties, one test per criterion,
each at exact (zero-tolerance) arithmetic.

Criterion 1 sweeps all 2^16 mixing maps with an independent Sweedler-style
axiom checker written in plain dictionary arithmetic, so the set equality
is witnessed by three routes: hand-rolled axioms, the library's entwining
checker, and the full coring axiom audit of the induced structure.
"""

import itertools
import json
import time

import numpy as np
import pytest

from corings import (GF, QQ, AlgebraMorphism, Bicomodule, CoringMorphism, EntwiningStructure,
                     Matrix, bicomodule_hom_space, bicomodule_iso_exists, check_algebra,
                     check_bicomodule, check_entwining, coring_from_entwining, cotensor,
                     cotensor_unit_left, convolution_inverse, direct_sum,
                     enumerate_automorphisms, find_cointegral, graded_coring,
                     graded_dual_element, graded_dual_invertible, grouplike_coalgebra,
                     is_inner, matrix_algebra, matrix_coring, regular_bicomodule,
                     right_dual_algebra, scalar_algebra, subspace_contains_unit,
                     tensor_over, trivial_coring, twisted_bicomodule, verify_exact_sequence)
from corings.cli import main
from corings.fields import basis_vector
from corings.picard import INNER, NOT_INNER
from corings.unitsearch import CERTIFIED_NONE, WITNESS

from conftest import dual_numbers, kz2_graded

F2, F3, F5 = GF(2), GF(3), GF(5)


def report_line(num, ok, text):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok


# -- criterion 1: Takeuchi iff, exhaustive -------------------------------------

def independent_entwining_check(psi_cols, a_mult, a_unit, delta_c, eps_c, da, dc, p):
    """ES1-ES4 in plain dictionary arithmetic over F_p (independent oracle).

    psi_cols[(c, a)] = {(a', c'): coeff}; a_mult[(i, j)] = {k: coeff};
    delta_c[c] = {(c1, c2): coeff}; eps_c[c] = coeff.
    """
    def psi_of(c, avec):
        out = {}
        for a, ca in avec.items():
            for (a2, c2), w in psi_cols[(c, a)].items():
                out[(a2, c2)] = (out.get((a2, c2), 0) + ca * w) % p
        return out

    # ES1: psi(c (x) ab) = sum a_psi b_Psi (x) c^{psi Psi}
    for c in range(dc):
        for i in range(da):
            for j in range(da):
                lhs = psi_of(c, dict(a_mult[(i, j)]))
                rhs = {}
                for (a1, c1), w1 in psi_cols[(c, i)].items():
                    for (b1, c2), w2 in psi_cols[(c1, j)].items():
                        for k, wk in a_mult[(a1, b1)].items():
                            key = (k, c2)
                            rhs[key] = (rhs.get(key, 0) + w1 * w2 * wk) % p
                if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
                    return False
    # ES2: (1 (x) Delta) psi(c (x) a) = sum a_{psi Psi} (x) c1^Psi (x) c2^psi
    for c in range(dc):
        for a in range(da):
            lhs = {}
            for (a1, c1), w in psi_cols[(c, a)].items():
                for (x, y), wd in delta_c[c1].items():
                    key = (a1, x, y)
                    lhs[key] = (lhs.get(key, 0) + w * wd) % p
            rhs = {}
            for (c1, c2), wd in delta_c[c].items():
                for (a1, cc2), w1 in psi_cols[(c2, a)].items():
                    for (a2, cc1), w2 in psi_cols[(c1, a1)].items():
                        key = (a2, cc1, cc2)
                        rhs[key] = (rhs.get(key, 0) + wd * w1 * w2) % p
            if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
                return False
    # ES3: psi(c (x) 1) = 1 (x) c
    for c in range(dc):
        got = psi_of(c, dict(enumerate(a_unit)))
        want = {}
        for t, u in enumerate(a_unit):
            if u:
                want[(t, c)] = u % p
        if {k: v for k, v in got.items() if v} != want:
            return False
    # ES4: sum a_psi eps(c^psi) = a eps(c)
    for c in range(dc):
        for a in range(da):
            lhs = {}
            for (a1, c1), w in psi_cols[(c, a)].items():
                if eps_c[c1]:
                    lhs[a1] = (lhs.get(a1, 0) + w * eps_c[c1]) % p
            want = {a: eps_c[c] % p} if eps_c[c] else {}
            if {k: v for k, v in lhs.items() if v} != want:
                return False
    return True


@pytest.mark.acceptance
def test_criterion_01_takeuchi_iff_exhaustive():
    started = time.time()
    A = dual_numbers(F2)
    C = grouplike_coalgebra(2, F2)
    a_mult = {(i, j): {k: int(A.mult[i, j, k]) for k in range(2) if A.mult[i, j, k]}
              for i in range(2) for j in range(2)}
    a_unit = [int(x) for x in A.unit]
    delta_c = {c: {(c, c): 1} for c in range(2)}
    eps_c = {c: 1 for c in range(2)}

    ent_lib, ent_ind, cor_lib = set(), set(), set()
    for bits in range(65536):
        entries = np.array([(bits >> k) & 1 for k in range(16)], dtype=np.int64)
        psi = Matrix(F2, entries.reshape(4, 4))
        E = EntwiningStructure(A, C, psi)
        if check_entwining(E).ok:
            ent_lib.add(bits)
        coring, rep = coring_from_entwining(E)
        if rep.ok:
            cor_lib.add(bits)
        psi_cols = {}
        for cj in range(2):
            for ai in range(2):
                col = psi.col(cj * 2 + ai)
                psi_cols[(cj, ai)] = {(t // 2, t % 2): int(col[t])
                                      for t in range(4) if col[t]}
        if independent_entwining_check(psi_cols, a_mult, a_unit, delta_c, eps_c, 2, 2, 2):
            ent_ind.add(bits)
    elapsed = time.time() - started
    ok = ent_lib == cor_lib == ent_ind and elapsed < 300
    # known members: the flip and the graded entwining both live in the set
    from corings import flip_entwining, entwining_from_graded, GradedData, cyclic_group, regular_gset
    flip_bits = _psi_bits(__import__("corings").flip_entwining(A, C).psi)
    graded = GradedData(cyclic_group(2), regular_gset(cyclic_group(2)), A, [0, 1])
    graded_bits = _psi_bits(entwining_from_graded(graded).psi)
    ok = ok and flip_bits in ent_lib and graded_bits in ent_lib
    report_line(1, ok,
                f"Takeuchi iff over all 65536 maps: {len(ent_lib)} valid by three "
                f"routes, sets equal, {elapsed:.0f}s")


def _psi_bits(psi: Matrix) -> int:
    flat = psi.a.reshape(-1)
    return sum((1 << k) for k in range(16) if flat[k])


# -- criterion 2: exact-sequence oracle agreement ------------------------------

@pytest.mark.acceptance
def test_criterion_02_exact_sequence_oracles():
    started = time.time()
    cases = []
    cases.append(("kZ2/F2", grouplike_coalgebra(2, F2), True))
    cases.append(("kZ3/F2", grouplike_coalgebra(3, F2), True))
    cases.append(("Mc2(F2)", matrix_coring(scalar_algebra(F2), 2), True))
    cases.append(("trivial F2[t]/t^2", trivial_coring(dual_numbers(F2)), False))
    cases.append(("graded A(x)kX / F3", graded_coring(kz2_graded(F3)), False))
    lines = []
    total = agreements = 0
    for name, C, rho_id in cases:
        auts = enumerate_automorphisms(C, fix_rho_identity=rho_id)
        assert auts.complete, name
        rep = verify_exact_sequence(C, auts)  # raises on any disagreement
        assert rep.undecided == 0, name
        total += rep.aut_count
        agreements += rep.oracle_agreements
        lines.append(f"{name}: Aut {rep.aut_count} Inn {rep.inn_count} Out {rep.out_count}")
    elapsed = time.time() - started
    ok = agreements == total and elapsed < 600
    report_line(2, ok, f"oracle agreement {agreements}/{total} on 5 corings "
                       f"({'; '.join(lines)}), {elapsed:.0f}s")


# -- criterion 3: matrix-coring Picard reduction -------------------------------

@pytest.mark.acceptance
def test_criterion_03_matrix_coring_out_trivial(tmp_path, capsys):
    cpath = str(tmp_path / "mc2.json")
    assert main(["build", "matrix", "-n", "2", "--field", "F2", "-o", cpath]) == 0
    code = main(["exactseq", cpath, "--enumerate"])
    out = capsys.readouterr().out
    machine = json.loads([l for l in out.splitlines() if l.startswith("MACHINE ")][-1][8:])
    ok = code == 0 and machine["aut"] == 6 and machine["inn"] == 6 and machine["out"] == 1
    report_line(3, ok, "cmd_exactseq on Mc2(F2): |Aut| = 6 all inner, |Out^r| = 1")


# -- criterion 4: group-like rigidity ------------------------------------------

@pytest.mark.acceptance
def test_criterion_04_grouplike_rigidity():
    checked = 0
    for field in (QQ, F5):
        for n in (2, 3):
            C = grouplike_coalgebra(n, field)
            perms = list(itertools.permutations(range(n)))
            inner_perms = []
            for perm in perms:
                mat = field.zeros((n, n))
                for src, dst in enumerate(perm):
                    mat[dst, src] = field.scalar(1)
                m = CoringMorphism(C, C, Matrix(field, mat),
                                   AlgebraMorphism.identity(C.base))
                res = is_inner(m)
                assert res.status in (INNER, NOT_INNER)
                if res.status == INNER:
                    inner_perms.append(perm)
                checked += 1
            assert inner_perms == [tuple(range(n))], (field, n)
        # enumeration-complete over the finite field
        if field is F5:
            for n in (2, 3):
                C = grouplike_coalgebra(n, F5)
                auts = enumerate_automorphisms(C)
                assert auts.complete
                assert len(auts) == len(list(itertools.permutations(range(n))))
                inn = [m for m in auts.elements if is_inner(m).status == INNER]
                assert len(inn) == 1
    report_line(4, True, f"Inn(kG) = {{id}} for G in {{Z2, Z3}} over Q and F5 "
                         f"({checked} permutations tested)")


# -- criterion 5: graded fast-path equivalence ---------------------------------

@pytest.mark.acceptance
def test_criterion_05_graded_fast_path_81():
    started = time.time()
    Gd = kz2_graded(F3)
    C = graded_coring(Gd)
    fast, generic = set(), set()
    for entries in itertools.product(range(3), repeat=4):
        vals = Matrix(F3, np.array(entries, dtype=np.int64).reshape(2, 2))
        if graded_dual_invertible(vals, Gd) is not None:
            fast.add(entries)
        if convolution_inverse(graded_dual_element(Gd, C, vals)) is not None:
            generic.add(entries)
    elapsed = time.time() - started
    ok = fast == generic and elapsed < 60
    report_line(5, ok, f"all 81 graded dual elements classified identically "
                       f"({len(fast)} invertible), {elapsed:.1f}s")


# -- criterion 6: coseparability of the graded coring --------------------------

@pytest.mark.acceptance
def test_criterion_06_graded_coring_coseparable():
    C = graded_coring(kz2_graded(F3))
    ci = find_cointegral(C)
    ok = ci is not None and ci.validate().ok
    report_line(6, ok, "cointegral found for A (x) kX over F3 and re-validated exactly")


# -- criterion 7: cotensor unit laws on randomized comodules -------------------

def _conjugate_bicomodule(B: Bicomodule, u: Matrix) -> Bicomodule:
    """Transport a bicomodule along an invertible linear map of its carrier."""
    from corings.algebra import Bimodule
    f = B.field
    uinv = u.inverse()
    lact = [u @ a @ uinv for a in B.module.left_action]
    ract = [u @ a @ uinv for a in B.module.right_action]
    module = Bimodule(B.module.left_algebra, B.module.right_algebra, B.dim, lact, ract)
    Cp, C = B.left_coring, B.right_coring
    t_cm = tensor_over(Cp.bimodule, module)
    t_mc = tensor_over(module, C.bimodule)
    lam = t_cm.project @ (Matrix.eye(f, Cp.dim).kron(u)
                          @ (B.as_left.lam_ambient() @ uinv))
    rho = t_mc.project @ (u.kron(Matrix.eye(f, C.dim))
                          @ (B.as_right.rho_ambient() @ uinv))
    return Bicomodule(Cp, C, module, lam, rho)


def _inclusion(f, total, offset, width) -> Matrix:
    out = f.zeros((total, width))
    one = f.scalar(1)
    for i in range(width):
        out[offset + i, i] = one
    return Matrix(f, out)


def _direct_sum_bicomodule(B1: Bicomodule, B2: Bicomodule) -> Bicomodule:
    f = B1.field
    Cp, C = B1.left_coring, B1.right_coring
    module = direct_sum(B1.module, B2.module)
    d1, d2 = B1.dim, B2.dim
    n = d1 + d2
    inc1 = _inclusion(f, n, 0, d1)
    inc2 = _inclusion(f, n, d1, d2)
    t_cm = tensor_over(Cp.bimodule, module)
    lam_amb = Matrix.eye(f, Cp.dim).kron(inc1) @ B1.as_left.lam_ambient() @ inc1.T \
        + Matrix.eye(f, Cp.dim).kron(inc2) @ B2.as_left.lam_ambient() @ inc2.T
    t_mc = tensor_over(module, C.bimodule)
    rho_amb = inc1.kron(Matrix.eye(f, C.dim)) @ B1.as_right.rho_ambient() @ inc1.T \
        + inc2.kron(Matrix.eye(f, C.dim)) @ B2.as_right.rho_ambient() @ inc2.T
    return Bicomodule(Cp, C, module, t_cm.project @ lam_amb, t_mc.project @ rho_amb)


@pytest.mark.acceptance
def test_criterion_07_cotensor_unit_laws_randomized():
    rng = np.random.default_rng(20260808)
    corings = [grouplike_coalgebra(2, F2), grouplike_coalgebra(3, F2),
               matrix_coring(scalar_algebra(F2), 2),
               trivial_coring(dual_numbers(F2)), graded_coring(kz2_graded(F3))]
    count = 0
    for C in corings:
        f = C.field
        p = f.p
        reg = regular_bicomodule(C)
        seeds = [reg, _direct_sum_bicomodule(reg, reg)]
        built = 0
        while built < 10:
            seed = seeds[built % 2]
            u = Matrix(f, rng.integers(0, p, size=(seed.dim, seed.dim)))
            if not u.is_invertible():
                continue
            M = _conjugate_bicomodule(seed, u)
            assert check_bicomodule(M).ok
            ct, iso = cotensor_unit_left(M)
            assert ct.dim == M.dim           # dimension equality, exact
            assert iso.is_invertible()
            # the isomorphism is a bicomodule morphism: solve coordinates
            homs = bicomodule_hom_space(ct.bicomodule, M)
            span = Matrix(f, np.stack([h.a.reshape(-1) for h in homs], axis=1))
            assert span.column_space_contains(iso.a.reshape(-1))
            built += 1
            count += 1
    ok = count == 50
    report_line(7, ok, f"C box_C M = M verified with explicit isomorphisms on "
                       f"{count} randomized comodules across 5 corings")


# -- criterion 8: Omega functoriality ------------------------------------------

@pytest.mark.acceptance
def test_criterion_08_functoriality_all_pairs():
    C = grouplike_coalgebra(3, F2)
    auts = enumerate_automorphisms(C)
    assert len(auts) == 6 and auts.complete
    pairs = 0
    for g in auts.elements:
        for f_ in auts.elements:
            comp = g.compose(f_)
            lhs = twisted_bicomodule(comp)
            rhs = cotensor(twisted_bicomodule(g), twisted_bicomodule(f_)).bicomodule
            res = bicomodule_iso_exists(lhs, rhs)
            assert res.status == "isomorphic", (pairs,)
            pairs += 1
    report_line(8, pairs == 36, f"_gf C = _g C box _f C for all {pairs} pairs over kZ3/F2")


# -- criterion 9: convolution algebra sanity ------------------------------------

@pytest.mark.acceptance
def test_criterion_09_convolution_sanity():
    corings = [grouplike_coalgebra(2, F2), grouplike_coalgebra(3, F2),
               matrix_coring(scalar_algebra(F2), 2),
               trivial_coring(dual_numbers(F2)), graded_coring(kz2_graded(F3)),
               grouplike_coalgebra(3, QQ)]
    for C in corings:
        dual = right_dual_algebra(C)
        rep = check_algebra(dual.algebra)
        assert rep.ok, C.name
        eps_coords = dual.coords(C.epsilon)
        assert eps_coords is not None
        assert np.all(eps_coords == dual.algebra.unit) or \
            np.all(dual._hom @ dual.algebra.unit == C.epsilon.a.reshape(-1))
    # C* of kG is exactly the pointwise function algebra k^G
    for n, field in ((2, F2), (3, QQ)):
        C = grouplike_coalgebra(n, field)
        dual = right_dual_algebra(C)
        for i in range(n):
            delta_i = field.zeros((1, n))
            delta_i[0, i] = field.scalar(1)
            for j in range(n):
                delta_j = field.zeros((1, n))
                delta_j[0, j] = field.scalar(1)
                prod = dual.convolve(Matrix(field, delta_i), Matrix(field, delta_j))
                want = field.zeros((1, n))
                if i == j:
                    want[0, i] = field.scalar(1)
                assert prod == Matrix(field, want)
    report_line(9, True, "every right dual passes the algebra axioms with unit eps; "
                         "C* of kG is pointwise k^G")


# -- criterion 10: unit-search soundness ----------------------------------------

@pytest.mark.acceptance
def test_criterion_10_unit_search_soundness():
    rng = np.random.default_rng(1234)
    checked = none_checked = 0
    for field, p, alg in ((F2, 2, matrix_algebra(F2, 2)), (F3, 3, matrix_algebra(F3, 2))):
        dim = alg.dim
        for trial in range(30):
            m = int(rng.integers(1, 5))
            basis = [field.normalize(rng.integers(0, p, size=dim)) for _ in range(m)]
            res = subspace_contains_unit(basis, alg, budget=100_000, seed=trial)
            assert res.status in (WITNESS, CERTIFIED_NONE)
            # exhaustive brute force over at most p^4 <= 81 points... up to
            # p^m; all spaces here are <= 3^4 = 81 <= 1e5 points
            brute = False
            for coeffs in itertools.product(range(p), repeat=m):
                x = field.zeros((dim,))
                for c, b in zip(coeffs, basis):
                    x = field.normalize(x + c * b)
                if alg.element_inverse(x) is not None:
                    brute = True
                    break
            assert (res.status == WITNESS) == brute
            if res.status == WITNESS:
                # witness verified by exact inversion on both sides
                assert np.all(alg.multiply(res.element, res.inverse) == alg.unit)
                assert np.all(alg.multiply(res.inverse, res.element) == alg.unit)
            else:
                none_checked += 1
            checked += 1
    # one near-budget space: dim-10 span over F_3 (59049 points)
    big = matrix_algebra(F3, 3)
    basis = [basis_vector(F3, 9, i) for i in (1, 2, 3, 5, 6, 7)] \
        + [F3.normalize(rng.integers(0, 3, size=9)) for _ in range(4)]
    res = subspace_contains_unit(basis, big, budget=100_000, seed=0)
    assert res.status in (WITNESS, CERTIFIED_NONE)
    if res.status == WITNESS:
        assert np.all(big.multiply(res.element, res.inverse) == big.unit)
    checked += 1
    report_line(10, True, f"unit search vs brute force on {checked} spans "
                          f"({none_checked} certified-none cross-checked)")
