"""Constructors for the concrete coring families: trivial corings, matrix
corings, group-like coalgebras, corings from entwining structures, and the
entwining/Doi-Koppinen/G-set-graded tower.

Coalgebras are represented as corings over the one-dimensional base algebra
k, so every coalgebra-level computation reuses the coring machinery
literally.  ``coring_from_entwining`` deliberately accepts invalid mixing
maps and returns the axiom report instead of raising: the equivalence
"entwining axioms hold iff the induced structure is a coring" is itself a
testable property of the construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .algebra import (Algebra, Bimodule, check_group_table, group_algebra,
                      group_identity, regular_bimodule, scalar_algebra)
from .comodule import Comodule, check_comodule
from .coring import Coring, check_coring
from .fields import FieldSpec, Matrix
from .report import InvalidStructureError, Report, ReportBuilder
from .tensor import tensor_over


# -- plain families ----------------------------------------------------------

def trivial_coring(A: Algebra, name: Optional[str] = None) -> Coring:
    """A itself as an A-coring; Delta inverts the unit isomorphism."""
    bim = regular_bimodule(A)
    sq = tensor_over(bim, bim)
    unitcol = Matrix.column(A.field, A.unit)
    delta = sq.project @ Matrix.eye(A.field, A.dim).kron(unitcol)
    eps = Matrix.eye(A.field, A.dim)
    return Coring(A, bim, delta, eps, square=sq, name=name or "trivial")


def matrix_coring(A: Algebra, n: int, name: Optional[str] = None) -> Coring:
    """The (n, n)-matrix coring over A: free bimodule on symbols e_ij with
    Delta(e_ij) = sum_k e_ik (x) e_kj and eps(e_ij) = delta_ij."""
    if n < 1:
        raise ValueError("matrix coring needs n >= 1")
    f = A.field
    d = n * n * A.dim
    In2 = Matrix.eye(f, n * n)
    lact = [In2.kron(A.basis_left_mult(i)) for i in range(A.dim)]
    ract = [In2.kron(A.basis_right_mult(i)) for i in range(A.dim)]
    bim = Bimodule(A, A, d, lact, ract)
    sq = tensor_over(bim, bim)
    amb = f.zeros((d * d, d))
    unit = A.unit
    one = f.scalar(1)
    zero = f.scalar(0)
    for i in range(n):
        for j in range(n):
            for t in range(A.dim):
                col = (i * n + j) * A.dim + t
                for k in range(n):
                    left = (i * n + k) * A.dim + t
                    for s in range(A.dim):
                        if unit[s] == zero:
                            continue
                        right = (k * n + j) * A.dim + s
                        amb[left * d + right, col] = amb[left * d + right, col] + unit[s]
    delta = sq.project @ Matrix(f, amb)
    eps = f.zeros((A.dim, d))
    for i in range(n):
        for t in range(A.dim):
            eps[t, (i * n + i) * A.dim + t] = one
    return Coring(A, bim, delta, Matrix(f, eps), square=sq, name=name or f"matrix-coring({n})")


def grouplike_coalgebra(size_or_labels, field: FieldSpec, name: Optional[str] = None) -> Coring:
    """Coalgebra over k with basis S, Delta(s) = s (x) s, eps(s) = 1."""
    if isinstance(size_or_labels, int):
        labels = [str(i) for i in range(size_or_labels)]
    else:
        labels = [str(s) for s in size_or_labels]
    d = len(labels)
    if d == 0:
        raise ValueError("need a nonempty basis")
    k = scalar_algebra(field)
    I = Matrix.eye(field, d)
    bim = Bimodule(k, k, d, [I], [I])
    sq = tensor_over(bim, bim)
    one = field.scalar(1)
    amb = field.zeros((d * d, d))
    for s in range(d):
        amb[s * d + s, s] = one
    delta = sq.project @ Matrix(field, amb)
    eps = field.zeros((1, d))
    for s in range(d):
        eps[0, s] = one
    return Coring(k, bim, delta, Matrix(field, eps), square=sq,
                  name=name or f"grouplike({','.join(labels)})")


# -- entwining structures ----------------------------------------------------

@dataclass
class EntwiningStructure:
    """(A, C, psi) with psi: C (x) A -> A (x) C.

    ``coalgebra`` is a coring over the one-dimensional base; psi columns are
    indexed by (c_j, a_i) -> j * dim(A) + i and rows by (a, c) -> a * dim(C) + c.
    """

    algebra: Algebra
    coalgebra: Coring
    psi: Matrix

    def __post_init__(self):
        dA, dC = self.algebra.dim, self.coalgebra.dim
        if self.coalgebra.base.dim != 1:
            raise ValueError("the entwined coalgebra must live over the base field")
        if self.psi.shape != (dA * dC, dC * dA):
            raise ValueError(f"psi must be ({dA*dC}, {dC*dA}), got {self.psi.shape}")

    def psi_partial(self, b: int) -> Matrix:
        """psi(- (x) a_b): C -> A (x) C."""
        dA, dC = self.algebra.dim, self.coalgebra.dim
        cols = [self.psi.col(j * dA + b) for j in range(dC)]
        return Matrix(self.algebra.field, np.stack(cols, axis=1))


def flip_entwining(A: Algebra, C: Coring) -> EntwiningStructure:
    """The twist-free entwining psi(c (x) a) = a (x) c."""
    f = A.field
    dA, dC = A.dim, C.dim
    psi = f.zeros((dA * dC, dC * dA))
    one = f.scalar(1)
    for j in range(dC):
        for i in range(dA):
            psi[i * dC + j, j * dA + i] = one
    return EntwiningStructure(A, C, Matrix(f, psi))


def check_entwining(E: EntwiningStructure) -> Report:
    """The four entwining axioms, each with a witness on failure."""
    rb = ReportBuilder("entwining structure")
    A, C = E.algebra, E.coalgebra
    f = A.field
    dA, dC = A.dim, C.dim
    IA, IC = Matrix.eye(f, dA), Matrix.eye(f, dC)
    mmat = Matrix(f, A.mult.reshape(dA * dA, dA).T)
    psi = E.psi

    lhs = psi @ IC.kron(mmat)
    rhs = mmat.kron(IC) @ IA.kron(psi) @ psi.kron(IA)
    rb.add("ES1-multiplication", lhs == rhs, _first_bad_col(lhs, rhs))

    dC_full = C.delta_ambient
    lhs = IA.kron(dC_full) @ psi
    rhs = psi.kron(IC) @ IC.kron(psi) @ dC_full.kron(IA)
    rb.add("ES2-comultiplication", lhs == rhs, _first_bad_col(lhs, rhs))

    unitcol = Matrix.column(f, A.unit)
    lhs = psi @ IC.kron(unitcol)
    rhs = unitcol.kron(IC)
    rb.add("ES3-unit", lhs == rhs, _first_bad_col(lhs, rhs))

    lhs = IA.kron(C.epsilon) @ psi
    rhs = C.epsilon.kron(IA)
    rb.add("ES4-counit", lhs == rhs, _first_bad_col(lhs, rhs))
    return rb.build()


def _first_bad_col(lhs: Matrix, rhs: Matrix) -> Optional[str]:
    if lhs == rhs:
        return None
    diff = (lhs - rhs).a
    zero = lhs.field.scalar(0)
    bad = np.nonzero((diff != zero).any(axis=0))[0]
    return f"input column {int(bad[0])}" if bad.size else None


def coring_from_entwining(E: EntwiningStructure,
                          name: Optional[str] = None) -> tuple[Coring, Report]:
    """The induced structure on A (x) C, plus its full coring axiom report.

    Invalid psi is accepted on purpose; the report then fails in the axiom
    matching the broken entwining axiom.
    """
    A, C = E.algebra, E.coalgebra
    f = A.field
    dA, dC = A.dim, C.dim
    d = dA * dC
    IA, IC = Matrix.eye(f, dA), Matrix.eye(f, dC)
    mmat = Matrix(f, A.mult.reshape(dA * dA, dA).T)
    lact = [A.basis_left_mult(b).kron(IC) for b in range(dA)]
    ract = [mmat.kron(IC) @ IA.kron(E.psi_partial(b)) for b in range(dA)]
    bim = Bimodule(A, A, d, lact, ract)
    sq = tensor_over(bim, bim)
    delta = sq.project @ entwined_delta_ambient(E)
    eps = IA.kron(C.epsilon)
    out = Coring(A, bim, delta, eps, square=sq,
                 name=name or "entwined(A(x)C)")
    return out, check_coring(out)


def entwined_delta_ambient(E: EntwiningStructure) -> Matrix:
    """a (x) c -> sum (a (x) c_1) (x) (1 (x) c_2), the comultiplication of
    A (x) C into the ambient (A (x) C) (x)_k (A (x) C)."""
    A, C = E.algebra, E.coalgebra
    f = A.field
    IA, IC = Matrix.eye(f, A.dim), Matrix.eye(f, C.dim)
    step1 = IA.kron(C.delta_ambient)                       # A(x)C -> A(x)C(x)C
    step2 = Matrix.eye(f, A.dim * C.dim).kron(Matrix.column(f, A.unit).kron(IC))
    return step2 @ step1                                   # -> A(x)C(x)A(x)C


def entwined_to_comodule(E: EntwiningStructure, module: Bimodule,
                         rho_plain: Matrix) -> tuple[Comodule, Report, Report]:
    """Lift a candidate C-coaction on a right A-module to a comodule over
    the entwined coring.

    Returns the comodule, its axiom report, and the direct entwined-module
    compatibility report; the two verdicts agree (both are returned so the
    equivalence itself stays observable).
    """
    coring, rep = coring_from_entwining(E)
    if not rep.ok:
        raise InvalidStructureError("entwining data does not induce a coring", rep)
    A, C = E.algebra, E.coalgebra
    f = A.field
    dM, dC, dA = module.dim, C.dim, A.dim
    if rho_plain.shape != (dM * dC, dM):
        raise ValueError("plain coaction must map M -> M (x) C")
    unitcol = Matrix.column(f, A.unit)
    amb = Matrix.eye(f, dM).kron(unitcol.kron(Matrix.eye(f, dC))) @ rho_plain
    t_mc = tensor_over(module, coring.bimodule)
    como = Comodule(coring, module, t_mc.project @ amb, mc=t_mc)
    comodule_report = check_comodule(como)

    # M (x) (A (x) C) and (M (x) A) (x) C share the same flat index, so the
    # action contraction composes directly after I_M (x) psi(- (x) a)
    act = module.right_contraction(Matrix.eye(f, dA)).kron(Matrix.eye(f, dC))
    rb = ReportBuilder("entwined-module compatibility")
    rb.add_all("entwined-compatibility", (
        (f"a-basis {b}", rho_plain @ module.right_action[b]
         == act @ Matrix.eye(f, dM).kron(E.psi_partial(b)) @ rho_plain)
        for b in range(dA)))
    compat_report = rb.build()
    return como, comodule_report, compat_report


# -- bialgebras and Doi-Koppinen structures ---------------------------------

@dataclass
class Bialgebra:
    """An algebra that is also a coalgebra over k, with Delta and eps
    multiplicative and unital."""

    algebra: Algebra
    delta: Matrix   # d^2 x d, ambient C (x) C coordinates
    epsilon: Matrix  # 1 x d

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    def validate(self) -> Report:
        rb = ReportBuilder("bialgebra")
        from .algebra import check_algebra
        rb.merge(check_algebra(self.algebra), prefix="algebra-")
        f, d = self.field, self.dim
        I = Matrix.eye(f, d)
        rb.add("coassociativity", self.delta.kron(I) @ self.delta == I.kron(self.delta) @ self.delta)
        rb.add("counit", self.epsilon.kron(I) @ self.delta == I
               and I.kron(self.epsilon) @ self.delta == I)
        A, D, eps = self.algebra, self.delta, self.epsilon
        rb.add_all("delta-multiplicative", (
            (f"pair ({i},{j})", np.all(D @ A.mult[i, j, :]
                                       == _tensor_algebra_product(A, A, D.col(i), D.col(j))))
            for i, j in product(range(d), repeat=2)))
        rb.add("delta-unital", np.all(D @ A.unit == np.kron(A.unit, A.unit)))
        rb.add("epsilon-multiplicative", all(
            np.all(f.normalize(eps @ A.mult[i, j, :]) == f.normalize(eps.col(i) * eps.col(j)))
            for i, j in product(range(d), repeat=2)))
        rb.add("epsilon-unital", np.all(self.epsilon @ self.algebra.unit
                                        == np.asarray([f.scalar(1)], dtype=f.dtype)))
        return rb.build()


def grouplike_bialgebra(table: Sequence[Sequence[int]], field: FieldSpec) -> Bialgebra:
    """kG with Delta(g) = g (x) g; a Hopf algebra, with the antipode unused."""
    alg, _ = group_algebra(table, field)
    n = alg.dim
    delta = field.zeros((n * n, n))
    eps = field.zeros((1, n))
    one = field.scalar(1)
    for g in range(n):
        delta[g * n + g, g] = one
        eps[0, g] = one
    return Bialgebra(alg, Matrix(field, delta), Matrix(field, eps))


@dataclass
class DKStructure:
    """(H, A, C): a bialgebra, a right H-comodule algebra, and a right
    H-module coalgebra."""

    bialgebra: Bialgebra
    algebra: Algebra
    coaction: Matrix       # A -> A (x) H, (dA*dH) x dA
    coalgebra: Coring      # over k
    action: Matrix         # C (x) H -> C, dC x (dC*dH)

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    def validate(self) -> Report:
        rb = ReportBuilder("Doi-Koppinen structure")
        H, A, C = self.bialgebra, self.algebra, self.coalgebra
        f = self.field
        dA, dH, dC = A.dim, H.dim, C.dim
        rb.merge(H.validate(), prefix="H-")
        rb.merge(check_coring(C), prefix="C-")
        IA, IH, IC = Matrix.eye(f, dA), Matrix.eye(f, dH), Matrix.eye(f, dC)
        rho = self.coaction
        rb.add("coaction-coassociative",
               IA.kron(H.delta) @ rho == rho.kron(IH) @ rho)
        rb.add("coaction-counital", IA.kron(H.epsilon) @ rho == IA)
        rb.add_all("coaction-multiplicative", (
            (f"pair ({i},{j})", np.all(rho @ A.mult[i, j, :] == _tensor_algebra_product(
                A, H.algebra, rho.col(i), rho.col(j))))
            for i, j in product(range(dA), repeat=2)))
        rb.add("coaction-unital",
               np.all(rho @ A.unit == np.kron(A.unit, H.algebra.unit)))
        act = self.action
        mmatH = Matrix(f, H.algebra.mult.reshape(dH * dH, dH).T)
        rb.add("action-associative",
               act @ act.kron(IH) == act @ IC.kron(mmatH))
        unitH = Matrix.column(f, H.algebra.unit)
        rb.add("action-unital", act @ IC.kron(unitH) == IC)
        # Delta_C(c.h) = sum c1 h1 (x) c2 h2
        dC_full = C.delta_ambient
        swap = _factor_swap(f, dC, dH)  # C(x)H(x)C(x)H <- C(x)C(x)H(x)H
        lhs = dC_full @ act
        rhs = act.kron(act) @ swap @ dC_full.kron(H.delta)
        rb.add("action-comultiplicative", lhs == rhs)
        rb.add("action-counital-compatible",
               C.epsilon @ act == C.epsilon.kron(H.epsilon))
        return rb.build()


def _tensor_algebra_product(A: Algebra, B: Algebra, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(a (x) h)(a' (x) h') = aa' (x) hh' extended bilinearly on A (x) B."""
    f = A.field
    dA, dB = A.dim, B.dim
    out = f.zeros((dA * dB,))
    zero = f.scalar(0)
    for ih in range(dA * dB):
        if u[ih] == zero:
            continue
        i, h = divmod(ih, dB)
        for jl in range(dA * dB):
            if v[jl] == zero:
                continue
            j, l = divmod(jl, dB)
            out = out + u[ih] * v[jl] * np.kron(A.mult[i, j, :], B.mult[h, l, :])
    return f.normalize(out)


def _factor_swap(f: FieldSpec, d1: int, d2: int) -> Matrix:
    """Permutation matrix C1 C1' C2 C2' -> C1 C2 C1' C2' for (d1,d1,d2,d2)."""
    n = d1 * d1 * d2 * d2
    out = f.zeros((n, n))
    one = f.scalar(1)
    for c1 in range(d1):
        for c2 in range(d1):
            for h1 in range(d2):
                for h2 in range(d2):
                    src = ((c1 * d1 + c2) * d2 + h1) * d2 + h2
                    dst = ((c1 * d2 + h1) * d1 + c2) * d2 + h2
                    out[dst, src] = one
    return Matrix(f, out)


def entwining_from_dk(D: DKStructure) -> EntwiningStructure:
    """psi(c (x) a) = a_0 (x) c.a_1, the canonical entwining of a DK triple."""
    rep = D.validate()
    if not rep.ok:
        raise InvalidStructureError("invalid Doi-Koppinen data", rep)
    A, H, C = D.algebra, D.bialgebra, D.coalgebra
    f = D.field
    dA, dH, dC = A.dim, H.dim, C.dim
    psi = f.zeros((dA * dC, dC * dA))
    zero = f.scalar(0)
    for j in range(dC):
        for i in range(dA):
            coact = D.coaction.col(i)  # in A (x) H
            col = f.zeros((dA * dC,))
            for kl in range(dA * dH):
                if coact[kl] == zero:
                    continue
                k, l = divmod(kl, dH)
                moved = D.action.a[:, j * dH + l]  # c_j . h_l
                contrib = f.zeros((dA * dC,))
                contrib[k * dC : (k + 1) * dC] = moved
                col = col + coact[kl] * contrib
            psi[:, j * dA + i] = f.normalize(col)
    return EntwiningStructure(A, C, Matrix(f, psi))


# -- G-set graded data -------------------------------------------------------

@dataclass
class GradedData:
    """A group G, a right G-set X, and a G-graded algebra with homogeneous
    basis recorded by ``degrees`` (a group element index per basis vector)."""

    group: list[list[int]]
    gset: list[list[int]]          # gset[x][g] = x.g
    algebra: Algebra
    degrees: list[int]

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    @property
    def group_order(self) -> int:
        return len(self.group)

    @property
    def set_size(self) -> int:
        return len(self.gset)

    def validate(self) -> Report:
        rb = ReportBuilder("graded data")
        rb.merge(check_group_table(self.group), prefix="group-")
        n, nx = self.group_order, self.set_size
        shape_ok = all(len(r) == n for r in self.gset) and \
            all(0 <= v < nx for r in self.gset for v in r)
        rb.add("gset-shape", shape_ok)
        if shape_ok and rb.build().ok:
            e = group_identity(self.group)
            rb.add("gset-identity", all(self.gset[x][e] == x for x in range(nx)))
            X, G = self.gset, self.group
            rb.add_all("gset-associativity", (
                (f"(x,g,h)=({x},{g},{h})", X[X[x][g]][h] == X[x][G[g][h]])
                for x, g, h in product(range(nx), range(n), range(n))))
        A = self.algebra
        rb.add("degrees-shape", len(self.degrees) == A.dim
               and all(0 <= d < n for d in self.degrees))
        zero = self.field.scalar(0)
        deg = self.degrees
        rb.add_all("grading-multiplicative", (
            (f"product ({i},{j}) hits degree of basis {k}",
             A.mult[i, j, k] == zero or deg[k] == self.group[deg[i]][deg[j]])
            for i, j, k in product(range(A.dim), repeat=3)))
        e = group_identity(self.group) if check_group_table(self.group).ok else 0
        ok = all(A.unit[i] == zero or self.degrees[i] == e for i in range(A.dim))
        rb.add("unit-homogeneous", ok)
        return rb.build()

    def component_projector(self, g: int) -> Matrix:
        """Projection of A onto its degree-g homogeneous component."""
        f = self.field
        P = f.zeros((self.algebra.dim, self.algebra.dim))
        one = f.scalar(1)
        for i, d in enumerate(self.degrees):
            if d == g:
                P[i, i] = one
        return Matrix(f, P)


def dk_from_graded(Gd: GradedData) -> DKStructure:
    """(kG, A, kX): group bialgebra, graded algebra with its canonical
    coaction a_g -> a_g (x) g, and the G-set coalgebra with action x.g."""
    rep = Gd.validate()
    if not rep.ok:
        raise InvalidStructureError("invalid graded data", rep)
    f = Gd.field
    H = grouplike_bialgebra(Gd.group, f)
    A = Gd.algebra
    nG = Gd.group_order
    coact = f.zeros((A.dim * nG, A.dim))
    one = f.scalar(1)
    for i, d in enumerate(Gd.degrees):
        coact[i * nG + d, i] = one
    C = grouplike_coalgebra([f"x{j}" for j in range(Gd.set_size)], f, name="kX")
    act = f.zeros((Gd.set_size, Gd.set_size * nG))
    for x in range(Gd.set_size):
        for g in range(nG):
            act[Gd.gset[x][g], x * nG + g] = one
    return DKStructure(H, A, Matrix(f, coact), C, Matrix(f, act))


def entwining_from_graded(Gd: GradedData) -> EntwiningStructure:
    """psi(x (x) a_g) = a_g (x) xg."""
    return entwining_from_dk(dk_from_graded(Gd))


def graded_coring(Gd: GradedData, name: Optional[str] = None) -> Coring:
    """The coring A (x) kX encoding X-graded modules over the G-graded A."""
    coring, rep = coring_from_entwining(entwining_from_graded(Gd),
                                        name=name or "graded(A(x)kX)")
    if not rep.ok:
        raise InvalidStructureError("graded data produced an invalid coring", rep)
    return coring


def regular_gset(table: Sequence[Sequence[int]]) -> list[list[int]]:
    """G acting on itself on the right."""
    return [list(row) for row in table]


def cyclic_group(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def trivial_gset(n_points: int, group_order: int) -> list[list[int]]:
    return [[x] * group_order for x in range(n_points)]

