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

from .algebra import (Algebra, Bimodule, check_algebra, check_group_table, group_algebra,
                      group_identity, pair_witness, regular_bimodule, scalar_algebra)
from .comodule import Comodule, check_comodule
from .coring import Coring, check_coring
from .fields import FieldSpec, Matrix
from .report import InvalidStructureError, Report, ReportBuilder
from .tensor import tensor_over


# -- plain families ----------------------------------------------------------

def trivial_coring(A: Algebra, name: Optional[str] = None) -> Coring:
    """A itself as an A-coring; Delta inverts the unit isomorphism."""
    bim = regular_bimodule(A)
    unitcol = Matrix.column(A.field, A.unit)
    delta = tensor_over(bim, bim).project @ Matrix.eye(A.field, A.dim).kron(unitcol)
    eps = Matrix.eye(A.field, A.dim)
    return Coring(A, bim, delta, eps, name=name or "trivial")


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
    delta = tensor_over(bim, bim).project @ Matrix(f, amb)
    eps = f.zeros((A.dim, d))
    for i in range(n):
        for t in range(A.dim):
            eps[t, (i * n + i) * A.dim + t] = one
    return Coring(A, bim, delta, Matrix(f, eps), name=name or f"matrix-coring({n})")


def coalgebra(field: FieldSpec, delta_ambient: Matrix, epsilon: Matrix, name: str) -> Coring:
    """The k-coalgebra with Delta = ``delta_ambient`` (d^2 x d, into C (x)_k C)
    and eps = ``epsilon`` (1 x d), as a coring over the base k."""
    k = scalar_algebra(field)
    d = delta_ambient.ncols
    I = Matrix.eye(field, d)
    bim = Bimodule(k, k, d, [I], [I])
    return Coring(k, bim, tensor_over(bim, bim).project @ delta_ambient, epsilon, name=name)


def grouplike_coalgebra(size_or_labels, field: FieldSpec, name: Optional[str] = None) -> Coring:
    """Coalgebra over k with basis S, Delta(s) = s (x) s, eps(s) = 1."""
    if isinstance(size_or_labels, int):
        labels = [str(i) for i in range(size_or_labels)]
    else:
        labels = [str(s) for s in size_or_labels]
    d = len(labels)
    if d == 0:
        raise ValueError("need a nonempty basis")
    one = field.scalar(1)
    amb = field.zeros((d * d, d))
    for s in range(d):
        amb[s * d + s, s] = one
    eps = field.zeros((1, d))
    eps[0, :] = one
    return coalgebra(field, Matrix(field, amb), Matrix(field, eps),
                     name or f"grouplike({','.join(labels)})")


def dual_coalgebra(A: Algebra) -> Coring:
    """The coalgebra A* over k in the dual basis: Delta = mu^T and eps = 1^T.

    Transposing the defining equations, M is a unital algebra endomorphism
    of A (M 1 = 1, M mu = mu (M (x) M)) iff M^T is a counital coalgebra
    endomorphism of A* (eps M^T = eps, Delta M^T = (M^T (x) M^T) Delta), for
    any structure constants (Sweedler, *Hopf Algebras*, 1969, ch. 1)."""
    return coalgebra(A.field, A.mu.T, Matrix.column(A.field, A.unit).T, name="dual")


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
        return self.psi.rearranged(lambda x: x[:, b::self.algebra.dim])  # columns (c_j, a_b)


def flip_entwining(A: Algebra, C: Coring) -> EntwiningStructure:
    """The twist-free entwining psi(c (x) a) = a (x) c."""
    flip = _factor_order((C.dim, A.dim), (1, 0))
    return EntwiningStructure(A, C, Matrix.eye(A.field, A.dim * C.dim).rearranged(
        lambda x: x[flip]))


def check_entwining(E: EntwiningStructure) -> Report:
    """The four entwining axioms, each with a witness on failure."""
    rb = ReportBuilder("entwining structure")
    A, C = E.algebra, E.coalgebra
    f = A.field
    dA, dC = A.dim, C.dim
    IA, IC = Matrix.eye(f, dA), Matrix.eye(f, dC)
    psi = E.psi
    rb.add_equal("ES1-multiplication", psi @ IC.kron(A.mu),
                 A.mu.kron(IC) @ IA.kron(psi) @ psi.kron(IA))
    dC_full = C.delta_ambient
    rb.add_equal("ES2-comultiplication", IA.kron(dC_full) @ psi,
                 psi.kron(IC) @ IC.kron(psi) @ dC_full.kron(IA))
    unitcol = Matrix.column(f, A.unit)
    rb.add_equal("ES3-unit", psi @ IC.kron(unitcol), unitcol.kron(IC))
    rb.add_equal("ES4-counit", IA.kron(C.epsilon) @ psi, C.epsilon.kron(IA))
    return rb.build()


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
    lact = [A.basis_left_mult(b).kron(IC) for b in range(dA)]
    ract = [A.mu.kron(IC) @ IA.kron(E.psi_partial(b)) for b in range(dA)]
    bim = Bimodule(A, A, d, lact, ract)
    delta = tensor_over(bim, bim).project @ entwined_delta_ambient(E)
    eps = IA.kron(C.epsilon)
    out = Coring(A, bim, delta, eps, name=name or "entwined(A(x)C)")
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
    como = Comodule(coring, module, tensor_over(module, coring.bimodule).project @ amb)
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
        rb.merge(check_algebra(self.algebra), prefix="algebra-")
        f, d = self.field, self.dim
        I = Matrix.eye(f, d)
        rb.add("coassociativity", self.delta.kron(I) @ self.delta == I.kron(self.delta) @ self.delta)
        rb.add("counit", self.epsilon.kron(I) @ self.delta == I
               and I.kron(self.epsilon) @ self.delta == I)
        A, D, eps = self.algebra, self.delta, self.epsilon
        unit = Matrix.column(f, A.unit)
        rb.add_equal("delta-multiplicative", D @ A.mu, _tensor_products(A, A, D, D),
                     pair_witness(d))
        rb.add("delta-unital", D @ unit == unit.kron(unit))
        rb.add("epsilon-multiplicative", eps @ A.mu == eps.kron(eps))
        rb.add("epsilon-unital", eps @ unit == Matrix.eye(f, 1))
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
        unitA, unitH = Matrix.column(f, A.unit), Matrix.column(f, H.algebra.unit)
        rb.add("coaction-coassociative",
               IA.kron(H.delta) @ rho == rho.kron(IH) @ rho)
        rb.add("coaction-counital", IA.kron(H.epsilon) @ rho == IA)
        rb.add_equal("coaction-multiplicative", rho @ A.mu,
                     _tensor_products(A, H.algebra, rho, rho), pair_witness(dA))
        rb.add("coaction-unital", rho @ unitA == unitA.kron(unitH))
        act = self.action
        rb.add("action-associative",
               act @ act.kron(IH) == act @ IC.kron(H.algebra.mu))
        rb.add("action-unital", act @ IC.kron(unitH) == IC)
        # Delta_C(c.h) = sum c1 h1 (x) c2 h2
        dC_full = C.delta_ambient
        swap = _factor_order((dC, dC, dH, dH), (0, 2, 1, 3))  # CCHH -> CHCH
        lhs = dC_full @ act
        rhs = act.kron(act) @ dC_full.kron(H.delta).rearranged(lambda x: x[swap])
        rb.add("action-comultiplicative", lhs == rhs)
        rb.add("action-counital-compatible",
               C.epsilon @ act == C.epsilon.kron(H.epsilon))
        return rb.build()


def _factor_order(dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """The permutation P: V_0 (x) ... (x) V_r-1 -> V_order[0] (x) ... (x)
    V_order[r-1] of tensor factors of dimensions ``dims``, as the index array
    idx with P X == X[idx] (row t of P X is row idx[t] of X)."""
    return np.arange(int(np.prod(dims))).reshape(dims).transpose(order).reshape(-1)


def _tensor_products(A: Algebra, B: Algebra, X: Matrix, Y: Matrix) -> Matrix:
    """x_i y_j in the algebra A (x) B, (a (x) b)(a' (x) b') = aa' (x) bb', for
    the columns x_i of X and y_j of Y, as column i * (columns of Y) + j.

    This is mu_A (x) mu_B, after the swap A B A B -> A A B B, applied to
    X (x) Y.  Three products contract sum x[a, b] y[c, e] mu_A[s, ac] mu_B[t, be]
    one index at a time (a, then c, then b and e), so nothing of size
    (dA dB)^2 x (dA dB) is built."""
    dA, dB, n, m = A.dim, B.dim, X.ncols, Y.ncols
    muA = A.mu.rearranged(  # row (s, c), column a
        lambda z: z.reshape(dA, dA, dA).transpose(0, 2, 1).reshape(dA * dA, dA))
    P = (muA @ X.rearranged(lambda z: z.reshape(dA, dB * n))).rearranged(  # row (s, b, i), column c
        lambda z: z.reshape(dA, dA, dB, n).transpose(0, 2, 3, 1).reshape(dA * dB * n, dA))
    Q = (P @ Y.rearranged(lambda z: z.reshape(dA, dB * m))).rearranged(  # row (s, i, j), column (b, e)
        lambda z: z.reshape(dA, dB, n, dB, m).transpose(0, 2, 4, 1, 3).reshape(dA * n * m, dB * dB))
    return (Q @ B.mu.T).rearranged(  # row (s, t), column (i, j)
        lambda z: z.reshape(dA, n, m, dB).transpose(0, 3, 1, 2).reshape(dA * dB, n * m))


def entwining_from_dk(D: DKStructure) -> EntwiningStructure:
    """psi(c (x) a) = a_0 (x) c.a_1, the canonical entwining of a DK triple."""
    rep = D.validate()
    if not rep.ok:
        raise InvalidStructureError("invalid Doi-Koppinen data", rep)
    A, H, C = D.algebra, D.bialgebra, D.coalgebra
    f = D.field
    dA, dH, dC = A.dim, H.dim, C.dim
    # C A -> C A H -> A C H -> A C
    move = _factor_order((dC, dA, dH), (1, 0, 2))
    psi = Matrix.eye(f, dA).kron(D.action) @ Matrix.eye(f, dC).kron(D.coaction).rearranged(
        lambda x: x[move])
    return EntwiningStructure(A, C, psi)


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
        deg = self.degrees
        degrees_ok = len(deg) == A.dim and all(0 <= d < n for d in deg)
        rb.add("degrees-shape", degrees_ok)
        # both checks index the group table by degrees
        if degrees_ok and check_group_table(self.group).ok:
            zero = self.field.scalar(0)
            rb.add_all("grading-multiplicative", (
                (f"product ({i},{j}) hits degree of basis {k}",
                 A.mult[i, j, k] == zero or deg[k] == self.group[deg[i]][deg[j]])
                for i, j, k in product(range(A.dim), repeat=3)))
            e = group_identity(self.group)
            rb.add("unit-homogeneous", all(A.unit[i] == zero or deg[i] == e
                                           for i in range(A.dim)))
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

