"""Automorphism groups of corings, the inner-automorphism decision and its
independent bicomodule oracle, exact-sequence verification, and the
specialised kernel criteria for entwining / Doi-Koppinen / G-set-graded data.

An automorphism f = (phi, rho) is *inner* when some convolution-invertible
p in the right dual satisfies

    sum phi(c_1) p(c_2)  =  sum p(c_1) c_2        for every c.

That solution space is linear in p, so membership reduces to "does a linear
subspace of C* contain a convolution unit".  The independent oracle asks
instead whether the twisted bicomodule attached to f is isomorphic to C as
a bicomodule; agreement of the two answers on every tested automorphism is
the exactness of 1 -> Inn -> Aut -> Pic at Aut.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .algebra import Algebra, AlgebraMorphism, group_inverse
from .comodule import (ISOMORPHIC, IsoSearchResult, bicomodule_iso_exists,
                       regular_bicomodule, twisted_bicomodule)
from .convolution import (RIGHT, DualAlgebra, DualElement, convolution_inverse,
                          right_dual_algebra)
from .coring import Coring, CoringMorphism, check_coring_morphism
from .families import (DKStructure, EntwiningStructure, GradedData, coring_from_entwining,
                       dual_coalgebra, entwined_delta_ambient, entwining_from_dk,
                       graded_coring)
from .fields import FieldSpec, Matrix, commute_rows, sandwich_rows
from .report import (InvalidStructureError, OracleDisagreementError, Report,
                     ReportBuilder)
from .unitsearch import (CERTIFIED_NONE, DEFAULT_BUDGET, UNDECIDED, WITNESS,
                         UnitSearchResult, subspace_contains_unit)

INNER = "inner"
NOT_INNER = "not-inner"


@dataclass
class InnerTestResult:
    morphism: CoringMorphism
    status: str                               # "inner" | "not-inner" | "undecided"
    witness: Optional[DualElement] = None     # convolution-invertible p
    witness_inverse: Optional[DualElement] = None
    certainty: str = "deterministic"
    solution_space_dim: int = 0

    @property
    def is_inner(self) -> Optional[bool]:
        if self.status == UNDECIDED:
            return None
        return self.status == INNER


def _require_automorphism(f: CoringMorphism) -> None:
    if f.source is not f.target:
        raise InvalidStructureError("inner test needs an endomorphism of one coring")
    rep = check_coring_morphism(f)
    if not rep.ok:
        raise InvalidStructureError("morphism failed validation", rep)
    if not f.is_isomorphism():
        raise InvalidStructureError("morphism is not an automorphism")


def _p_equation_kernel(C: Coring, phi: Matrix, delta_amb: Matrix) -> Matrix:
    """Kernel, as columns vec(p), of the right-A-linear p: C -> A with
    sum phi(c_1) p(c_2) = sum p(c_1) c_2, where the d^2 x d matrix
    ``delta_amb`` represents Delta in C (x)_k C."""
    k, A = C.field, C.base
    d = C.dim
    # W3 = delta_amb as [c1, c2, input]; column s: vec(W3[:, s, :]) and vec(W3[s, :, :])
    Wl = delta_amb.rearranged(lambda x: x.reshape(d, d, d).transpose(0, 2, 1).reshape(d * d, d))
    Wr = delta_amb.rearranged(lambda x: x.reshape(d, d * d).T)
    eyeC = Matrix.eye(k, d)
    R, L = C.bimodule.right_action, C.bimodule.left_action
    # column (r, s) of the p-equation: vec(R_r phi W3[:, s, :] - L_r W3[s, :, :])
    eq = Matrix.hstack([sandwich_rows(R[r] @ phi, eyeC) @ Wl - sandwich_rows(L[r], eyeC) @ Wr
                        for r in range(A.dim)])
    linear = [commute_rows(R[a], A.basis_right_mult(a)) for a in range(A.dim)]
    return Matrix.vstack([eq] + linear).nullspace()


_STATUS = {WITNESS: INNER, CERTIFIED_NONE: NOT_INNER, UNDECIDED: UNDECIDED}


def _unit_search(coords: Matrix, alg: Algebra, budget: int,
                 seed: int) -> tuple[str, UnitSearchResult]:
    """Whether the span of the columns of ``coords`` holds a unit of alg, as
    an inner-ness status; an empty span is a deterministic NOT_INNER."""
    res = subspace_contains_unit([coords.a[:, j] for j in range(coords.ncols)], alg,
                                 budget=budget, seed=seed)
    return _STATUS[res.status], res


def _right_dual_unit_search(C: Coring, null: Matrix, budget: int,
                            seed: int) -> tuple[str, UnitSearchResult, DualAlgebra]:
    """:func:`_unit_search` over the columns vec(p) of null, inside C*."""
    dual = right_dual_algebra(C)
    coords = dual.coords_of_columns(null)
    if coords is None:
        raise AssertionError("p-equation solution escaped the right dual")
    return *_unit_search(coords, dual.algebra, budget, seed), dual


def is_inner(f: CoringMorphism, budget: int = DEFAULT_BUDGET, seed: int = 0) -> InnerTestResult:
    """Decide membership of f in the right inner automorphism group.

    Solves the linear p-equation, then searches that subspace of C* for a
    convolution-invertible element; every witness is re-verified (p-equation,
    two-sided inverse, and that h(c) = sum p(c_1)c_2 is a rho-twisted
    bijection)."""
    _require_automorphism(f)
    C = f.source
    null = _p_equation_kernel(C, f.phi, C.delta_ambient)
    status, res, dual = _right_dual_unit_search(C, null, budget, seed)
    if status != INNER:
        return InnerTestResult(f, status, certainty=res.certainty,
                               solution_space_dim=null.ncols)
    p, q = dual.element(res.element), dual.element(res.inverse)
    _verify_inner_witness(f, p, q)
    return InnerTestResult(f, INNER, witness=p, witness_inverse=q,
                           certainty=res.certainty, solution_space_dim=null.ncols)


def _verify_inner_witness(f: CoringMorphism, p: DualElement, q: DualElement) -> None:
    C = f.source
    # the defining equation sum phi(c_1) p(c_2) = sum p(c_1) c_2, re-checked
    # exactly; the right side is h(c), the comodule map attached to p
    eye = Matrix.eye(C.field, C.dim)
    h = C.bimodule.left_contraction(p.values) @ C.delta_ambient
    if C.bimodule.right_contraction(p.values) @ f.phi.kron(eye) @ C.delta_ambient != h:
        raise AssertionError("inner witness fails the defining equation")
    dual = right_dual_algebra(C)
    xp, xq = dual.coords(p.values), dual.coords(q.values)
    alg = dual.algebra
    if not (np.all(alg.multiply(xp, xq) == alg.unit) and np.all(alg.multiply(xq, xp) == alg.unit)):
        raise AssertionError("inner witness is not two-sided convolution invertible")
    # h must be a rho-twisted bijection (safety check)
    if not h.is_invertible():
        raise AssertionError("inner witness map h is not bijective")
    for a in range(C.base.dim):
        ra = f.rho.matrix.col(a)
        if h @ C.bimodule.left_action[a] != C.bimodule.left_act(ra) @ h:
            raise AssertionError("inner witness map h is not rho-twisted left linear")


def inner_via_bicomodule(f: CoringMorphism, budget: int = DEFAULT_BUDGET,
                         seed: int = 0) -> IsoSearchResult:
    """Independent oracle: f is inner iff the twisted bicomodule attached to
    f is isomorphic to C as a bicomodule."""
    _require_automorphism(f)
    tw = twisted_bicomodule(f)
    reg = regular_bicomodule(f.source)
    return bicomodule_iso_exists(tw, reg, budget=budget, seed=seed)


# -- automorphism enumeration -------------------------------------------------

@dataclass
class AutomorphismSet:
    coring: Coring
    elements: list[CoringMorphism]
    complete: bool

    # (phi, rho matrix) -> index of its first element
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = {}
        for i, g in enumerate(self.elements):
            self._index.setdefault((g.phi, g.rho.matrix), i)

    def __len__(self) -> int:
        return len(self.elements)

    def find(self, phi: Matrix, rho: Matrix) -> Optional[int]:
        return self._index.get((phi, rho))


# candidates tested per array product by the automorphism scans
_SCAN_CHUNK = 1024


def _affine_scan(k: FieldSpec, base: np.ndarray, null: np.ndarray,
                 count: int) -> Iterator[np.ndarray]:
    """Yield ``base + null @ t`` (reduced mod p, in ``k.dtype``), one row per
    candidate in chunks of at most ``_SCAN_CHUNK`` rows, for the first
    ``count`` vectors t of ``itertools.product(range(p), repeat=m)``, m the
    number of columns of ``null``.

    Candidate i has t = the base-p digits of i, the last coordinate the
    least significant.  Since i < count, only the digits of weight p^j <
    count move; the others stay 0, so the weights are Python ints below
    ``count`` even when p^m overflows int64."""
    p, m = k.p, null.shape[1]
    weights = []
    while len(weights) < m and p ** len(weights) < count:
        weights.append(p ** len(weights))
    # the digit of weight p^j multiplies column m - 1 - j
    cols = null[:, m - len(weights):][:, ::-1].T
    weights = np.array(weights, dtype=np.int64)
    for start in range(0, count, _SCAN_CHUNK):
        idx = np.arange(start, min(count, start + _SCAN_CHUNK), dtype=np.int64)
        digits = (idx[:, None] // weights % p).astype(k.dtype)
        yield (base + digits @ cols) % p


def _sandwich_projected(phis: np.ndarray, W: np.ndarray, P: Optional[np.ndarray],
                        p: int) -> np.ndarray:
    """``P vec(phi W phi^T)`` for each phi of the stack ``phis``, one row
    each; vec is row-major, so this is ``P (phi (x) phi) vec(W)``.  P None
    is the identity, as for a square with no relations (a coalgebra over
    k), and is not applied."""
    n, d = phis.shape[:2]
    out = (phis @ W % p @ phis.transpose(0, 2, 1) % p).reshape(n, d * d)
    return out if P is None else out @ P.T % p


def enumerate_automorphisms(C: Coring, fix_rho_identity: bool = True,
                            budget: int = DEFAULT_BUDGET) -> AutomorphismSet:
    """Exhaustively enumerate Aut(C) over a prime field.

    For each base automorphism rho, the phi-candidates live in the affine
    space ``part + null t`` cut out by the counit condition and
    rho-twisted bilinearity (both linear); ``complete`` records whether
    every candidate space was fully enumerated within the budget.

    With ``fix_rho_identity`` false the rhos are this same scan's answer
    on the coalgebra A* (``dual_coalgebra``), transposed: its candidates
    are the p^(dA^2 - dA) matrices with eps phi = eps, that is M 1 = 1 for
    M = phi^T, and it spends its own ``budget``.  Each rho is re-validated
    by ``AlgebraMorphism.validate`` and ``is_invertible``, and a failure
    raises.  The coring scans then share one more ``budget``.

    The candidates are scanned in chunks of array products (``_affine_scan``),
    each chunk filtered in this order, keeping the survivors of each step:

    1. comultiplicativity ``Delta phi == P (phi (x) phi) S Delta``, column
       by column: with X_c = vec^-1(S Delta e_c), keep the phi with
       ``Delta phi e_c == P vec(phi X_c phi^T)``, O(d^3) per candidate
       where phi (x) phi costs d^4.  Most candidates fail column 0, so the
       later columns and the bijectivity check see few;
    2. bijectivity, ``phi.is_invertible()`` on each survivor in order.

    Here P and S are the square's project and section; a square with no
    relations (every coalgebra over k, and so every base scan) has P = I,
    and ``vec(phi X_c phi^T)`` is compared as it is.  A candidate is
    kept iff it passes both predicates; each depends only on phi, so the
    order of the checks does not change which candidates are kept, nor
    their order, which is the scan order.  The budget accounting
    (``spent``, ``remaining``, ``complete``) is per candidate space and
    does not depend on the checks.  Every element is then re-validated by
    ``check_coring_morphism`` and ``is_isomorphism``; that check's
    ``descend`` of phi (x) phi to the square certifies the balance that
    twisted bilinearity implies, and a failure there raises."""
    k = C.field
    if k.kind != "Fp":
        raise InvalidStructureError("automorphism enumeration needs a finite field")
    A = C.base
    d, p = C.dim, k.p
    if fix_rho_identity:
        rhos, complete = [AlgebraMorphism.identity(A)], True
    else:
        # sorted by row-major entries, so that the order of Aut, and with it
        # the coset indices of exactseq, does not depend on the dual's scan
        duals = enumerate_automorphisms(dual_coalgebra(A), budget=budget)
        rhos = sorted((AlgebraMorphism(A, A, g.phi.T) for g in duals.elements),
                      key=lambda rho: rho.matrix.a.tolist())
        if not all(rho.validate().ok and rho.matrix.is_invertible() for rho in rhos):
            raise AssertionError("a coalgebra automorphism of A*, transposed, is not one of A")
        complete = duals.complete
    sq = C.square
    D, X = C.delta.a, C.delta_ambient.a
    P = None if sq.dim == sq.ambient_dim else sq.project.a
    found: list[CoringMorphism] = []
    spent = 0
    for rho in rhos:
        # eps phi = rho eps, then phi a = rho(a) phi on both sides
        blocks = [sandwich_rows(C.epsilon, Matrix.eye(k, d))]
        for a in range(A.dim):
            ra = rho.matrix.col(a)
            blocks.append(commute_rows(C.bimodule.left_action[a], C.bimodule.left_act(ra)))
            blocks.append(commute_rows(C.bimodule.right_action[a], C.bimodule.right_act(ra)))
        system = Matrix.vstack(blocks)
        rhs = k.zeros((system.nrows,))
        rhs[: A.dim * d] = (rho.matrix @ C.epsilon).a.reshape(-1)
        part = system.solve(rhs)
        if part is None:
            continue
        null = system.nullspace()
        m = null.ncols
        total = k.p ** m
        if spent + total > budget:
            complete = False
            remaining = max(0, budget - spent)
        else:
            remaining = total
        spent += min(total, remaining)
        for chunk in _affine_scan(k, part, null.a, remaining):
            phis = chunk.reshape(-1, d, d)
            for c in range(d):
                lhs = phis[:, :, c] @ D.T % p
                phis = phis[(lhs == _sandwich_projected(phis, X[:, c].reshape(d, d), P, p))
                            .all(axis=1)]
            for arr in phis:
                phi = Matrix(k, arr)
                if phi.is_invertible():
                    found.append(CoringMorphism(C, C, phi, rho))
    for g in found:
        rep = check_coring_morphism(g)
        if not (rep.ok and g.is_isomorphism()):
            raise AssertionError("enumerated candidate failed final validation")
    return AutomorphismSet(C, found, complete)


# -- exact sequence verification ----------------------------------------------

@dataclass
class ExactSequenceReport:
    """The outcome of :func:`verify_exact_sequence`.  Its four group fields
    (``inn_closed``, ``inn_normal``, ``out_count`` = |Aut| / |Inn| and
    ``coset_representatives``) are computed only when the enumeration is
    complete and every element is decided; otherwise they keep their
    defaults False, False, None and [].  The last two also keep them when
    no element is inner."""

    coring_name: str
    aut_count: int
    inner_flags: list[Optional[bool]]
    complete: bool
    inn_count: int = 0
    out_count: Optional[int] = None
    undecided: int = 0
    oracle_agreements: int = 0
    inn_closed: bool = False
    inn_normal: bool = False
    coset_representatives: list[int] = field(default_factory=list)

    def summary(self) -> str:
        out = "?" if self.out_count is None else str(self.out_count)
        return (f"{self.coring_name}: |Aut| = {self.aut_count}, |Inn| = {self.inn_count}, "
                f"|Out^r| = {out}, oracle agreements {self.oracle_agreements}/{self.aut_count}")


def verify_exact_sequence(C: Coring, auts: AutomorphismSet,
                          budget: int = DEFAULT_BUDGET, seed: int = 0) -> ExactSequenceReport:
    """Run both inner-ness routes on every automorphism and verify they
    agree; also check the group-theoretic shape of the kernel.

    Any disagreement between the linear route and the bicomodule oracle is
    a hard failure naming the offending automorphism."""
    flags: list[Optional[bool]] = []
    agreements = 0
    undecided = 0
    for idx, f in enumerate(auts.elements):
        lin = is_inner(f, budget=budget, seed=seed)
        bic = inner_via_bicomodule(f, budget=budget, seed=seed)
        lin_ans = lin.is_inner
        bic_ans = None if bic.status == UNDECIDED else (bic.status == ISOMORPHIC)
        if lin_ans is None or bic_ans is None:
            undecided += 1
            flags.append(lin_ans if lin_ans is not None else bic_ans)
            continue
        if lin_ans != bic_ans:
            raise OracleDisagreementError(
                f"automorphism #{idx}: linear route says "
                f"{'inner' if lin_ans else 'not inner'}, bicomodule oracle says "
                f"{'isomorphic' if bic_ans else 'not isomorphic'}")
        agreements += 1
        flags.append(lin_ans)
    inn = [i for i, v in enumerate(flags) if v]
    rep = ExactSequenceReport(C.name, len(auts.elements), flags, auts.complete,
                              inn_count=len(inn), undecided=undecided,
                              oracle_agreements=agreements)
    if auts.complete and undecided == 0:
        rep.inn_closed, rep.inn_normal, reps = _inn_group_checks(auts, flags)
        if inn:
            rep.out_count = len(auts.elements) // len(inn)
            rep.coset_representatives = reps
    return rep


def _inn_group_checks(auts: AutomorphismSet, flags: Sequence[Optional[bool]]
                      ) -> tuple[bool, bool, list[int]]:
    """(closed, normal, coset representatives) of the flagged subset N of
    the finite group ``auts``, read from the products g f (g in Aut, f in N)
    and f g (g in Aut outside N, f in N), each composed at most once, so at
    most (2 |Aut| - |N|) |N| of them; nothing is inverted.

    Closed: f N lies in N for every f in N.  Then N is a subgroup: the
    powers of f lie in N and cycle, so f^-1 = f^(m-1) for the m >= 1 with
    f^m = id.  Normal: N is closed and g N = N g for every g.  That is
    g N g^-1 inside N: that holds iff g N lies in N g, and as g N and N g
    both have |N| elements, inclusion is equality.  For g in the subgroup
    N, g N = N = N g already, so only g outside N are tested.  The
    representatives are the first index of each left coset g N, in order."""
    members = {i for i, v in enumerate(flags) if v}
    inn = [auts.elements[i] for i in sorted(members)]

    def indices(products: Iterator[CoringMorphism]) -> set[Optional[int]]:
        return {auts.find(m.phi, m.rho.matrix) for m in products}

    left = [indices(g.compose(f) for f in inn) for g in auts.elements]
    closed = all(left[i] <= members for i in members)
    normal = closed and all(indices(f.compose(g) for f in inn) == left[i]
                            for i, g in enumerate(auts.elements) if i not in members)
    reps: list[int] = []
    for i in range(len(left)):
        if not any(i in left[r] for r in reps):
            reps.append(i)
    return closed, normal, reps


# -- graded fast paths --------------------------------------------------------

def graded_values_algebra(Gd: GradedData) -> Algebra:
    """The right dual of A (x) kX in the coordinates {p(1_A (x) x)}_x, with

        (f * g)_x = sum_h f_{x h^{-1}} (g_x)_h,     unit eps_x = 1_A.

    Index layout: (x, A-basis) -> x * dim(A) + t."""
    A = Gd.algebra
    k = Gd.field
    nX, dA = Gd.set_size, A.dim
    dim = nX * dA
    mult = k.zeros((dim, dim, dim))
    for y in range(nX):
        for u in range(dA):
            for x in range(nX):
                for v in range(dA):
                    h = Gd.degrees[v]
                    if Gd.gset[x][group_inverse(Gd.group, h)] != y:
                        continue
                    prod = A.mult[u, v, :]
                    mult[y * dA + u, x * dA + v, x * dA : (x + 1) * dA] = prod
    unit = k.zeros((dim,))
    for x in range(nX):
        unit[x * dA : (x + 1) * dA] = A.unit
    return Algebra(k, mult, unit)


def graded_dual_element(Gd: GradedData, coring: Coring, values: Matrix) -> DualElement:
    """Assemble the full right-dual element from its values on {1_A (x) x}
    via p(a_g (x) x) = p(1_A (x) x g^{-1}) a_g."""
    A = Gd.algebra
    k = Gd.field
    nX, dA = Gd.set_size, A.dim
    out = k.zeros((dA, dA * nX))
    for t in range(dA):
        xg = group_inverse(Gd.group, Gd.degrees[t])
        for x in range(nX):
            src = Gd.gset[x][xg]
            out[:, t * nX + x] = A.basis_right_mult(t) @ values.col(src)
    return DualElement(coring, RIGHT, Matrix(k, out))


def graded_dual_values(Gd: GradedData, p: DualElement) -> Matrix:
    """Extract {p(1_A (x) x)}_x from a full dual element."""
    return p.values @ _unit_columns(Gd)


def _unit_columns(Gd: GradedData) -> Matrix:
    """The elements 1_A (x) x of A (x) kX as columns, index (t, x) -> t * nX + x."""
    k = Gd.field
    return Matrix.column(k, Gd.algebra.unit).kron(Matrix.eye(k, Gd.set_size))


def graded_dual_invertible(values: Matrix, Gd: GradedData) -> Optional[Matrix]:
    """Invertibility of a graded dual element by the direct criterion

        sum_h q(1 (x) x h^{-1}) p(1 (x) x)_h = 1_A = (same with p, q swapped)

    solved linearly for q; returns the values of q or None."""
    A = Gd.algebra
    k = Gd.field
    nX, dA = Gd.set_size, A.dim
    if values.shape != (dA, nX):
        raise ValueError("values must be one A-column per set element")
    x = values.a.T.reshape(-1)  # (x, A-coord) layout
    y = graded_values_algebra(Gd).element_inverse(x)
    return None if y is None else Matrix(k, y.reshape(nX, dA).T)


@dataclass
class KernelMembershipResult:
    status: str                               # "inner" | "not-inner" | "undecided"
    witness_values: Optional[Matrix] = None   # {p(1 (x) x)}_x when inner
    witness: Optional[DualElement] = None
    certainty: str = "deterministic"
    solution_space_dim: int = 0

    @property
    def is_member(self) -> Optional[bool]:
        if self.status == UNDECIDED:
            return None
        return self.status == INNER


def _graded_twist_rows(Gd: GradedData, sigma: Matrix) -> list[Matrix]:
    """Rows of p(a (x) x) = sigma(a) p(1 (x) x) on the values V (dA x nX,
    column x = p(1 (x) x)): V[:, x . deg(t)^-1] u_t == sigma(u_t) V[:, x]."""
    A, k = Gd.algebra, Gd.field
    nX = Gd.set_size
    rows = []
    for t in range(A.dim):
        ginv = group_inverse(Gd.group, Gd.degrees[t])
        shift = k.zeros((nX, nX))  # column x picks V[:, x . deg(t)^-1]
        for x in range(nX):
            shift[Gd.gset[x][ginv], x] = k.scalar(1)
        rows.append(sandwich_rows(A.basis_right_mult(t), Matrix(k, shift))
                    - sandwich_rows(A.left_mult(sigma.col(t)), Matrix.eye(k, nX)))
    return rows


def _graded_kernel(Gd: GradedData, phi: Matrix, sigma: Matrix, budget: int,
                   seed: int) -> tuple[str, UnitSearchResult, int, Optional[Matrix]]:
    """The criterion of :func:`graded_ker_omega` with sigma in place of rho:
    conditions (i) and (ii) on the values V = {p(1 (x) x)}_x, then a unit
    search in :func:`graded_values_algebra`.  Returns the status, the search
    result, the solution-space dimension and the witness values."""
    A, k = Gd.algebra, Gd.field
    nX, dA = Gd.set_size, A.dim
    images = (phi @ _unit_columns(Gd)).a.reshape(dA, nX, nX)  # a^x_y = images[:, y, x]
    eyeX = Matrix.eye(k, nX)
    rows = _graded_twist_rows(Gd, sigma)
    for x in range(nX):
        at_x = eyeX.submatrix(range(nX), [x])
        for y in range(nX):
            if not np.any(images[:, y, x] != k.scalar(0)):
                continue
            L = A.left_mult(images[:, y, x])
            rows += [sandwich_rows(L @ Gd.component_projector(h), at_x)
                     for h in range(Gd.group_order) if Gd.gset[y][h] != x]
    null = Matrix.vstack(rows).nullspace()
    m = null.ncols
    # vec(V) is indexed (r, x); the values algebra is indexed (x, r)
    coords = null.rearranged(lambda x: x.reshape(dA, nX, m).transpose(1, 0, 2).reshape(nX * dA, m))
    status, res = _unit_search(coords, graded_values_algebra(Gd), budget, seed)
    values = Matrix(k, res.element.reshape(nX, dA).T) if status == INNER else None
    return status, res, m, values


def graded_ker_omega(f: CoringMorphism, Gd: GradedData,
                     budget: int = DEFAULT_BUDGET, seed: int = 0) -> KernelMembershipResult:
    """Kernel membership of a graded-coring automorphism by the direct
    graded criterion:

      (i)  a^x_y p(1 (x) x)_h = 0   whenever y.h != x,
           where phi(1 (x) x) = sum_y a^x_y (x) y;
      (ii) p(a (x) x) = rho(a) p(1 (x) x),

    both linear in the values {p(1 (x) x)}, plus invertibility by the
    graded criterion."""
    _require_automorphism(f)
    status, res, dim, values = _graded_kernel(Gd, f.phi, f.rho.matrix, budget, seed)
    p = None
    if status == INNER:
        p = graded_dual_element(Gd, f.source, values)
        if convolution_inverse(p) is None:
            raise AssertionError("graded witness is not convolution invertible generically")
    return KernelMembershipResult(status, witness_values=values, witness=p,
                                  certainty=res.certainty, solution_space_dim=dim)


# -- entwining / DK kernel criteria -------------------------------------------

def check_entwining_morphism(E: EntwiningStructure, alpha: Matrix, gamma: Matrix) -> Report:
    """(alpha, gamma) as an endomorphism of (A, C, psi)."""
    rb = ReportBuilder("entwining morphism")
    A, C = E.algebra, E.coalgebra
    rb.merge(AlgebraMorphism(A, A, alpha).validate(), prefix="alpha-")
    gmor = CoringMorphism(C, C, gamma, AlgebraMorphism.identity(C.base))
    rb.merge(check_coring_morphism(gmor), prefix="gamma-")
    lhs = alpha.kron(gamma) @ E.psi
    rhs = E.psi @ gamma.kron(alpha)
    rb.add("psi-compatible", lhs == rhs)
    return rb.build()


def entwining_ker_membership(E: EntwiningStructure, alpha: Matrix, gamma: Matrix,
                             budget: int = DEFAULT_BUDGET, seed: int = 0) -> KernelMembershipResult:
    """Kernel membership of an entwining automorphism by the displayed
    criterion: an invertible p in (A (x) C)* with

        sum (alpha(a) (x) gamma(c_1)) p(1 (x) c_2) = sum p(a (x) c_1) (x) c_2."""
    rep = check_entwining_morphism(E, alpha, gamma)
    if not rep.ok:
        raise InvalidStructureError("invalid entwining morphism", rep)
    if not (alpha.is_invertible() and gamma.is_invertible()):
        raise InvalidStructureError("entwining morphism is not an automorphism")
    coring, crep = coring_from_entwining(E)
    if not crep.ok:
        raise InvalidStructureError("entwining data does not induce a coring", crep)
    # the p-equation of the induced automorphism, with Delta represented by
    # (a (x) c_1) (x) (1 (x) c_2)
    null = _p_equation_kernel(coring, alpha.kron(gamma), entwined_delta_ambient(E))
    status, res, dual = _right_dual_unit_search(coring, null, budget, seed)
    p = dual.element(res.element) if status == INNER else None
    return KernelMembershipResult(status, witness=p, certainty=res.certainty,
                                  solution_space_dim=null.ncols)


def entwining_coring_automorphism(E: EntwiningStructure, alpha: Matrix,
                                  gamma: Matrix) -> CoringMorphism:
    """The coring automorphism (alpha (x) gamma, alpha) induced on A (x) C."""
    coring, rep = coring_from_entwining(E)
    if not rep.ok:
        raise InvalidStructureError("entwining data does not induce a coring", rep)
    A = E.algebra
    return CoringMorphism(coring, coring, alpha.kron(gamma), AlgebraMorphism(A, A, alpha))


# -- Doi-Koppinen and graded-triple kernels -----------------------------------

def check_dk_morphism(D: DKStructure, hbar: Matrix, alpha: Matrix, gamma: Matrix) -> Report:
    """(hbar, alpha, gamma) as an endomorphism of the DK structure."""
    rb = ReportBuilder("DK morphism")
    H, A, C = D.bialgebra, D.algebra, D.coalgebra
    rb.merge(AlgebraMorphism(H.algebra, H.algebra, hbar).validate(), prefix="hbar-algebra-")
    rb.add("hbar-comultiplicative", H.delta @ hbar == hbar.kron(hbar) @ H.delta)
    rb.add("hbar-counital", H.epsilon @ hbar == H.epsilon)
    rb.merge(AlgebraMorphism(A, A, alpha).validate(), prefix="alpha-")
    gmor = CoringMorphism(C, C, gamma, AlgebraMorphism.identity(C.base))
    rb.merge(check_coring_morphism(gmor), prefix="gamma-")
    rb.add("coaction-equivariant",
           D.coaction @ alpha == alpha.kron(hbar) @ D.coaction)
    rb.add("action-equivariant",
           gamma @ D.action == D.action @ gamma.kron(hbar))
    return rb.build()


def dk_ker_membership(D: DKStructure, hbar: Matrix, alpha: Matrix, gamma: Matrix,
                      budget: int = DEFAULT_BUDGET, seed: int = 0) -> KernelMembershipResult:
    """Kernel membership of a DK automorphism; the displayed criterion is the
    entwining one for the induced entwining structure."""
    rep = check_dk_morphism(D, hbar, alpha, gamma)
    if not rep.ok:
        raise InvalidStructureError("invalid DK morphism", rep)
    if not (hbar.is_invertible() and alpha.is_invertible() and gamma.is_invertible()):
        raise InvalidStructureError("DK morphism is not an automorphism")
    return entwining_ker_membership(entwining_from_dk(D), alpha, gamma,
                                    budget=budget, seed=seed)


def check_graded_triple(Gd: GradedData, f_map: Sequence[int], phi_map: Sequence[int],
                        alpha: Matrix) -> Report:
    """(f, phi, alpha): a group endomorphism, a compatible map of the G-set,
    and a graded algebra endomorphism with alpha(A_g) inside A_{f(g)}."""
    rb = ReportBuilder("graded triple morphism")
    n, nx = Gd.group_order, Gd.set_size
    k = Gd.field
    f_ok = len(f_map) == n and all(0 <= v < n for v in f_map) and \
        all(f_map[Gd.group[g][h]] == Gd.group[f_map[g]][f_map[h]]
            for g in range(n) for h in range(n))
    rb.add("f-group-morphism", f_ok)
    phi_ok = len(phi_map) == nx and all(0 <= v < nx for v in phi_map)
    rb.add("phi-map-shape", phi_ok)
    # the last two checks index with f and phi, so they need both in range
    maps_ok = f_ok and phi_ok
    X, deg, dA = Gd.gset, Gd.degrees, Gd.algebra.dim
    if maps_ok:
        rb.add_all("phi-equivariant", (
            (f"(x,g)=({x},{g})", phi_map[X[x][g]] == X[phi_map[x]][f_map[g]])
            for x, g in itertools.product(range(nx), range(n))))
    rb.merge(AlgebraMorphism(Gd.algebra, Gd.algebra, alpha).validate(), prefix="alpha-")
    if maps_ok:
        zero = k.scalar(0)
        rb.add_all("alpha-degree-compatible", (
            (f"alpha(basis {i}) leaves degree f({deg[i]})",
             alpha.a[t, i] == zero or deg[t] == f_map[deg[i]])
            for i, t in itertools.product(range(dA), repeat=2)))
    return rb.build()


def graded_triple_coring_automorphism(Gd: GradedData, f_map: Sequence[int],
                                      phi_map: Sequence[int], alpha: Matrix,
                                      coring: Optional[Coring] = None) -> CoringMorphism:
    """The induced automorphism (alpha (x) gamma, alpha) of A (x) kX, where
    gamma permutes the set basis by phi_map."""
    C = coring if coring is not None else graded_coring(Gd)
    phi = _graded_triple_phi(Gd, phi_map, alpha)
    return CoringMorphism(C, C, phi, AlgebraMorphism(Gd.algebra, Gd.algebra, alpha))


def _graded_triple_phi(Gd: GradedData, phi_map: Sequence[int], alpha: Matrix) -> Matrix:
    """alpha (x) gamma on A (x) kX, where gamma permutes the set basis by phi_map."""
    k = Gd.field
    gamma = k.zeros((Gd.set_size, Gd.set_size))
    for x, y in enumerate(phi_map):
        gamma[y, x] = k.scalar(1)
    return alpha.kron(Matrix(k, gamma))


def graded_triple_ker_membership(Gd: GradedData, f_map: Sequence[int],
                                 phi_map: Sequence[int], alpha: Matrix,
                                 budget: int = DEFAULT_BUDGET,
                                 seed: int = 0) -> KernelMembershipResult:
    """Kernel membership of a graded-triple automorphism by the displayed
    criterion: an invertible p with

        p(a (x) x) = alpha(a) p(1 (x) x),
        p(1 (x) x)_h = 0   whenever phi(x) h != x,

    which is the criterion of :func:`graded_ker_omega` for the induced
    automorphism, decided without building the coring."""
    rep = check_graded_triple(Gd, f_map, phi_map, alpha)
    if not rep.ok:
        raise InvalidStructureError("invalid graded triple", rep)
    if not alpha.is_invertible() or sorted(phi_map) != list(range(Gd.set_size)) \
            or sorted(f_map) != list(range(Gd.group_order)):
        raise InvalidStructureError("graded triple is not an automorphism")
    status, res, dim, values = _graded_kernel(Gd, _graded_triple_phi(Gd, phi_map, alpha),
                                              alpha, budget, seed)
    return KernelMembershipResult(status, witness_values=values,
                                  certainty=res.certainty, solution_space_dim=dim)
