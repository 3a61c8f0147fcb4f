"""Corings over an algebra A: carrier bimodule, comultiplication into the
explicit C (x)_A C quotient, counit into A, morphisms, and coseparability
via a linear cointegral search.

Axioms are never assumed: :func:`check_coring` re-verifies everything,
including that the comultiplication's ambient realisations descend to the
tensor quotients, and reports each failure with a witness.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .algebra import Algebra, AlgebraMorphism, Bimodule
from .fields import Matrix, commute_rows, sandwich_rows
from .report import BalancednessError, Report, ReportBuilder
from .tensor import TensorQuotient, tensor_chain, tensor_over


class Coring:
    """An A-coring: (A,A)-bimodule with Delta: C -> C (x)_A C and eps: C -> A.

    ``delta`` is a matrix into the coordinates of the cached quotient
    ``square``; ``epsilon`` maps into A-coordinates.  Construction checks
    shapes only; use :func:`check_coring` for the axioms.
    """

    def __init__(self, base: Algebra, bimodule: Bimodule, delta: Matrix, epsilon: Matrix,
                 square: Optional[TensorQuotient] = None, name: str = "coring"):
        self.base = base
        self.bimodule = bimodule
        self.field = base.field
        self.dim = bimodule.dim
        self.name = name
        if bimodule.left_algebra is not base or bimodule.right_algebra is not base:
            raise ValueError("carrier must be a bimodule over the base algebra on both sides")
        self.square = square if square is not None else tensor_over(bimodule, bimodule)
        if delta.shape != (self.square.dim, self.dim):
            raise ValueError(f"delta must map C -> C(x)_AC coordinates, got {delta.shape}")
        if epsilon.shape != (base.dim, self.dim):
            raise ValueError(f"epsilon must map C -> A, got {epsilon.shape}")
        self.delta = delta
        self.epsilon = epsilon
        self._cube: Optional[TensorQuotient] = None
        self._cache: dict = {}

    @property
    def cube(self) -> TensorQuotient:
        if self._cube is None:
            self._cube = tensor_chain([self.bimodule, self.bimodule, self.bimodule])
        return self._cube

    @property
    def delta_ambient(self) -> Matrix:
        """A representative of Delta into the ambient C (x)_k C."""
        if "delta_ambient" not in self._cache:
            self._cache["delta_ambient"] = self.square.section @ self.delta
        return self._cache["delta_ambient"]

    def __repr__(self) -> str:
        return f"Coring({self.name}, dim={self.dim}, base dim {self.base.dim}, {self.field})"


def check_coring(C: Coring) -> Report:
    """Full axiom audit: carrier bimodule, bilinearity of Delta and eps,
    coassociativity and both counit laws."""
    rb = ReportBuilder(f"coring {C.name}")
    rb.merge(C.bimodule.validate(), prefix="carrier-")
    A, f = C.base, C.field
    D, eps = C.delta, C.epsilon
    sq, bim = C.square, C.bimodule
    LA = [A.basis_left_mult(a) for a in range(A.dim)]
    RA = [A.basis_right_mult(a) for a in range(A.dim)]
    for name, X, acts, images in (
            ("delta-left-linear", D, bim.left_action, sq.module.left_action),
            ("delta-right-linear", D, bim.right_action, sq.module.right_action),
            ("epsilon-left-linear", eps, bim.left_action, LA),
            ("epsilon-right-linear", eps, bim.right_action, RA)):
        rb.add_all(name, ((f"a-basis {A.name_of(a)}", X @ acts[a] == images[a] @ X)
                          for a in range(A.dim)))

    # coassociativity inside C (x)_A C (x)_A C
    I = Matrix.eye(f, C.dim)
    damb = C.delta_ambient
    try:
        left = sq.induce(damb.kron(I), C.cube)
        right = sq.induce(I.kron(damb), C.cube)
        rb.add("coassociativity", left @ D == right @ D)
    except BalancednessError:
        rb.add("coassociativity", False, "ambient comultiplication is unbalanced")

    # eps (x)_A C and C (x)_A eps
    for label, contract in (("counit-left", bim.left_contraction),
                            ("counit-right", bim.right_contraction)):
        try:
            rb.add(label, sq.descend(contract(eps)) @ D == I)
        except BalancednessError:
            rb.add(label, False, "counit contraction is unbalanced")
    return rb.build()


class CoringMorphism:
    """A pair (phi, rho): rho an algebra map of the bases, phi a rho-twisted
    bilinear map of the carriers compatible with counits and
    comultiplications."""

    def __init__(self, source: Coring, target: Coring, phi: Matrix, rho: AlgebraMorphism):
        self.source = source
        self.target = target
        self.phi = phi
        self.rho = rho
        if phi.shape != (target.dim, source.dim):
            raise ValueError("phi shape mismatch")
        if rho.source is not source.base or rho.target is not target.base:
            raise ValueError("rho must map the source base to the target base")

    @staticmethod
    def identity(C: Coring) -> "CoringMorphism":
        return CoringMorphism(C, C, Matrix.eye(C.field, C.dim), AlgebraMorphism.identity(C.base))

    def compose(self, other: "CoringMorphism") -> "CoringMorphism":
        """self after other."""
        if other.target is not self.source:
            raise ValueError("composition mismatch")
        return CoringMorphism(other.source, self.target,
                              self.phi @ other.phi, self.rho.compose(other.rho))

    def is_isomorphism(self) -> bool:
        return self.phi.is_invertible() and self.rho.matrix.is_invertible()

    def inverse(self) -> "CoringMorphism":
        phi_inv = self.phi.inverse()
        if phi_inv is None:
            raise ValueError("phi is not invertible")
        return CoringMorphism(self.target, self.source, phi_inv, self.rho.inverse())

    def validate(self) -> Report:
        return check_coring_morphism(self)

    def __repr__(self) -> str:
        return f"CoringMorphism({self.source.name} -> {self.target.name})"


def check_coring_morphism(m: CoringMorphism) -> Report:
    iso = "isomorphism" if m.is_isomorphism() else "not an isomorphism"
    rb = ReportBuilder(f"coring morphism ({iso})")
    rb.merge(m.rho.validate(), prefix="rho-")
    src, tgt = m.source, m.target
    A = src.base
    sides = (("left", src.bimodule.left_action, tgt.bimodule.left_act),
             ("right", src.bimodule.right_action, tgt.bimodule.right_act))
    rb.add_all("twisted-bilinearity", (
        (f"a-basis {A.name_of(a)} ({side})", m.phi @ acts[a] == act(m.rho.matrix.col(a)) @ m.phi)
        for a in range(A.dim) for side, acts, act in sides))
    rb.add("counit-compatible", tgt.epsilon @ m.phi == m.rho.matrix @ src.epsilon)
    try:
        both = src.square.induce(m.phi.kron(m.phi), tgt.square)
        rb.add("comultiplicative", tgt.delta @ m.phi == both @ src.delta)
    except BalancednessError:
        rb.add("comultiplicative", False, "phi (x) phi is unbalanced")
    return rb.build()


def compose_morphisms(g: CoringMorphism, f: CoringMorphism, validate: bool = True) -> CoringMorphism:
    """g after f, with validity re-verified by default."""
    out = g.compose(f)
    if validate:
        rep = out.validate()
        if not rep.ok:
            raise ValueError(f"composite morphism is invalid:\n{rep}")
    return out


class Cointegral:
    """An A-bilinear delta: C (x)_A C -> A witnessing coseparability."""

    def __init__(self, coring: Coring, delta: Matrix):
        self.coring = coring
        self.delta = delta  # (dim A) x (dim of the square quotient)

    def validate(self) -> Report:
        rb = ReportBuilder("cointegral")
        C = self.coring
        A, f = C.base, C.field
        sq = C.square
        d = self.delta
        ok = all(d @ sq.module.left_action[a] == A.basis_left_mult(a) @ d for a in range(A.dim))
        rb.add("left-linear", ok)
        ok = all(d @ sq.module.right_action[a] == A.basis_right_mult(a) @ d for a in range(A.dim))
        rb.add("right-linear", ok)
        rb.add("splits-comultiplication", d @ C.delta == C.epsilon)
        # C (x)_A delta and delta (x)_A C, from delta on [c' (x) c''] = d @ P2;
        # an unbalanced pair is still compared on section representatives
        cube = C.cube
        dP2 = d @ sq.project
        ambient = (C.bimodule.right_contraction(dP2), C.bimodule.left_contraction(dP2))
        try:
            lhs, rhs = [cube.descend(amb) for amb in ambient]
            rb.add("contraction-balanced", True)
        except BalancednessError:
            rb.add("contraction-balanced", False)
            lhs, rhs = [amb @ cube.section for amb in ambient]
        dl = sq.induce(C.delta_ambient.kron(Matrix.eye(f, C.dim)), cube)
        dr = sq.induce(Matrix.eye(f, C.dim).kron(C.delta_ambient), cube)
        rb.add("mixed-coassociativity", lhs @ dl == rhs @ dr)
        return rb.build()


def find_cointegral(C: Coring) -> Optional[Cointegral]:
    """Solve the (linear) cointegral equations; None when no solution exists.

    Any returned cointegral re-validates exactly (see Cointegral.validate).
    """
    A, f = C.base, C.field
    sq = C.square
    q2, d, dA = sq.dim, C.dim, A.dim
    if dA * q2 == 0:
        return None
    # delta o Delta = epsilon, then bilinearity: delta @ act == mult @ delta
    rows = [sandwich_rows(Matrix.eye(f, dA), C.delta)]
    rows += [commute_rows(sq.module.left_action[a], A.basis_left_mult(a)) for a in range(dA)]
    rows += [commute_rows(sq.module.right_action[a], A.basis_right_mult(a)) for a in range(dA)]
    # mixed coassociativity, evaluated on section representatives; this is
    # equivalent to the real condition once bilinearity (imposed above)
    # makes the contraction maps balanced
    cube = C.cube
    I = Matrix.eye(f, d)
    dl = sq.induce_or_none(C.delta_ambient.kron(I), cube)
    dr = sq.induce_or_none(I.kron(C.delta_ambient), cube)
    if dl is None or dr is None:
        return None
    # P2 contracted once with the representatives: Zl[c] = (C (x) <P2 row c>)
    # of (Delta (x) C) Delta and Zr[c] = (<P2 row c> (x) C) of (C (x) Delta)
    # Delta, each d x q2, laid out side by side as d x (q2 * q2)
    repr_l = (cube.section @ dl).a.reshape(d, d * d, q2).transpose(1, 0, 2)
    repr_r = (cube.section @ dr).a
    P2 = sq.project
    Zl, Zr = (_side_by_side(P2 @ Matrix._raw(f, rep.reshape(d * d, d * q2)), d, q2)
              for rep in (repr_l, repr_r))
    # the column of unknown (r, c) is vec(R_r Zl[c] - L_r Zr[c])
    mixed = np.concatenate([
        _side_by_side(C.bimodule.right_action[r] @ Zl - C.bimodule.left_action[r] @ Zr, q2, q2).a
        for r in range(dA)]).T
    rows.append(Matrix._raw(f, mixed[np.any(mixed != f.scalar(0), axis=1)]))
    system = Matrix.vstack(rows)
    rhs = f.zeros((system.nrows,))
    rhs[: dA * d] = C.epsilon.a.reshape(-1)
    sol = system.solve(rhs)
    if sol is None:
        return None
    out = Cointegral(C, Matrix(f, sol.reshape(dA, q2)))
    rep = out.validate()
    if not rep.ok:
        raise AssertionError(f"cointegral solution failed re-validation:\n{rep}")
    return out


def _side_by_side(Z: Matrix, n: int, m: int) -> Matrix:
    """The rows of Z, each read as a row-major n x m block, placed side by
    side: an n x (rows * m) matrix."""
    return Matrix._raw(Z.field, Z.a.reshape(Z.nrows, n, m).transpose(1, 0, 2).reshape(n, -1))
