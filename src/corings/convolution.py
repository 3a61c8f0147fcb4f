"""Convolution dual algebras of a coring and transport of comodules to
modules over the dual.

The right dual C* consists of the right-A-linear maps C -> A under

    (f * g)(c) = sum f(g(c_1) . c_2),        unit eps,

the convention forced by requiring that q * p = eps expands to
q(p(a (x) x)(1_A (x) x)) = eps(a (x) x) on the graded corings (a regression
test pins that display).  The left dual *C consists of the left-A-linear
maps under (f * g)(c) = sum f(c_1 . g(c_2)); its opposite ring R is what
comodule transport targets: a right C-comodule becomes a right R-module by
m.f = sum m_0 . f(m_1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import Algebra, Bimodule, is_projective_left, scalar_algebra
from .comodule import Comodule
from .coring import Coring
from .fields import Matrix, commute_rows, stack_vecs, unstack
from .report import InvalidStructureError, Report, ReportBuilder

RIGHT = "right-dual"
LEFT = "left-dual"


@dataclass
class DualElement:
    """A one-sided A-linear map C -> A, as a (dim A x dim C) matrix."""

    coring: Coring
    side: str
    values: Matrix

    def __post_init__(self):
        if self.side not in (RIGHT, LEFT):
            raise ValueError(f"side must be {RIGHT} or {LEFT}")
        if self.values.shape != (self.coring.base.dim, self.coring.dim):
            raise ValueError("dual element must map C -> A")

    def __call__(self, c) -> np.ndarray:
        return self.values @ c

    def validate(self) -> Report:
        rb = ReportBuilder(f"dual element ({self.side})")
        C, A = self.coring, self.coring.base
        acts, mult = ((C.bimodule.right_action, A.basis_right_mult) if self.side == RIGHT
                      else (C.bimodule.left_action, A.basis_left_mult))
        rb.add_all("one-sided-linearity", (
            (f"a-basis {A.name_of(a)}", self.values @ acts[a] == mult(a) @ self.values)
            for a in range(A.dim)))
        return rb.build()

    def __eq__(self, other):
        if not isinstance(other, DualElement):
            return NotImplemented
        return self.coring is other.coring and self.side == other.side \
            and self.values == other.values


def counit_element(C: Coring, side: str = RIGHT) -> DualElement:
    """eps as a dual element; the convolution unit on both sides."""
    return DualElement(C, side, C.epsilon)


def _convolve_right(C: Coring, f: Matrix, g: Matrix) -> Matrix:
    """(f * g)(c) = sum f(g(c_1) . c_2)."""
    return f @ (C.bimodule.left_contraction(g) @ C.delta_ambient)


def _convolve_left(C: Coring, f: Matrix, g: Matrix) -> Matrix:
    """(f * g)(c) = sum f(c_1 . g(c_2))."""
    return f @ (C.bimodule.right_contraction(g) @ C.delta_ambient)


class DualAlgebra:
    """One of the convolution duals as a concrete structure-constant algebra.

    ``basis`` holds the hom-space basis as value matrices; ``algebra`` is
    the induced algebra on coordinates with unit eps.
    """

    def __init__(self, coring: Coring, side: str):
        self.coring = coring
        self.side = side
        k = coring.field
        A = coring.base
        dA, dC = A.dim, coring.dim
        acts, mults = ((coring.bimodule.right_action, A.basis_right_mult) if side == RIGHT
                       else (coring.bimodule.left_action, A.basis_left_mult))
        rows = [commute_rows(acts[a], mults(a)) for a in range(dA)]
        null = Matrix.vstack(rows).nullspace() if rows else Matrix.eye(k, dA * dC)
        self.basis = unstack(null, (dA, dC))
        self.dim = len(self.basis)
        self._hom = null  # (dA*dC) x dim, columns = vec(basis)
        conv = _convolve_right if side == RIGHT else _convolve_left
        d = self.dim
        mult = k.zeros((d, d, d))
        if d:
            prods = [conv(coring, X, Y) for X in self.basis for Y in self.basis]
            coords = self._hom.solve_matrix(stack_vecs(prods))
            if coords is None:
                raise InvalidStructureError(
                    "convolution left the dual hom space; invalid coring input")
            # column i*d + j of coords is e_i e_j
            mult = coords.a.T.reshape(d, d, d)
        unit = self._hom.solve(coring.epsilon.a.reshape(-1))
        if unit is None:
            raise InvalidStructureError("counit is not one-sided linear; invalid coring input")
        self.algebra = Algebra(k, mult, unit)

    def coords(self, values: Matrix) -> Optional[np.ndarray]:
        return self._hom.solve(values.a.reshape(-1))

    def coords_of_columns(self, vecs: Matrix) -> Optional[Matrix]:
        """Coordinates of the elements vec(values) in the columns of vecs."""
        return self._hom.solve_matrix(vecs)

    def element(self, coords) -> DualElement:
        vec = self._hom @ coords
        return DualElement(self.coring, self.side,
                           Matrix(self.coring.field, vec.reshape(self.coring.base.dim,
                                                                 self.coring.dim)))

    def convolve(self, f: Matrix, g: Matrix) -> Matrix:
        conv = _convolve_right if self.side == RIGHT else _convolve_left
        return conv(self.coring, f, g)

    @property
    def opposite(self) -> Algebra:
        return self.algebra.opposite()


def right_dual_algebra(C: Coring) -> DualAlgebra:
    """C* with (f * g)(c) = sum f(g(c_1) c_2); memoized per coring."""
    if "right_dual" not in C._cache:
        C._cache["right_dual"] = DualAlgebra(C, RIGHT)
    return C._cache["right_dual"]


def left_dual_algebra(C: Coring) -> DualAlgebra:
    """*C with (f * g)(c) = sum f(c_1 g(c_2)); memoized per coring.

    The opposite ring R = (*C)^op is reachable as ``.opposite``."""
    if "left_dual" not in C._cache:
        C._cache["left_dual"] = DualAlgebra(C, LEFT)
    return C._cache["left_dual"]


def dual_algebra(C: Coring, side: str) -> DualAlgebra:
    return right_dual_algebra(C) if side == RIGHT else left_dual_algebra(C)


def convolution_inverse(p: DualElement) -> Optional[DualElement]:
    """The two-sided convolution inverse of p, or None.

    Solves q * p = eps and p * q = eps simultaneously (both linear in q)
    and re-verifies both identities exactly on any solution."""
    dual = dual_algebra(p.coring, p.side)
    x = dual.coords(p.values)
    if x is None:
        raise InvalidStructureError("element is not one-sided A-linear")
    y = dual.algebra.element_inverse(x)
    return None if y is None else dual.element(y)


def is_convolution_invertible(p: DualElement) -> bool:
    return convolution_inverse(p) is not None


@dataclass
class DualModuleTransport:
    """A right C-comodule as a right module over R = (*C)^op."""

    comodule: Comodule
    ring: Algebra                   # R
    module: Bimodule                # right R-module on the same carrier
    dual: DualAlgebra               # *C, whose basis indexes R's basis


def comodule_to_dual_module(M: Comodule) -> DualModuleTransport:
    """Transport m . f = sum m_0 . f(m_1); requires C to be left projective
    over the base, and re-verifies the module axioms."""
    C = M.coring
    if not is_projective_left(C.bimodule):
        raise InvalidStructureError("the coring is not left projective over its base")
    dual = left_dual_algebra(C)
    k = C.field
    dM = M.dim
    rho_amb = M.rho_ambient()
    acts = [M.module.right_contraction(h) @ rho_amb for h in dual.basis]
    R = dual.opposite
    module = Bimodule(scalar_algebra(k), R, dM,
                      [Matrix.eye(k, dM)], acts)
    rep = module.validate()
    if not rep.ok:
        raise AssertionError(f"dual-module transport failed module axioms:\n{rep}")
    return DualModuleTransport(M, R, module, dual)
