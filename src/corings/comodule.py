"""Comodules, bicomodules, their morphism spaces, cotensor products as
kernels, and the twisted bicomodule attached to a coring isomorphism.

A right comodule is a right module with a coaction into the quotient
M (x)_A C; a bicomodule carries commuting coactions on both sides.  The
cotensor product M box_C N is the kernel of

    omega = (rho_M (x)_A N) - (M (x)_A lambda_N)

computed inside the quotient M (x)_A N, with the induced coactions verified
to restrict to the kernel.  Over a field base the restriction can only fail
on broken inputs; failure raises KernelInvarianceError.

Morphism spaces are cut out by linear conditions on the unknown matrix F,
assembled on row-major vec(F) (see :func:`corings.fields.commute_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import Bimodule
from .coring import Coring, CoringMorphism
from .fields import Matrix, commute_rows
from .report import (BalancednessError, InvalidStructureError, KernelInvarianceError,
                     Report, ReportBuilder)
from .tensor import TensorQuotient, tensor_chain, tensor_over
from .unitsearch import CERTIFIED_NONE, UNDECIDED, WITNESS, invertible_in_span


class Comodule:
    """Right C-comodule: module with coaction rho: M -> M (x)_A C."""

    def __init__(self, coring: Coring, module: Bimodule, rho: Matrix,
                 mc: Optional[TensorQuotient] = None):
        if module.right_algebra is not coring.base:
            raise ValueError("module must be a right module over the coring base")
        self.coring = coring
        self.module = module
        self.field = coring.field
        self.mc = mc if mc is not None else tensor_over(module, coring.bimodule)
        if rho.shape != (self.mc.dim, module.dim):
            raise ValueError(f"coaction must map M -> M(x)_AC coordinates, got {rho.shape}")
        self.rho = rho
        self._mcc: Optional[TensorQuotient] = None

    @property
    def dim(self) -> int:
        return self.module.dim

    @property
    def mcc(self) -> TensorQuotient:
        if self._mcc is None:
            self._mcc = tensor_chain([self.module, self.coring.bimodule, self.coring.bimodule])
        return self._mcc

    def rho_ambient(self) -> Matrix:
        return self.mc.section @ self.rho


class LeftComodule:
    """Left C'-comodule: module with coaction lam: M -> C' (x)_{A'} M."""

    def __init__(self, coring: Coring, module: Bimodule, lam: Matrix,
                 cm: Optional[TensorQuotient] = None):
        if module.left_algebra is not coring.base:
            raise ValueError("module must be a left module over the coring base")
        self.coring = coring
        self.module = module
        self.field = coring.field
        self.cm = cm if cm is not None else tensor_over(coring.bimodule, module)
        if lam.shape != (self.cm.dim, module.dim):
            raise ValueError(f"coaction must map M -> C(x)M coordinates, got {lam.shape}")
        self.lam = lam
        self._ccm: Optional[TensorQuotient] = None

    @property
    def dim(self) -> int:
        return self.module.dim

    @property
    def ccm(self) -> TensorQuotient:
        if self._ccm is None:
            self._ccm = tensor_chain([self.coring.bimodule, self.coring.bimodule, self.module])
        return self._ccm

    def lam_ambient(self) -> Matrix:
        return self.cm.section @ self.lam


def check_comodule(M: Comodule) -> Report:
    """Carrier, linearity of the coaction, coassociativity, counit law."""
    rb = ReportBuilder("right comodule")
    rb.merge(M.module.validate(), prefix="carrier-")
    C = M.coring
    A, f = C.base, M.field
    ok, where = True, None
    for a in range(A.dim):
        if M.rho @ M.module.right_action[a] != M.mc.module.right_action[a] @ M.rho:
            ok, where = False, f"a-basis {A.name_of(a)}"
            break
    rb.add("coaction-right-linear", ok, where)
    B = M.module.left_algebra
    ok, where = True, None
    for b in range(B.dim):
        if M.rho @ M.module.left_action[b] != M.mc.module.left_action[b] @ M.rho:
            ok, where = False, f"b-basis {B.name_of(b)}"
            break
    rb.add("coaction-left-linear", ok, where)
    Im = Matrix.eye(f, M.dim)
    Ic = Matrix.eye(f, C.dim)
    try:
        rho_c = M.mc.induce(M.rho_ambient().kron(Ic), M.mcc)
        m_delta = M.mc.induce(Im.kron(C.delta_ambient), M.mcc)
        rb.add("coassociativity", rho_c @ M.rho == m_delta @ M.rho)
    except BalancednessError:
        rb.add("coassociativity", False, "ambient coaction is unbalanced")
    eamb = f.zeros((M.dim, M.dim * C.dim))
    for a in range(A.dim):
        eamb = eamb + np.kron(M.module.right_action[a].a, C.epsilon.a[a : a + 1, :])
    eam = Matrix(f, eamb)
    if M.mc.relations.nrows and not (eam @ M.mc.relations.T).is_zero():
        rb.add("counit", False, "counit contraction is unbalanced")
    else:
        rb.add("counit", (eam @ M.mc.section) @ M.rho == Im)
    return rb.build()


def check_left_comodule(M: LeftComodule) -> Report:
    rb = ReportBuilder("left comodule")
    rb.merge(M.module.validate(), prefix="carrier-")
    C = M.coring
    A, f = C.base, M.field
    ok, where = True, None
    for a in range(A.dim):
        if M.lam @ M.module.left_action[a] != M.cm.module.left_action[a] @ M.lam:
            ok, where = False, f"a-basis {A.name_of(a)}"
            break
    rb.add("coaction-left-linear", ok, where)
    B = M.module.right_algebra
    ok, where = True, None
    for b in range(B.dim):
        if M.lam @ M.module.right_action[b] != M.cm.module.right_action[b] @ M.lam:
            ok, where = False, f"b-basis {B.name_of(b)}"
            break
    rb.add("coaction-right-linear", ok, where)
    Im = Matrix.eye(f, M.dim)
    try:
        c_lam = M.cm.induce(Matrix.eye(f, C.dim).kron(M.lam_ambient()), M.ccm)
        delta_m = M.cm.induce(C.delta_ambient.kron(Im), M.ccm)
        rb.add("coassociativity", c_lam @ M.lam == delta_m @ M.lam)
    except BalancednessError:
        rb.add("coassociativity", False, "ambient coaction is unbalanced")
    eamb = f.zeros((M.dim, C.dim * M.dim))
    for a in range(A.dim):
        eamb = eamb + np.kron(C.epsilon.a[a : a + 1, :], M.module.left_action[a].a)
    eam = Matrix(f, eamb)
    if M.cm.relations.nrows and not (eam @ M.cm.relations.T).is_zero():
        rb.add("counit", False, "counit contraction is unbalanced")
    else:
        rb.add("counit", (eam @ M.cm.section) @ M.lam == Im)
    return rb.build()


class Bicomodule:
    """A C'-C-bicomodule: commuting left C'- and right C-coactions."""

    def __init__(self, left_coring: Coring, right_coring: Coring, module: Bimodule,
                 lam: Matrix, rho: Matrix):
        self.left_coring = left_coring
        self.right_coring = right_coring
        self.module = module
        self.field = module.field
        self.as_left = LeftComodule(left_coring, module, lam)
        self.as_right = Comodule(right_coring, module, rho)
        self.lam = lam
        self.rho = rho

    @property
    def dim(self) -> int:
        return self.module.dim

    def __repr__(self) -> str:
        return (f"Bicomodule(dim={self.dim}, {self.left_coring.name} | "
                f"{self.right_coring.name})")


def regular_bicomodule(C: Coring) -> Bicomodule:
    """C as a (C, C)-bicomodule, both coactions the comultiplication."""
    return Bicomodule(C, C, C.bimodule, C.delta, C.delta)


def check_bicomodule(M: Bicomodule) -> Report:
    rb = ReportBuilder("bicomodule")
    rb.merge(check_left_comodule(M.as_left), prefix="left-")
    rb.merge(check_comodule(M.as_right), prefix="right-")
    Cp, C = M.left_coring, M.right_coring
    f = M.field
    chain = tensor_chain([Cp.bimodule, M.module, C.bimodule])
    try:
        lam_c = M.as_right.mc.induce(M.as_left.lam_ambient().kron(Matrix.eye(f, C.dim)), chain)
        cp_rho = M.as_left.cm.induce(Matrix.eye(f, Cp.dim).kron(M.as_right.rho_ambient()), chain)
        rb.add("coactions-commute", lam_c @ M.rho == cp_rho @ M.lam)
    except BalancednessError:
        rb.add("coactions-commute", False, "ambient coaction is unbalanced")
    return rb.build()


# -- linear conditions on an unknown matrix F (row-major vec) --------------

def _rows_right_colinear(f, P: Matrix, W: Matrix, rhoN: Matrix,
                         nn: int, nm: int, dc: int) -> np.ndarray:
    """rho_N @ F == P @ (F kron I_C) @ W  as rows over vec(F).

    W is the ambient-valued source coaction (nm*dc x nm); P projects the
    target ambient (nn*dc) onto quotient coordinates (qn)."""
    qn = P.nrows
    lhs = rhoN.kron(Matrix.eye(f, nm)).a  # (qn*nm) x (nn*nm)
    mat = f.zeros((qn * nm, nn * nm))
    V = W.a.reshape(nm, dc, nm).transpose(1, 0, 2).reshape(dc, nm * nm)
    for t in range(nn):
        Pt = P.a[:, t * dc : (t + 1) * dc]
        G = f.normalize(Pt @ V).reshape(qn, nm, nm)          # [r, i, c]
        mat[:, t * nm : (t + 1) * nm] = G.transpose(0, 2, 1).reshape(qn * nm, nm)
    return lhs - mat


def _rows_left_colinear(f, P: Matrix, W: Matrix, lamN: Matrix,
                        nn: int, nm: int, dc: int) -> np.ndarray:
    """lam_N @ F == P @ (I_C' kron F) @ W  as rows over vec(F).

    W is the ambient-valued source coaction (dc*nm x nm)."""
    qn = P.nrows
    lhs = lamN.kron(Matrix.eye(f, nm)).a
    mat = f.zeros((qn * nm, nn * nm))
    V = W.a.reshape(dc, nm * nm)                              # [j, (i, c)]
    for t in range(nn):
        Pt = P.a[:, [j * nn + t for j in range(dc)]]
        G = f.normalize(Pt @ V).reshape(qn, nm, nm)           # [r, i, c]
        mat[:, t * nm : (t + 1) * nm] = G.transpose(0, 2, 1).reshape(qn * nm, nm)
    return lhs - mat


def comodule_hom_space(M: Comodule, N: Comodule) -> list[Matrix]:
    """Basis of Hom^C(M, N): right-A-linear colinear maps."""
    if M.coring is not N.coring:
        raise ValueError("hom space needs a common coring")
    f = M.field
    C = M.coring
    nm, nn = M.dim, N.dim
    rows = [commute_rows(M.module.right_action[a], N.module.right_action[a]).a
            for a in range(C.base.dim)]
    rows.append(_rows_right_colinear(f, N.mc.project, M.rho_ambient(),
                                     N.rho, nn, nm, C.dim))
    basis = Matrix(f, np.vstack(rows)).nullspace()
    return [Matrix(f, basis.col(j).reshape(nn, nm)) for j in range(basis.ncols)]


def bicomodule_hom_space(M: Bicomodule, N: Bicomodule) -> list[Matrix]:
    """Basis of the bicomodule morphisms: bilinear and colinear on both sides."""
    if M.left_coring is not N.left_coring or M.right_coring is not N.right_coring:
        raise ValueError("hom space needs a common coring pair")
    f = M.field
    Cp, C = M.left_coring, M.right_coring
    nm, nn = M.dim, N.dim
    rows = [commute_rows(M.module.right_action[a], N.module.right_action[a]).a
            for a in range(C.base.dim)]
    rows += [commute_rows(M.module.left_action[b], N.module.left_action[b]).a
             for b in range(Cp.base.dim)]
    rows.append(_rows_right_colinear(f, N.as_right.mc.project, M.as_right.rho_ambient(),
                                     N.rho, nn, nm, C.dim))
    rows.append(_rows_left_colinear(f, N.as_left.cm.project, M.as_left.lam_ambient(),
                                    N.lam, nn, nm, Cp.dim))
    basis = Matrix(f, np.vstack(rows)).nullspace()
    return [Matrix(f, basis.col(j).reshape(nn, nm)) for j in range(basis.ncols)]


# -- cotensor products -------------------------------------------------------

@dataclass
class CotensorResult:
    left: Bicomodule
    right: Bicomodule
    tensor: TensorQuotient          # M (x)_A N
    omega: Matrix                   # the defining map on quotient coordinates
    kernel: Matrix                  # columns: basis of M box_C N inside the quotient
    bicomodule: Bicomodule          # induced structure on the kernel

    @property
    def dim(self) -> int:
        return self.kernel.ncols


def cotensor(M: Bicomodule, N: Bicomodule) -> CotensorResult:
    """M box_C N with its induced (C', C'')-bicomodule structure."""
    if M.right_coring is not N.left_coring:
        raise ValueError("middle corings must match")
    C = M.right_coring
    f = M.field
    mn = tensor_over(M.module, N.module)
    mcn = tensor_chain([M.module, C.bimodule, N.module])
    In = Matrix.eye(f, N.dim)
    Im = Matrix.eye(f, M.dim)
    rho_side = mn.induce(M.as_right.rho_ambient().kron(In), mcn)
    lam_side = mn.induce(Im.kron(N.as_left.lam_ambient()), mcn)
    omega = rho_side - lam_side
    kernel = omega.nullspace()
    kdim = kernel.ncols

    # the kernel is a sub-bimodule: restrict both actions
    lact, ract = [], []
    for b in range(M.module.left_algebra.dim):
        X = kernel.solve_matrix(mn.module.left_action[b] @ kernel)
        if X is None:
            raise KernelInvarianceError("left action does not preserve the cotensor kernel")
        lact.append(X)
    for a in range(N.module.right_algebra.dim):
        X = kernel.solve_matrix(mn.module.right_action[a] @ kernel)
        if X is None:
            raise KernelInvarianceError("right action does not preserve the cotensor kernel")
        ract.append(X)
    kmod = Bimodule(M.module.left_algebra, N.module.right_algebra, kdim, lact, ract)

    Cp, Cpp = M.left_coring, N.right_coring
    # left coaction: restrict lambda_M (x) N along C' (x) kernel -> C' M N
    chain_l = tensor_chain([Cp.bimodule, M.module, N.module])
    lam_big = mn.induce(M.as_left.lam_ambient().kron(In), chain_l)
    t_ck = tensor_over(Cp.bimodule, kmod)
    incl_l = t_ck.induce(Matrix.eye(f, Cp.dim).kron(mn.section @ kernel), chain_l)
    lam_k = incl_l.solve_matrix(lam_big @ kernel)
    if lam_k is None:
        raise KernelInvarianceError("left coaction does not restrict to the cotensor kernel")
    # right coaction: restrict M (x) rho_N along kernel (x) C'' -> M N C''
    chain_r = tensor_chain([M.module, N.module, Cpp.bimodule])
    rho_big = mn.induce(Im.kron(N.as_right.rho_ambient()), chain_r)
    t_kc = tensor_over(kmod, Cpp.bimodule)
    incl_r = t_kc.induce((mn.section @ kernel).kron(Matrix.eye(f, Cpp.dim)), chain_r)
    rho_k = incl_r.solve_matrix(rho_big @ kernel)
    if rho_k is None:
        raise KernelInvarianceError("right coaction does not restrict to the cotensor kernel")

    induced = Bicomodule(Cp, Cpp, kmod, lam_k, rho_k)
    return CotensorResult(M, N, mn, omega, kernel, induced)


def cotensor_unit_left(N: Bicomodule) -> tuple[CotensorResult, Matrix]:
    """C box_C N together with the counit-law isomorphism onto N."""
    C = N.left_coring
    f = N.field
    ct = cotensor(regular_bicomodule(C), N)
    eamb = f.zeros((N.dim, C.dim * N.dim))
    for a in range(C.base.dim):
        eamb = eamb + np.kron(C.epsilon.a[a : a + 1, :], N.module.left_action[a].a)
    iso = (Matrix(f, eamb) @ ct.tensor.section) @ ct.kernel
    if not iso.is_invertible():
        raise AssertionError("counit law failed to produce an isomorphism")
    return ct, iso


def cotensor_unit_right(M: Bicomodule) -> tuple[CotensorResult, Matrix]:
    """M box_C C together with the counit-law isomorphism onto M."""
    C = M.right_coring
    f = M.field
    ct = cotensor(M, regular_bicomodule(C))
    eamb = f.zeros((M.dim, M.dim * C.dim))
    for a in range(C.base.dim):
        eamb = eamb + np.kron(M.module.right_action[a].a, C.epsilon.a[a : a + 1, :])
    iso = (Matrix(f, eamb) @ ct.tensor.section) @ ct.kernel
    if not iso.is_invertible():
        raise AssertionError("counit law failed to produce an isomorphism")
    return ct, iso


# -- isomorphism search and twisting ----------------------------------------

ISOMORPHIC = "isomorphic"
NOT_ISOMORPHIC = "not-isomorphic"


@dataclass
class IsoSearchResult:
    status: str                     # "isomorphic" | "not-isomorphic" | "undecided"
    isomorphism: Optional[Matrix] = None
    certainty: str = "deterministic"


def bicomodule_iso_exists(M: Bicomodule, N: Bicomodule,
                          budget: int = 200_000, seed: int = 0) -> IsoSearchResult:
    """Search the bicomodule morphism space for an invertible element."""
    if M.left_coring is not N.left_coring or M.right_coring is not N.right_coring:
        raise ValueError("isomorphism search needs a common coring pair")
    if M.dim != N.dim:
        return IsoSearchResult(NOT_ISOMORPHIC)
    homs = bicomodule_hom_space(M, N)
    if not homs:
        return IsoSearchResult(NOT_ISOMORPHIC)
    res = invertible_in_span(homs, budget=budget, seed=seed)
    if res.status == WITNESS:
        f = M.field
        h = f.zeros((N.dim, M.dim))
        for c, H in zip(res.witness, homs):
            h = h + H.a * c
        hm = Matrix(f, h)
        inv = hm.inverse()
        if inv is None:
            raise AssertionError("iso-search witness failed exact inversion")
        return IsoSearchResult(ISOMORPHIC, isomorphism=hm)
    if res.status == CERTIFIED_NONE:
        return IsoSearchResult(NOT_ISOMORPHIC, certainty=res.certainty)
    return IsoSearchResult(UNDECIDED)


def twisted_bicomodule(f: CoringMorphism, validate: bool = True) -> Bicomodule:
    """The (D, C)-bicomodule carried by C itself, twisted along an
    isomorphism f = (phi, rho): C -> D.

    Left B-action b.c = rho^{-1}(b).c, right A-action and right coaction are
    the regular ones, and the left D-coaction sends c to phi(c_1) (x) c_2.
    """
    if not f.is_isomorphism():
        raise InvalidStructureError("twisting requires an isomorphism of corings")
    C, D = f.source, f.target
    k = C.field
    rho_inv = f.rho.inverse().matrix
    lact = [C.bimodule.left_act(rho_inv.col(b)) for b in range(D.base.dim)]
    module = Bimodule(D.base, C.base, C.dim, lact, list(C.bimodule.right_action))
    t_mc = tensor_over(module, C.bimodule)
    rho = t_mc.project @ C.delta_ambient
    t_dm = tensor_over(D.bimodule, module)
    lam = t_dm.project @ (f.phi.kron(Matrix.eye(k, C.dim)) @ C.delta_ambient)
    out = Bicomodule(D, C, module, lam, rho)
    if validate:
        rep = check_bicomodule(out)
        if not rep.ok:
            raise InvalidStructureError("twisted bicomodule failed validation", rep)
    return out
