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

from .algebra import Bimodule
from .coring import Coring, CoringMorphism
from .fields import Matrix, combine, commute_rows, stack_vecs, unstack
from .report import (BalancednessError, InvalidStructureError, KernelInvarianceError,
                     Report, ReportBuilder)
from .tensor import TensorQuotient, tensor_chain, tensor_over
from .unitsearch import CERTIFIED_NONE, UNDECIDED, WITNESS, invertible_in_span


class Comodule:
    """Right C-comodule: module with coaction rho: M -> M (x)_A C, into
    ``mc``, the quotient that M keeps (:func:`tensor_over`)."""

    def __init__(self, coring: Coring, module: Bimodule, rho: Matrix):
        if module.right_algebra is not coring.base:
            raise ValueError("module must be a right module over the coring base")
        self.coring = coring
        self.module = module
        self.field = coring.field
        self.mc = tensor_over(module, coring.bimodule)
        if rho.shape != (self.mc.dim, module.dim):
            raise ValueError(f"coaction must map M -> M(x)_AC coordinates, got {rho.shape}")
        self.rho = rho

    @property
    def dim(self) -> int:
        return self.module.dim

    def rho_ambient(self) -> Matrix:
        return self.mc.section @ self.rho


class LeftComodule:
    """Left C'-comodule: module with coaction lam: M -> C' (x)_{A'} M, into
    ``cm``, the quotient that the carrier of C' keeps (:func:`tensor_over`)."""

    def __init__(self, coring: Coring, module: Bimodule, lam: Matrix):
        if module.left_algebra is not coring.base:
            raise ValueError("module must be a left module over the coring base")
        self.coring = coring
        self.module = module
        self.field = coring.field
        self.cm = tensor_over(coring.bimodule, module)
        if lam.shape != (self.cm.dim, module.dim):
            raise ValueError(f"coaction must map M -> C(x)M coordinates, got {lam.shape}")
        self.lam = lam

    @property
    def dim(self) -> int:
        return self.module.dim

    def lam_ambient(self) -> Matrix:
        return self.cm.section @ self.lam


def check_comodule(M: Comodule) -> Report:
    """Carrier, linearity of the coaction, coassociativity, counit law."""
    rb = ReportBuilder("right comodule")
    rb.merge(M.module.validate(), prefix="carrier-")
    C = M.coring
    f = M.field
    mod, image = M.module, M.mc.module
    for name, letter, alg, acts, images in (
            ("coaction-right-linear", "a", C.base, mod.right_action, image.right_action),
            ("coaction-left-linear", "b", mod.left_algebra, mod.left_action, image.left_action)):
        rb.add_all(name, ((f"{letter}-basis {alg.name_of(a)}", M.rho @ acts[a] == images[a] @ M.rho)
                          for a in range(alg.dim)))
    Im = Matrix.eye(f, M.dim)
    mcc = tensor_chain([M.module, C.bimodule, C.bimodule])
    try:
        rho_c = M.mc.descend(mcc.project_kron_eye(M.rho))
        m_delta = M.mc.descend(mcc.project_eye_kron(C.delta_ambient))
        rb.add("coassociativity", rho_c @ M.rho == m_delta @ M.rho)
    except BalancednessError:
        rb.add("coassociativity", False, "ambient coaction is unbalanced")
    try:
        rb.add("counit", M.mc.descend(M.module.right_contraction(C.epsilon)) @ M.rho == Im)
    except BalancednessError:
        rb.add("counit", False, "counit contraction is unbalanced")
    return rb.build()


def check_left_comodule(M: LeftComodule) -> Report:
    rb = ReportBuilder("left comodule")
    rb.merge(M.module.validate(), prefix="carrier-")
    C = M.coring
    f = M.field
    mod, image = M.module, M.cm.module
    for name, letter, alg, acts, images in (
            ("coaction-left-linear", "a", C.base, mod.left_action, image.left_action),
            ("coaction-right-linear", "b", mod.right_algebra, mod.right_action,
             image.right_action)):
        rb.add_all(name, ((f"{letter}-basis {alg.name_of(a)}", M.lam @ acts[a] == images[a] @ M.lam)
                          for a in range(alg.dim)))
    Im = Matrix.eye(f, M.dim)
    ccm = tensor_chain([C.bimodule, C.bimodule, M.module])
    try:
        c_lam = M.cm.descend(ccm.project_eye_kron(M.lam_ambient()))
        delta_m = M.cm.descend(ccm.project_kron_eye(C.delta))
        rb.add("coassociativity", c_lam @ M.lam == delta_m @ M.lam)
    except BalancednessError:
        rb.add("coassociativity", False, "ambient coaction is unbalanced")
    try:
        rb.add("counit", M.cm.descend(M.module.left_contraction(C.epsilon)) @ M.lam == Im)
    except BalancednessError:
        rb.add("counit", False, "counit contraction is unbalanced")
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
    chain = tensor_chain([Cp.bimodule, M.module, C.bimodule])
    try:
        lam_c = M.as_right.mc.descend(chain.project_kron_eye(M.lam))
        cp_rho = M.as_left.cm.descend(chain.project_eye_kron(M.as_right.rho_ambient()))
        rb.add("coactions-commute", lam_c @ M.rho == cp_rho @ M.lam)
    except BalancednessError:
        rb.add("coactions-commute", False, "ambient coaction is unbalanced")
    return rb.build()


# -- linear conditions on an unknown matrix F (row-major vec) --------------

def _colinear_rows(coaction: Matrix, P: Matrix, W: Matrix, nm: int) -> Matrix:
    """coaction @ F == P_N @ (F kron I) @ W_M  as rows over vec(F), F: M -> N.

    W_M is the ambient-valued coaction of M and P_N projects N's ambient
    onto the quotient coordinates of ``coaction``.  The caller lays both out
    around the coring factor j: P with rows (r, t) and columns j, W with
    rows j and columns (i, c), for t and i the N and M factors.  Row (r, c)
    and column (t, i) of the right-hand side is then entry ((r, t), (i, c))
    of P @ W."""
    qn, nn = coaction.shape
    mixed = (P @ W).rearranged(
        lambda x: x.reshape(qn, nn, nm, nm).transpose(0, 3, 1, 2).reshape(qn * nm, nn * nm))
    return coaction.kron(Matrix.eye(coaction.field, nm)) - mixed


def _right_rows(M: Comodule, N: Comodule) -> list[Matrix]:
    """Rows over vec(F) of the right-A-linear right-colinear F: M -> N."""
    C, nm = M.coring, M.dim
    rows = [commute_rows(M.module.right_action[a], N.module.right_action[a])
            for a in range(C.base.dim)]
    rows.append(_colinear_rows(
        N.rho, N.mc.project.rearranged(lambda x: x.reshape(-1, C.dim)),
        M.rho_ambient().rearranged(
            lambda x: x.reshape(nm, C.dim, nm).transpose(1, 0, 2).reshape(C.dim, nm * nm)),
        nm))
    return rows


def _left_rows(M: LeftComodule, N: LeftComodule) -> list[Matrix]:
    """Rows over vec(F) of the left-A'-linear left-colinear F: M -> N."""
    Cp, nm, nn = M.coring, M.dim, N.dim
    rows = [commute_rows(M.module.left_action[b], N.module.left_action[b])
            for b in range(Cp.base.dim)]
    rows.append(_colinear_rows(
        N.lam, N.cm.project.rearranged(
            lambda x: x.reshape(-1, Cp.dim, nn).transpose(0, 2, 1).reshape(-1, Cp.dim)),
        M.lam_ambient().rearranged(lambda x: x.reshape(Cp.dim, nm * nm)),
        nm))
    return rows


def _maps_solving(rows: list[Matrix], M, N) -> list[Matrix]:
    """A basis of the maps F: M -> N whose vec(F) the rows annihilate."""
    return unstack(Matrix.vstack(rows).nullspace(), (N.dim, M.dim))


def comodule_hom_space(M: Comodule, N: Comodule) -> list[Matrix]:
    """Basis of Hom^C(M, N): right-A-linear colinear maps."""
    if M.coring is not N.coring:
        raise ValueError("hom space needs a common coring")
    return _maps_solving(_right_rows(M, N), M, N)


def bicomodule_hom_space(M: Bicomodule, N: Bicomodule) -> list[Matrix]:
    """Basis of the bicomodule morphisms: bilinear and colinear on both sides."""
    if M.left_coring is not N.left_coring or M.right_coring is not N.right_coring:
        raise ValueError("hom space needs a common coring pair")
    rows = _right_rows(M.as_right, N.as_right) + _left_rows(M.as_left, N.as_left)
    return _maps_solving(rows, M, N)


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
    mn = tensor_over(M.module, N.module)
    mcn = tensor_chain([M.module, C.bimodule, N.module])
    rho_side = mn.descend(mcn.project_kron_eye(M.rho))
    lam_side = mn.descend(mcn.project_eye_kron(N.as_left.lam_ambient()))
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
    lam_big = mn.descend(chain_l.project_kron_eye(M.lam))
    t_ck = tensor_over(Cp.bimodule, kmod)
    incl_l = t_ck.descend(chain_l.project_eye_kron(mn.apply_section(kernel)))
    lam_k = incl_l.solve_matrix(lam_big @ kernel)
    if lam_k is None:
        raise KernelInvarianceError("left coaction does not restrict to the cotensor kernel")
    # right coaction: restrict M (x) rho_N along kernel (x) C'' -> M N C''
    chain_r = tensor_chain([M.module, N.module, Cpp.bimodule])
    rho_big = mn.descend(chain_r.project_eye_kron(N.as_right.rho_ambient()))
    t_kc = tensor_over(kmod, Cpp.bimodule)
    incl_r = t_kc.descend(chain_r.project_kron_eye(kernel))
    rho_k = incl_r.solve_matrix(rho_big @ kernel)
    if rho_k is None:
        raise KernelInvarianceError("right coaction does not restrict to the cotensor kernel")

    induced = Bicomodule(Cp, Cpp, kmod, lam_k, rho_k)
    return CotensorResult(M, N, mn, omega, kernel, induced)


def cotensor_unit_left(N: Bicomodule) -> tuple[CotensorResult, Matrix]:
    """C box_C N together with the counit-law isomorphism onto N."""
    C = N.left_coring
    ct = cotensor(regular_bicomodule(C), N)
    iso = (N.module.left_contraction(C.epsilon) @ ct.tensor.section) @ ct.kernel
    if not iso.is_invertible():
        raise AssertionError("counit law failed to produce an isomorphism")
    return ct, iso


def cotensor_unit_right(M: Bicomodule) -> tuple[CotensorResult, Matrix]:
    """M box_C C together with the counit-law isomorphism onto M."""
    C = M.right_coring
    ct = cotensor(M, regular_bicomodule(C))
    iso = (M.module.right_contraction(C.epsilon) @ ct.tensor.section) @ ct.kernel
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
        hm = combine(stack_vecs(homs), res.witness, (N.dim, M.dim))
        inv = hm.inverse()
        if inv is None:
            raise AssertionError("iso-search witness failed exact inversion")
        return IsoSearchResult(ISOMORPHIC, isomorphism=hm)
    if res.status == CERTIFIED_NONE:
        return IsoSearchResult(NOT_ISOMORPHIC, certainty=res.certainty)
    return IsoSearchResult(UNDECIDED)


def twisted_bicomodule(f: CoringMorphism) -> Bicomodule:
    """The (D, C)-bicomodule carried by C itself, twisted along an
    isomorphism f = (phi, rho): C -> D, and validated.

    Left B-action b.c = rho^{-1}(b).c, right A-action and right coaction are
    the regular ones, and the left D-coaction sends c to phi(c_1) (x) c_2.
    When rho is the identity of one base, the carrier is C's own bimodule,
    so every quotient read here and in the checks is a power of it.
    """
    if not f.is_isomorphism():
        raise InvalidStructureError("twisting requires an isomorphism of corings")
    C, D = f.source, f.target
    k = C.field
    if D.base is C.base and f.rho.matrix == Matrix.eye(k, C.base.dim):
        module = C.bimodule
    else:
        rho_inv = f.rho.inverse().matrix
        lact = unstack(C.bimodule.left_stack @ rho_inv, (C.dim, C.dim))
        module = Bimodule(D.base, C.base, C.dim, lact, list(C.bimodule.right_action))
    rho = tensor_over(module, C.bimodule).project @ C.delta_ambient
    lam = tensor_over(D.bimodule, module).project @ (
        f.phi.kron(Matrix.eye(k, C.dim)) @ C.delta_ambient)
    out = Bicomodule(D, C, module, lam, rho)
    rep = check_bicomodule(out)
    if not rep.ok:
        raise InvalidStructureError("twisted bicomodule failed validation", rep)
    return out
