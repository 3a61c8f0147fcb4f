"""Tensor products over a (noncommutative) base algebra as explicit quotients.

``M (x)_A N`` is realised as the quotient of the k-tensor product by the
balancing subspace span{(m.a)(x)n - m(x)(a.n)}.  A quotient carries a
``project`` matrix (ambient -> quotient) and a ``section`` (quotient ->
ambient, a right inverse of project) built from the reduced row echelon
form of the relation matrix: sections are coordinate embeddings on the
non-pivot columns, so bases are deterministic.  A map on the ambient
space passes to the quotient through :meth:`TensorQuotient.descend`, which
first checks that it kills every balancing relation.

Chains of three or more factors are bracketed to the left, one pair at a
time on the (previous quotient) x (next factor) ambient; see
:class:`TensorQuotient`.

Every product is kept by its left operand, weakly keyed by its right
factor: ``tensor_over(M, N)`` in ``M.products[N]``, a chain in the
``products`` of its cached head chain.  An entry dies with its right
factor, and a product that a caller built is the one its callees read.
"""

from __future__ import annotations

from typing import Optional, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from .algebra import Bimodule
from .fields import Matrix, basis_vector
from .report import BalancednessError


class TensorQuotient:
    """Quotient of M_1 (x)_k ... (x)_k M_r by adjacent balancing relations.

    Three or more factors are bracketed to the left: ``head =
    tensor_chain(factors[:-1])`` (a cube's head is the cached square), then
    only the relations of ``(head.module, factors[-1])`` are eliminated, on the ``head.dim *
    d_last`` ambient, giving ``project = P_last @ (P_head (x) I)`` and
    ``section = (S_head (x) I) @ S_last`` (no products when the head has no
    relations, as over a base field k).  When the middle factors' actions
    commute, as a bimodule's do, these are byte for byte the matrices of
    eliminating every adjacent relation on the full ambient at once: both
    have the whole balancing subspace as kernel, are the identity on their
    free columns, and have the same free columns.  A relation leading at
    (i, j), i a free head column, keeps that leading index while the rows
    (reduced echelon row of the head) (x) e_j' clear its pivot head columns:
    each is zero before its pivot, which lies after (i, j).  What is left is
    ``(S_head (x) I) w``, w a relation of the last step leading at the
    matching column; and every such lift is a relation.

    The chart is one fixed choice, the free columns of the relations' reduced
    echelon form in ambient column order; induced maps do not depend on it.

    A quotient keeps of its factors only what :attr:`module` reads: the
    outer algebras, their action lists and the factor dimensions.  Keeping
    the factors would keep alive the right factor that weakly keys a
    product and make it point back at its owner (M -> M.products -> product
    -> M), a reference cycle that only the garbage collector frees.

    Attributes:
        ambient_dim: product of factor dimensions.
        dim: dimension of the quotient.
        project: (dim x ambient_dim) quotient map.
        section: (ambient_dim x dim) right inverse of project.
        relations: rows spanning the relations of the last pair eliminated
            (for a chain, on the ambient of its last step).
        module: the induced (leftmost, rightmost) bimodule on the quotient.
        products: the chains ``self (x) N``, weakly keyed by N.
    """

    def __init__(self, factors: Sequence[Bimodule]):
        if not factors:
            raise ValueError("need at least one factor")
        field = factors[0].field
        self.field = field
        for P, Q in zip(factors, factors[1:]):
            if P.right_algebra is not Q.left_algebra:
                raise ValueError("inner algebras of adjacent factors must match")
        self.ambient_dim = n = int(np.prod([m.dim for m in factors]))
        self._module: Optional[Bimodule] = None
        self.products: WeakKeyDictionary = WeakKeyDictionary()

        if len(factors) > 2:
            head = tensor_chain(factors[:-1])
            last = tensor_over(head.module, factors[-1])
            self.relations, self.dim = last.relations, last.dim
            self.project, self.section = last.project, last.section
            if head.dim < head.ambient_dim:
                I = Matrix.eye(field, factors[-1].dim)
                self.project = last.project @ head.project.kron(I)
                self.section = head.section.kron(I) @ last.section
            self._last = last
            return
        self._last = None
        first, end = factors[0], factors[-1]
        self._outer = (first.left_algebra, first.left_action,
                       end.right_algebra, end.right_action, [m.dim for m in factors])

        rel_blocks = []
        for M, N in zip(factors, factors[1:]):
            for a in range(M.right_algebra.dim):
                rel = (M.right_action[a].T.kron(Matrix.eye(field, N.dim))
                       - Matrix.eye(field, M.dim).kron(N.left_action[a].T))
                keep = rel.support().any(axis=1)
                if keep.any():
                    rel_blocks.append(rel.rearranged(lambda x: x[keep]))
        self.relations = Matrix.vstack(rel_blocks) if rel_blocks else Matrix.zeros(field, 0, n)

        # the kernel basis, transposed, is the identity on the free columns
        # and minus the echelon rows' free entries on the pivot columns; the
        # section is the identity's free columns
        kernel, free = self.relations._kernel()
        self.dim = len(free)
        self.project = kernel.rearranged(lambda x: np.ascontiguousarray(x.T))
        self.section = Matrix.eye(field, n).rearranged(lambda x: x[:, free])

    @property
    def module(self) -> Bimodule:
        """The induced (leftmost, rightmost) bimodule on the quotient; a
        chain shares the module of its last step, which has the same basis."""
        if self._last is not None:
            return self._last.module
        if self._module is None:
            left_alg, left, right_alg, right, dims = self._outer
            Ir = Matrix.eye(self.field, int(np.prod(dims[1:])))
            Ih = Matrix.eye(self.field, int(np.prod(dims[:-1])))
            lact = [self.project @ L.kron(Ir) @ self.section for L in left]
            ract = [self.project @ Ih.kron(R) @ self.section for R in right]
            self._module = Bimodule(left_alg, right_alg, self.dim, lact, ract)
        return self._module

    # -- induced maps -----------------------------------------------------

    def descend(self, ambient_map: Matrix) -> Matrix:
        """``ambient_map @ section``: the map on this quotient induced by a
        map on the ambient tensor space.

        The map M must kill every balancing relation, i.e. the kernel of
        project.  ``I - section @ project`` projects onto that kernel, so M
        kills it iff ``M == (M @ section) @ project``.  Otherwise this raises
        BalancednessError; the witness is column j of ``I - section @
        project`` for the first column j where the two sides differ, a
        balancing relation that M does not kill.
        """
        down = ambient_map @ self.section
        if self.dim < self.ambient_dim:
            bad = np.nonzero((ambient_map - down @ self.project).support().any(axis=0))[0]
            if bad.size:
                e = basis_vector(self.field, self.ambient_dim, int(bad[0]))
                witness = self.field.normalize(e - self.section @ (self.project @ e))
                raise BalancednessError("ambient map does not descend to the quotient",
                                        witness=witness)
        return down

    def induce(self, ambient_map: Matrix, target: "TensorQuotient") -> Matrix:
        """The unique map on quotients making the projection square commute.

        ``ambient_map`` goes between the ambient tensor spaces; it must send
        this quotient's balancing subspace into the target's (verified, with
        a witness relation on failure).
        """
        if ambient_map.shape != (target.ambient_dim, self.ambient_dim):
            raise ValueError("ambient map shape mismatch")
        return self.descend(target.project @ ambient_map)


def tensor_over(M: Bimodule, N: Bimodule) -> TensorQuotient:
    """M (x)_A N with its induced (left(M), right(N))-bimodule structure."""
    return tensor_chain([M, N])


def tensor_chain(factors: Sequence[Bimodule]) -> TensorQuotient:
    """M_1 (x)_A ... (x)_A M_r, kept by its left operand (M_1, or the cached
    chain of all factors but M_r) in its ``products`` under the key M_r."""
    if len(factors) < 2:
        return TensorQuotient(factors)
    owner = factors[0] if len(factors) == 2 else tensor_chain(factors[:-1])
    if factors[-1] not in owner.products:
        owner.products[factors[-1]] = TensorQuotient(factors)
    return owner.products[factors[-1]]
