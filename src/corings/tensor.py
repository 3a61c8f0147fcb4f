"""Tensor products over a (noncommutative) base algebra as explicit quotients.

``M (x)_A N`` is realised as the quotient of the k-tensor product by the
balancing subspace span{(m.a)(x)n - m(x)(a.n)}, a ranging over A.  When M's
right action and N's left action pass the generator-word check, the blocks
of a generating set of A already span it, and only theirs are written
(:func:`balancing_basis`); otherwise, as for invalid structures, the block
of every basis vector is.  The blocks are written by their nonzero rows
alone, never as dense arrays, and eliminated sparse
(:func:`corings.fields.kron_eye_difference_rows`,
:meth:`corings.fields.SparseRows.kernel_rows`).  A quotient carries a
``project`` matrix (ambient -> quotient) and a ``section`` (quotient ->
ambient, a right inverse of project) built from the reduced row echelon
form of the relations: sections are coordinate embeddings on the
non-pivot columns, so bases are deterministic.  A map on the ambient
space passes to the quotient through :meth:`TensorQuotient.descend`,
which first checks that it kills every balancing relation.

Chains of three or more factors are bracketed to the left, one pair at a
time on the (previous quotient) x (next factor) ambient, and keep their
steps: a chain holds its head's ``project`` and its last step, and reaches
the full ambient through the head by applying ``P_head (x) I`` to a
reshaped operand, with no kron formed (:func:`corings.fields.kron_eye_times`).
``induce`` into a chain, ``descend`` on it and its section applied to a
map never compose the chain's maps, and the maps ``F (x) I`` and ``I (x)
G`` of a coassociativity check telescope through the head without a row
of the full ambient.  A chain's ``project`` and ``section`` are composed
only when something reads them, which only tests do.  See
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
from .fields import (Matrix, basis_vector, first_difference, kron_eye_difference_rows,
                     kron_eye_times, times_kron_eye)
from .report import BalancednessError


class TensorQuotient:
    """Quotient of M_1 (x)_k ... (x)_k M_r by adjacent balancing relations.

    Two factors M, N are eliminated on the relations
    ``R_a^T (x) I - I (x) L_a^T`` (rows (m.a)(x)n - m(x)(a.n)) for a in
    :func:`balancing_basis`: the generators of A when both actions pass the
    generator-word check, else every basis vector; the row space, and so
    every matrix below, is the same either way.  Only the nonzeros of the
    relations are written and eliminated; ``project`` is filled from the
    sparse echelon rows: the identity on the free columns, and minus the
    echelon entries at the pivot columns.

    Three or more factors are bracketed to the left: ``head =
    tensor_chain(factors[:-1])`` (a cube's head is the cached square), then
    only the relations of ``(head.module, factors[-1])`` are eliminated, on
    the ``head.dim * d_last`` ambient.  The chain keeps that step as
    :attr:`last` and the head's ``project``, but not the head, whose
    ``products`` keep the chain; it composes none of its maps when built:

    - ``project = P_last @ (P_head (x) I)``.  :meth:`apply_project` and
      :meth:`descend` apply ``P_head (x) I`` to a reshaped operand
      (:func:`corings.fields.kron_eye_times`), and :attr:`project` is
      composed the same way, only when something reads it.  The maps
      ``F (x) I`` and ``I (x) G`` that the coassociativity checks push into
      a chain telescope through the head: :meth:`project_kron_eye` and
      :meth:`project_eye_kron` form no ambient-wide row.
    - ``section = (S_head (x) I) @ S_last`` is the coordinate embedding on
      the ambient columns ``free``: ``head.free[b] * d_last + k`` for each
      free column (b, k) of the last step.

    When the head has no relations, as over a base field k, P_head is the
    identity and is not applied.  When the middle factors' actions commute,
    as a bimodule's do, ``project`` and ``section`` are byte for byte the
    matrices of eliminating every adjacent relation on the full ambient at
    once: both have the whole balancing subspace as kernel, are the identity
    on their free columns, and have the same free columns.  A relation
    leading at (i, j), i a free head column, keeps that leading index while
    the rows (reduced echelon row of the head) (x) e_j' clear its pivot head
    columns: each is zero before its pivot, which lies after (i, j).  What
    is left is ``(S_head (x) I) w``, w a relation of the last step leading
    at the matching column; and every such lift is a relation.

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
        free: the ambient columns on which project is the identity, in
            order; the section is the identity's columns there.
        relations: the nonzero rows of the blocks of :func:`balancing_basis`
            for the last pair eliminated (for a chain, on the ambient of its
            last step), as :class:`~corings.fields.SparseRows`; ``nrows``
            counts them.
        last: a chain's last step (None for one or two factors).
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
        self._project: Optional[Matrix] = None
        self._section: Optional[Matrix] = None
        self.products: WeakKeyDictionary = WeakKeyDictionary()

        if len(factors) > 2:
            head = tensor_chain(factors[:-1])
            self._d = d = factors[-1].dim
            self.last = last = tensor_over(head.module, factors[-1])
            self.relations, self.dim = last.relations, last.dim
            self._head_project = head.project if head.dim < head.ambient_dim else None
            self.free = head.free[last.free // d] * d + last.free % d
            return
        self.last = None
        first, end = factors[0], factors[-1]
        self._outer = (first.left_algebra, first.left_action,
                       end.right_algebra, end.right_action, [m.dim for m in factors])

        pairs = [(M.right_action[a], N.left_action[a])
                 for M, N in zip(factors, factors[1:]) for a in balancing_basis(M, N)]
        self.relations = kron_eye_difference_rows(field, pairs, n)
        self._project, free = self.relations.kernel_rows()
        self.dim = len(free)
        self.free = np.array(free, dtype=np.intp)

    @property
    def project(self) -> Matrix:
        """(dim x ambient_dim) quotient map; a chain composes it on first read."""
        if self._project is None:
            P = self.last.project
            self._project = P if self._head_project is None else \
                times_kron_eye(P, self._head_project, self._d)
        return self._project

    @property
    def section(self) -> Matrix:
        """(ambient_dim x dim) right inverse of project, built on first read."""
        if self._section is None:
            self._section = self.apply_section(Matrix.eye(self.field, self.dim))
        return self._section

    @property
    def module(self) -> Bimodule:
        """The induced (leftmost, rightmost) bimodule on the quotient; a
        chain shares the module of its last step, which has the same basis."""
        if self.last is not None:
            return self.last.module
        if self._module is None:
            left_alg, left, right_alg, right, dims = self._outer
            Ir = Matrix.eye(self.field, int(np.prod(dims[1:])))
            Ih = Matrix.eye(self.field, int(np.prod(dims[:-1])))
            lact = [self.restrict(self.project @ L.kron(Ir)) for L in left]
            ract = [self.restrict(self.project @ Ih.kron(R)) for R in right]
            self._module = Bimodule(left_alg, right_alg, self.dim, lact, ract)
        return self._module

    # -- maps through the quotient, none of which composes a chain's maps --

    def apply_project(self, X: Matrix) -> Matrix:
        """``project @ X``; a chain applies ``P_head (x) I`` to X reshaped."""
        if self.last is None:
            return self.project @ X
        if self._head_project is not None:
            X = kron_eye_times(self._head_project, X, self._d)
        return self.last.project @ X

    def apply_section(self, Y: Matrix) -> Matrix:
        """``section @ Y``: the rows of Y placed at the ambient rows
        ``free``, zero elsewhere."""
        if Y.nrows != self.dim:
            raise ValueError("quotient map shape mismatch")
        n, free = self.ambient_dim, self.free

        def place(y):
            out = np.zeros((n, y.shape[1]), dtype=y.dtype)
            out[free] = y
            return out

        return Y.rearranged(place)

    def project_kron_eye(self, F: Matrix) -> Matrix:
        """``project @ (S_head @ F).kron(I)`` for a chain, F a map into its
        head's coordinates: ``P_last @ F.kron(I)``, as P_head @ S_head = I."""
        return self.last.project @ F.kron(Matrix.eye(self.field, self._d))

    def project_eye_kron(self, G: Matrix) -> Matrix:
        """``project @ I.kron(G)`` for a chain, G a map into the ambient of
        its last two factors and I the identity of the others: ``P_last @
        R`` with R[(h, k), (i, c)] = sum_j P_head[h, (i, j)] G[(j, k), c],
        one product of P_head read as (h, i) x j with G read as j x (k, c)."""
        d, x = self._d, G.ncols
        mid = G.nrows // d
        first = self.ambient_dim // (mid * d)
        if self._head_project is None:
            return self.last.project @ Matrix.eye(self.field, first).kron(G)
        q = self._head_project.nrows
        PG = self._head_project.rearranged(lambda p: p.reshape(q * first, mid)) @ \
            G.rearranged(lambda g: g.reshape(mid, d * x))
        return self.last.project @ PG.rearranged(
            lambda w: w.reshape(q, first, d, x).transpose(0, 2, 1, 3).reshape(q * d, first * x))

    def restrict(self, ambient_map: Matrix) -> Matrix:
        """``ambient_map @ section``, the columns ``free`` of the map,
        with no balance check (see :meth:`descend`)."""
        if ambient_map.ncols != self.ambient_dim:
            raise ValueError("ambient map shape mismatch")
        return ambient_map.rearranged(lambda x: x[:, self.free])

    def _times_project(self, Y: Matrix) -> Matrix:
        """``Y @ project``; a chain applies ``P_head (x) I`` to Y reshaped."""
        if self.last is None:
            return Y @ self.project
        Y = Y @ self.last.project
        return Y if self._head_project is None else times_kron_eye(Y, self._head_project, self._d)

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
        down = self.restrict(ambient_map)
        if self.dim < self.ambient_dim:
            j = first_difference(ambient_map, self._times_project(down))
            if j is not None:
                f = self.field
                e = basis_vector(f, self.ambient_dim, j)
                back = self.apply_section(self.apply_project(Matrix.column(f, e)))
                raise BalancednessError("ambient map does not descend to the quotient",
                                        witness=f.normalize(e - back.a.reshape(-1)))
        return down

    def induce(self, ambient_map: Matrix, target: "TensorQuotient") -> Matrix:
        """The unique map on quotients making the projection square commute.

        ``ambient_map`` goes between the ambient tensor spaces; it must send
        this quotient's balancing subspace into the target's (verified, with
        a witness relation on failure).
        """
        if ambient_map.shape != (target.ambient_dim, self.ambient_dim):
            raise ValueError("ambient map shape mismatch")
        return self.descend(target.apply_project(ambient_map))


def balancing_basis(M: Bimodule, N: Bimodule) -> Sequence[int]:
    """The basis vectors a of A whose blocks (m.a)(x)n - m(x)(a.n) span the
    balancing subspace of M (x)_A N: the generators of A
    (:meth:`~corings.algebra.Algebra.generators`) when M's right action and
    N's left action pass the generator-word check
    (:func:`~corings.algebra.represents`), else every basis vector.

    The generators suffice, for any structure constants.  The set T of a
    whose block lies in the span W of the generators' blocks is a subspace.
    It holds the generators, and the unit, whose block R_1 (x) I - I (x) L_1
    is zero.  And it is closed under left multiplication by a generator g,
    as m.(gw) = (m.g).w and (gw).n = g.(w.n) by the check: for w in T,

        m.(gw) (x) n - m (x) (gw).n
            = [(m.g).w (x) n - (m.g) (x) w.n] + [(m.g) (x) w.n - m (x) g.(w.n)],

    the first bracket w's block at (m.g) (x) n and the second g's block at
    m (x) w.n, both in W.  So T holds every word in the generators, and
    the words span A.  The row space is the same, so the reduced echelon
    form, ``free`` and ``project`` are those of every basis vector's block.

    Over an algebra of dimension at most 2 a generating set drops at most
    one block, the unit's when that is a basis vector, so neither the
    generators nor the actions are looked at.
    """
    A = M.right_algebra
    if A.dim > 2 and M.right_is_representation and N.left_is_representation:
        return A.generators()
    return range(A.dim)


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
