"""Tensor products over a (noncommutative) base algebra as explicit quotients.

``M (x)_A N`` is realised as the quotient of the k-tensor product by the
balancing subspace span{(m.a)(x)n - m(x)(a.n)}.  A quotient carries a
``project`` matrix (ambient -> quotient) and a ``section`` (quotient ->
ambient, a right inverse of project) built from the reduced row echelon
form of the relation matrix: sections are coordinate embeddings on the
non-pivot columns, so bases are deterministic.  A map on the ambient
space passes to the quotient through :meth:`TensorQuotient.descend`, which
first checks that it kills every balancing relation.

Chains of factors quotient the full k-tensor product by every adjacent
balancing family at once, which agrees with either iterated bracketing.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .algebra import Bimodule
from .fields import Matrix
from .report import BalancednessError


class TensorQuotient:
    """Quotient of M_1 (x)_k ... (x)_k M_r by adjacent balancing relations.

    Attributes:
        factors: the bimodules, with matching inner algebras.
        ambient_dim: product of factor dimensions.
        dim: dimension of the quotient.
        project: (dim x ambient_dim) quotient map.
        section: (ambient_dim x dim) right inverse of project.
        relations: matrix whose rows span the balancing subspace.
        module: the induced (leftmost, rightmost) bimodule on the quotient.
    """

    def __init__(self, factors: Sequence[Bimodule], column_order: Optional[Sequence[int]] = None):
        if not factors:
            raise ValueError("need at least one factor")
        self.factors = list(factors)
        field = factors[0].field
        self.field = field
        for P, Q in zip(factors, factors[1:]):
            if P.right_algebra is not Q.left_algebra and \
               P.right_algebra.dim != Q.left_algebra.dim:
                raise ValueError("inner algebras of adjacent factors must match")
        dims = [m.dim for m in factors]
        n = int(np.prod(dims)) if dims else 1
        self.ambient_dim = n

        rel_blocks = []
        for pos in range(len(factors) - 1):
            left_dim = int(np.prod(dims[:pos])) if pos else 1
            right_dim = int(np.prod(dims[pos + 2:])) if pos + 2 < len(dims) else 1
            M, N = factors[pos], factors[pos + 1]
            IL = Matrix.eye(field, left_dim)
            IR = Matrix.eye(field, right_dim)
            zero = field.scalar(0)
            for a in range(M.right_algebra.dim):
                core = M.right_action[a].T.kron(Matrix.eye(field, N.dim)) \
                    - Matrix.eye(field, M.dim).kron(N.left_action[a].T)
                block = core
                if left_dim > 1:
                    block = IL.kron(block)
                if right_dim > 1:
                    block = block.kron(IR)
                arr = block.a
                keep = (arr != zero).any(axis=1)
                if keep.any():
                    rel_blocks.append(arr[keep, :])
        if rel_blocks:
            self.relations = Matrix(field, np.vstack(rel_blocks))
        else:
            self.relations = Matrix.zeros(field, 0, n)

        work = self.relations
        self._order = list(column_order) if column_order is not None else None
        if self._order is not None:
            if sorted(self._order) != list(range(n)):
                raise ValueError("column_order must permute the ambient columns")
            work = Matrix(field, work.a[:, self._order]) if work.nrows else work

        R, pivots = work.rref()
        piv_set = set(pivots)
        free = [j for j in range(n) if j not in piv_set]
        q = len(free)
        self.dim = q

        project = field.zeros((q, n))
        section = field.zeros((n, q))
        one = field.scalar(1)
        for idx, fcol in enumerate(free):
            project[idx, fcol] = one
            section[fcol, idx] = one
            for r, pcol in enumerate(pivots):
                project[idx, pcol] = -R.a[r, fcol]
        if self._order is not None:
            inv = np.argsort(self._order)
            project = project[:, inv]
            section = section[inv, :]
        self.project = Matrix._raw(field, field.normalize(project))
        self.section = Matrix._raw(field, section)
        self._module: Optional[Bimodule] = None

    @property
    def module(self) -> Bimodule:
        """The induced (leftmost, rightmost) bimodule on the quotient."""
        if self._module is None:
            field = self.field
            dims = [m.dim for m in self.factors]
            left_alg = self.factors[0].left_algebra
            right_alg = self.factors[-1].right_algebra
            rest = int(np.prod(dims[1:])) if len(dims) > 1 else 1
            head = int(np.prod(dims[:-1])) if len(dims) > 1 else 1
            Ir, Ih = Matrix.eye(field, rest), Matrix.eye(field, head)
            lact = [self.project @ self.factors[0].left_action[i].kron(Ir) @ self.section
                    for i in range(left_alg.dim)]
            ract = [self.project @ Ih.kron(self.factors[-1].right_action[i]) @ self.section
                    for i in range(right_alg.dim)]
            self._module = Bimodule(left_alg, right_alg, self.dim, lact, ract)
        return self._module

    # -- induced maps -----------------------------------------------------

    def descend(self, ambient_map: Matrix) -> Matrix:
        """``ambient_map @ section``: the map on this quotient induced by a
        map on the ambient tensor space.

        The map must kill every balancing relation; otherwise this raises
        BalancednessError with the first relation it does not kill as the
        witness.
        """
        if self.relations.nrows:
            image = ambient_map @ self.relations.T
            bad = np.nonzero((image.a != self.field.scalar(0)).any(axis=0))[0]
            if bad.size:
                raise BalancednessError("ambient map does not descend to the quotient",
                                        witness=self.relations.row(int(bad[0])))
        return ambient_map @ self.section

    def induce(self, ambient_map: Matrix, target: "TensorQuotient") -> Matrix:
        """The unique map on quotients making the projection square commute.

        ``ambient_map`` goes between the ambient tensor spaces; it must send
        this quotient's balancing subspace into the target's (verified, with
        a witness relation on failure).
        """
        if ambient_map.shape != (target.ambient_dim, self.ambient_dim):
            raise ValueError("ambient map shape mismatch")
        return self.descend(target.project @ ambient_map)

    def induce_or_none(self, ambient_map: Matrix, target: "TensorQuotient") -> Optional[Matrix]:
        try:
            return self.induce(ambient_map, target)
        except BalancednessError:
            return None


def tensor_over(M: Bimodule, N: Bimodule) -> TensorQuotient:
    """M (x)_A N with its induced (left(M), right(N))-bimodule structure."""
    return TensorQuotient([M, N])


def tensor_chain(factors: Sequence[Bimodule]) -> TensorQuotient:
    return TensorQuotient(factors)
