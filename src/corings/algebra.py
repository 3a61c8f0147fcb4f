"""Finite-dimensional unital associative algebras by structure constants,
their morphisms, and bimodules with commuting actions.

An algebra of dimension d over k is the tensor ``mult[i, j, :]`` expanding
each product of basis vectors in the basis, together with the coefficient
vector of the unit.  Bimodules store one action matrix per algebra basis
vector on each side, and contract algebra-valued maps against either side
(:meth:`Bimodule.right_contraction`, :meth:`Bimodule.left_contraction`).
"""

from __future__ import annotations

from itertools import product
from typing import Optional, Sequence

import numpy as np

from .fields import FieldSpec, Matrix, as_vector, basis_vector, commute_rows, sandwich_rows
from .report import InvalidStructureError, Report, ReportBuilder


class Algebra:
    """Unital associative k-algebra given by structure constants."""

    def __init__(self, field: FieldSpec, mult, unit, names: Optional[Sequence[str]] = None):
        self.field = field
        m = np.asarray(mult, dtype=object) if field.dtype is object else np.asarray(mult)
        self.mult = field.normalize(np.array(m, dtype=field.dtype))
        if self.mult.ndim != 3 or self.mult.shape[0] != self.mult.shape[1] != self.mult.shape[2]:
            raise ValueError(f"structure tensor must be (d,d,d), got {self.mult.shape}")
        self.dim = self.mult.shape[0]
        self.unit = as_vector(field, unit)
        if self.unit.shape[0] != self.dim:
            raise ValueError("unit vector dimension mismatch")
        self.names = list(names) if names is not None else None
        # left/right multiplication matrices of each basis vector
        self._lmul = [Matrix(field, self.mult[i, :, :].T) for i in range(self.dim)]
        self._rmul = [Matrix(field, self.mult[:, j, :].T) for j in range(self.dim)]

    def multiply(self, x, y) -> np.ndarray:
        x = as_vector(self.field, x)
        y = as_vector(self.field, y)
        out = self.field.zeros((self.dim,))
        zero = self.field.scalar(0)
        for i in range(self.dim):
            if x[i] == zero:
                continue
            out = out + x[i] * (self.mult[i, :, :].T @ y)
        return self.field.normalize(out)

    def left_mult(self, x) -> Matrix:
        """Matrix of y -> x*y."""
        x = as_vector(self.field, x)
        return _combination(self.field, self._lmul, x)

    def right_mult(self, x) -> Matrix:
        """Matrix of y -> y*x."""
        x = as_vector(self.field, x)
        return _combination(self.field, self._rmul, x)

    def basis_left_mult(self, i: int) -> Matrix:
        return self._lmul[i]

    def basis_right_mult(self, i: int) -> Matrix:
        return self._rmul[i]

    def element_inverse(self, x) -> Optional[np.ndarray]:
        """Two-sided inverse of an element, or None."""
        L = self.left_mult(x)
        y = L.solve(self.unit)
        if y is None:
            return None
        if not np.all(self.multiply(y, x) == self.unit):
            return None
        return y

    def opposite(self) -> "Algebra":
        return Algebra(self.field, np.swapaxes(self.mult, 0, 1), self.unit, self.names)

    def name_of(self, i: int) -> str:
        return self.names[i] if self.names else f"e{i}"

    def __repr__(self) -> str:
        return f"Algebra(dim={self.dim}, field={self.field})"


def _combination(field: FieldSpec, mats: Sequence[Matrix], coeffs: np.ndarray) -> Matrix:
    n = mats[0].nrows if mats else 0
    out = field.zeros((n, mats[0].ncols if mats else 0))
    zero = field.scalar(0)
    for c, M in zip(coeffs, mats):
        if c != zero:
            out = out + M.a * c
    return Matrix(field, out)


def check_algebra(A: Algebra) -> Report:
    """Associativity on all basis triples and two-sided unit law."""
    rb = ReportBuilder(f"algebra dim {A.dim} over {A.field}")
    e = [basis_vector(A.field, A.dim, i) for i in range(A.dim)]
    rb.add_all("associativity", (
        (f"triple ({A.name_of(i)},{A.name_of(j)},{A.name_of(k)})",
         np.all(A.multiply(A.mult[i, j, :], e[k]) == A.multiply(e[i], A.mult[j, k, :])))
        for i, j, k in product(range(A.dim), repeat=3)))
    rb.add_all("unit-law", (
        (f"basis {A.name_of(j)}",
         np.all(A.multiply(A.unit, e[j]) == e[j]) and np.all(A.multiply(e[j], A.unit) == e[j]))
        for j in range(A.dim)))
    return rb.build()


def scalar_algebra(field: FieldSpec) -> Algebra:
    """The base field as the one-dimensional algebra k."""
    one = field.scalar(1)
    return Algebra(field, [[[one]]], [one], names=["1"])


def matrix_algebra(field: FieldSpec, n: int) -> Algebra:
    """n x n matrix algebra; basis e_ij ordered row-major."""
    d = n * n
    mult = field.zeros((d, d, d))
    one = field.scalar(1)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        mult[i * n + j, k * n + l, i * n + l] = one
    unit = field.zeros((d,))
    for i in range(n):
        unit[i * n + i] = one
    names = [f"e{i}{j}" for i in range(n) for j in range(n)]
    return Algebra(field, mult, unit, names=names)


def check_group_table(table: Sequence[Sequence[int]]) -> Report:
    rb = ReportBuilder("group table")
    n = len(table)
    t = [list(map(int, row)) for row in table]
    shape_ok = all(len(row) == n for row in t) and all(0 <= x < n for row in t for x in row)
    rb.add("shape", shape_ok)
    if not shape_ok:
        return rb.build()
    rb.add_all("associativity", ((f"triple ({a},{b},{c})", t[t[a][b]][c] == t[a][t[b][c]])
                                 for a, b, c in product(range(n), repeat=3)))
    e = next((x for x in range(n) if all(t[x][y] == y and t[y][x] == y for y in range(n))), None)
    rb.add("identity", e is not None)
    if e is not None:
        inv_ok = all(any(t[a][b] == e and t[b][a] == e for b in range(n)) for a in range(n))
        rb.add("inverses", inv_ok)
    return rb.build()


def group_identity(table: Sequence[Sequence[int]]) -> int:
    n = len(table)
    for x in range(n):
        if all(table[x][y] == y and table[y][x] == y for y in range(n)):
            return x
    raise InvalidStructureError("table has no identity element")


def group_inverse(table: Sequence[Sequence[int]], g: int) -> int:
    e = group_identity(table)
    for h in range(len(table)):
        if table[g][h] == e and table[h][g] == e:
            return h
    raise InvalidStructureError(f"no inverse for element {g}")


def group_algebra(table: Sequence[Sequence[int]], field: FieldSpec):
    """Group algebra kG from a multiplication table.

    Returns ``(algebra, degrees)`` where ``degrees[i] = i`` records that
    basis vector i is homogeneous of degree the i-th group element, i.e.
    the canonical G-grading of kG.
    """
    rep = check_group_table(table)
    if not rep.ok:
        raise InvalidStructureError("multiplication table is not a group", rep)
    n = len(table)
    mult = field.zeros((n, n, n))
    one = field.scalar(1)
    for g in range(n):
        for h in range(n):
            mult[g, h, table[g][h]] = one
    unit = field.zeros((n,))
    unit[group_identity(table)] = one
    alg = Algebra(field, mult, unit, names=[f"g{g}" for g in range(n)])
    return alg, list(range(n))


class Bimodule:
    """A (B, A)-bimodule: commuting unital left B- and right A-actions.

    Actions are stored as one matrix per algebra basis vector; validity is
    checked by :meth:`validate`, never assumed, so structures with broken
    actions remain representable (needed when a construction's axioms are
    themselves the object of study).
    """

    def __init__(self, left_algebra: Algebra, right_algebra: Algebra, dim: int,
                 left_action: Sequence[Matrix], right_action: Sequence[Matrix]):
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.dim = dim
        self.field = left_algebra.field
        if self.field != right_algebra.field:
            raise ValueError("bimodule algebras live over different fields")
        self.left_action = list(left_action)
        self.right_action = list(right_action)
        if len(self.left_action) != left_algebra.dim or len(self.right_action) != right_algebra.dim:
            raise ValueError("one action matrix per algebra basis vector required")
        for M in (*self.left_action, *self.right_action):
            if M.shape != (dim, dim):
                raise ValueError("action matrix shape mismatch")

    def left_act(self, a) -> Matrix:
        return _combination(self.field, self.left_action, as_vector(self.field, a))

    def right_act(self, a) -> Matrix:
        return _combination(self.field, self.right_action, as_vector(self.field, a))

    def validate(self) -> Report:
        rb = ReportBuilder(f"bimodule dim {self.dim}")
        A, B = self.right_algebra, self.left_algebra
        I = Matrix.eye(self.field, self.dim)
        rb.add("left-unit", self.left_act(B.unit) == I)
        rb.add("right-unit", self.right_act(A.unit) == I)
        L, R = self.left_action, self.right_action
        rb.add_all("left-associativity", (
            (f"pair ({i},{j})", L[i] @ L[j] == self.left_act(B.mult[i, j, :]))
            for i, j in product(range(B.dim), repeat=2)))
        # m*(ab) = (m*a)*b, so the operator of ab is R_b R_a
        rb.add_all("right-associativity", (
            (f"pair ({i},{j})", R[j] @ R[i] == self.right_act(A.mult[i, j, :]))
            for i, j in product(range(A.dim), repeat=2)))
        rb.add_all("actions-commute", ((f"pair ({i},{j})", L[i] @ R[j] == R[j] @ L[i])
                                       for i, j in product(range(B.dim), range(A.dim))))
        return rb.build()

    def right_contraction(self, g: Matrix) -> Matrix:
        """m (x) x -> m . g(x) on M (x)_k X, for g: X -> A given as a
        (dim A) x n matrix: the map sum_a R_a (x) g[a]."""
        d, n = self.dim, g.ncols
        return Matrix._raw(self.field, (self._stacked(self.right_action) @ g).a.reshape(d, d * n))

    def left_contraction(self, g: Matrix) -> Matrix:
        """x (x) m -> g(x) . m on X (x)_k M, for g: X -> B given as a
        (dim B) x n matrix: the map sum_b g[b] (x) L_b."""
        d, n = self.dim, g.ncols
        out = (self._stacked(self.left_action) @ g).a.reshape(d, d, n).transpose(0, 2, 1)
        return Matrix._raw(self.field, out.reshape(d, n * d))

    def _stacked(self, actions: Sequence[Matrix]) -> Matrix:
        """The actions as the columns vec(X_a) of one dim^2 x (dim algebra) matrix."""
        arr = np.stack([X.a for X in actions], axis=2)
        return Matrix._raw(self.field, arr.reshape(self.dim * self.dim, len(actions)))

    def __repr__(self) -> str:
        return f"Bimodule(dim={self.dim}, left={self.left_algebra!r}, right={self.right_algebra!r})"


def regular_bimodule(A: Algebra) -> Bimodule:
    """A as an (A, A)-bimodule by left/right multiplication."""
    return Bimodule(A, A, A.dim,
                    [A.basis_left_mult(i) for i in range(A.dim)],
                    [A.basis_right_mult(i) for i in range(A.dim)])


def right_module(A: Algebra, dim: int, right_action: Sequence[Matrix]) -> Bimodule:
    """A right A-module as a (k, A)-bimodule with scalar left action."""
    k = scalar_algebra(A.field)
    return Bimodule(k, A, dim, [Matrix.eye(A.field, dim)], right_action)


def left_module(A: Algebra, dim: int, left_action: Sequence[Matrix]) -> Bimodule:
    k = scalar_algebra(A.field)
    return Bimodule(A, k, dim, left_action, [Matrix.eye(A.field, dim)])


def free_right_module(A: Algebra, rank: int) -> Bimodule:
    """A^rank as a right A-module; basis ordered (copy, algebra basis)."""
    I = Matrix.eye(A.field, rank)
    return right_module(A, rank * A.dim,
                        [I.kron(A.basis_right_mult(i)) for i in range(A.dim)])


def direct_sum(M: Bimodule, N: Bimodule) -> Bimodule:
    if M.left_algebra is not N.left_algebra or M.right_algebra is not N.right_algebra:
        raise ValueError("direct sum needs matching algebras")
    f = M.field
    dim = M.dim + N.dim

    def block(X: Matrix, Y: Matrix) -> Matrix:
        out = f.zeros((dim, dim))
        out[: M.dim, : M.dim] = X.a
        out[M.dim :, M.dim :] = Y.a
        return Matrix(f, out)

    return Bimodule(M.left_algebra, M.right_algebra, dim,
                    [block(x, y) for x, y in zip(M.left_action, N.left_action)],
                    [block(x, y) for x, y in zip(M.right_action, N.right_action)])


class AlgebraMorphism:
    """A unital multiplicative linear map between algebras."""

    def __init__(self, source: Algebra, target: Algebra, matrix: Matrix):
        self.source = source
        self.target = target
        self.matrix = matrix
        if matrix.shape != (target.dim, source.dim):
            raise ValueError("morphism matrix shape mismatch")

    def validate(self) -> Report:
        rb = ReportBuilder("algebra morphism")
        rb.add("unit", np.all(self.matrix @ self.source.unit == self.target.unit))
        F = self.matrix
        rb.add_all("multiplicative", (
            (f"pair ({i},{j})",
             np.all(F @ self.source.mult[i, j, :] == self.target.multiply(F.col(i), F.col(j))))
            for i, j in product(range(self.source.dim), repeat=2)))
        return rb.build()

    def is_isomorphism(self) -> bool:
        return self.matrix.is_invertible()

    def inverse(self) -> "AlgebraMorphism":
        inv = self.matrix.inverse()
        if inv is None:
            raise ValueError("morphism is not invertible")
        return AlgebraMorphism(self.target, self.source, inv)

    def __call__(self, x) -> np.ndarray:
        return self.matrix @ x

    @staticmethod
    def identity(A: Algebra) -> "AlgebraMorphism":
        return AlgebraMorphism(A, A, Matrix.eye(A.field, A.dim))

    def compose(self, other: "AlgebraMorphism") -> "AlgebraMorphism":
        """self after other."""
        if other.target is not self.source and other.target.dim != self.source.dim:
            raise ValueError("composition mismatch")
        return AlgebraMorphism(other.source, self.target, self.matrix @ other.matrix)


def is_projective_right(M: Bimodule) -> bool:
    """Whether the right module M splits off the free cover A^dim(M).

    The canonical surjection sends the (i, a)-th free basis vector to
    e_i * a; M is projective iff some right-linear section exists, which is
    one exact linear solve.
    """
    A = M.right_algebra
    f = M.field
    n = M.dim
    if n == 0:
        return True
    free = free_right_module(A, n)
    # surjection pi: A^n -> M, column (i, j) -> e_i * a_j
    pi = M.right_contraction(Matrix.eye(f, A.dim))
    # unknown sigma: M -> A^n with pi sigma = 1 and sigma right-linear
    eye = Matrix.eye(f, n)
    rows = [sandwich_rows(pi, eye)]
    rows += [commute_rows(M.right_action[j], free.right_action[j]) for j in range(A.dim)]
    rhs = np.concatenate([eye.a.reshape(-1), f.zeros((A.dim * free.dim * n,))])
    return Matrix.vstack(rows).solve(rhs) is not None


def is_projective_left(M: Bimodule) -> bool:
    """Left projectivity via the right module over the opposite algebra."""
    Aop = M.left_algebra.opposite()
    flipped = right_module(Aop, M.dim, list(M.left_action))
    return is_projective_right(flipped)
