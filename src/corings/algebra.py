"""Finite-dimensional unital associative algebras by structure constants,
their morphisms, and bimodules with commuting actions.

An algebra of dimension d over k is the tensor ``mult[i, j, :]`` expanding
each product of basis vectors in the basis, together with the coefficient
vector of the unit.  It is held once more as the structure matrix ``mu``,
d x d^2, whose column i*d + j is e_i e_j, so that x y = mu (x (x) y).
Bimodules store one action matrix per algebra basis vector on each side,
and stack them as the columns vec(X_a) of one matrix; they contract
algebra-valued maps against either side (:meth:`Bimodule.right_contraction`,
:meth:`Bimodule.left_contraction`).  An algebra chooses a generating set
once (:meth:`Algebra.generators`), and a bimodule checks once per side
that its action is a representation on the generators' words
(:func:`represents`), which is what balancing over generators needs.

Products of elements, the action of an element, and every axiom audit are
:class:`~corings.fields.Matrix` products and identities, so field arithmetic
happens only in ``fields``.  An audit's columns are its basis cases in
row-major order (associativity: mu (mu (x) I) == mu (I (x) mu), column
(i*d + j)*d + k; the unit law: mu (u (x) I) == I == mu (I (x) u), column j),
so its first failing column is its first failing case.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Callable, Optional, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from .fields import (FieldSpec, Matrix, as_vector, basis_vector, combine, commute_rows,
                     sandwich_rows, stack_vecs, unstack)
from .report import InvalidStructureError, Report, ReportBuilder


class Algebra:
    """Unital associative k-algebra given by structure constants."""

    def __init__(self, field: FieldSpec, mult, unit, names: Optional[Sequence[str]] = None):
        self.field = field
        self.mult = field.asarray(mult)
        shape = self.mult.shape
        if self.mult.ndim != 3 or not shape[0] == shape[1] == shape[2]:
            raise ValueError(f"structure tensor must be (d,d,d), got {shape}")
        d = self.dim = shape[0]
        self.unit = as_vector(field, unit)
        if self.unit.shape[0] != d:
            raise ValueError("unit vector dimension mismatch")
        self.names = list(names) if names is not None else None
        # the structure matrix: column i*d + j is e_i e_j, i.e. mu[r, i*d + j]
        self.mu = Matrix(field, self.mult.reshape(d * d, d).T)
        # the left multiplications L_i (L_i[r, j] = mu[r, i*d + j]) and the
        # right ones R_j (R_j[r, i] = mu[r, i*d + j]) as columns vec(L_i), vec(R_j)
        self.left_stack = self.mu.rearranged(
            lambda x: x.reshape(d, d, d).transpose(0, 2, 1).reshape(d * d, d))
        self.right_stack = self.mu.rearranged(lambda x: x.reshape(d * d, d))
        self._lmul = unstack(self.left_stack, (d, d))
        self._rmul = unstack(self.right_stack, (d, d))
        self._generators: Optional[tuple[int, ...]] = None

    def multiply(self, x, y) -> np.ndarray:
        """x y = mu (x (x) y)."""
        f = self.field
        return (self.mu @ Matrix.column(f, x).kron(Matrix.column(f, y))).a[:, 0]

    def left_mult(self, x) -> Matrix:
        """Matrix of y -> x*y."""
        return combine(self.left_stack, x, (self.dim, self.dim))

    def right_mult(self, x) -> Matrix:
        """Matrix of y -> y*x."""
        return combine(self.right_stack, x, (self.dim, self.dim))

    def basis_left_mult(self, i: int) -> Matrix:
        return self._lmul[i]

    def basis_right_mult(self, i: int) -> Matrix:
        return self._rmul[i]

    def generators(self) -> tuple[int, ...]:
        """The basis indices of a generating set, chosen greedily: each basis
        vector outside the span of the words in the generators chosen so far
        is added.

        The words are the unit and the products g_1 (g_2 (... (g_k x))), x
        the unit or a generator, so their span is the smallest subspace
        that holds the unit and the generators and is closed under left
        multiplication by the generators; for a unital associative algebra
        it is the subalgebra they generate.  The choice is deterministic and
        computed once."""
        if self._generators is None:
            f, d = self.field, self.dim
            rows, piv = Matrix.from_rows(f, [self.unit]).rref()
            rows, chosen = rows.rearranged(lambda x: x[:len(piv)]), []
            for i in range(d):
                # the reduced rows hold e_i iff the row leading at i is e_i
                if i in piv and np.count_nonzero(rows.a[piv.index(i)]) == 1:
                    continue
                chosen.append(i)
                rows = Matrix.vstack([rows, Matrix.from_rows(f, [basis_vector(f, d, i)])])
                # close the span under left multiplication by every generator
                # (the row v goes to (g v)^T = v^T L_g^T) until its rank stays
                while True:
                    E, piv = Matrix.vstack([rows] + [rows @ self._lmul[g].T
                                                     for g in chosen]).rref()
                    grew = len(piv) > rows.nrows
                    rows = E.rearranged(lambda x: x[:len(piv)])
                    if not grew:
                        break
            self._generators = tuple(chosen)
        return self._generators

    def element_inverse(self, x) -> Optional[np.ndarray]:
        """Two-sided inverse of an element, or None.

        Solves y x = 1 and x y = 1 together as one stacked linear system
        (over non-associative structure constants, as a malformed document
        may give, a one-sided solution need not be two-sided) and
        re-verifies both identities exactly on any solution."""
        system = Matrix.vstack([self.right_mult(x), self.left_mult(x)])
        y = system.solve(np.concatenate([self.unit, self.unit]))
        if y is None:
            return None
        if not (np.all(self.multiply(y, x) == self.unit)
                and np.all(self.multiply(x, y) == self.unit)):
            raise AssertionError("element inverse failed re-verification")
        return y

    def opposite(self) -> "Algebra":
        return Algebra(self.field, np.swapaxes(self.mult, 0, 1), self.unit, self.names)

    def name_of(self, i: int) -> str:
        return self.names[i] if self.names else f"e{i}"

    def __repr__(self) -> str:
        return f"Algebra(dim={self.dim}, field={self.field})"


def pair_witness(n: int) -> Callable[[int], str]:
    """The witness of column i*n + j of an audit over basis pairs: ``pair (i,j)``."""
    return lambda col: "pair ({},{})".format(*divmod(col, n))


def check_algebra(A: Algebra) -> Report:
    """Associativity on all basis triples and two-sided unit law."""
    rb = ReportBuilder(f"algebra dim {A.dim} over {A.field}")
    d, mu, name = A.dim, A.mu, A.name_of
    # mu (mu (x) I) == mu (I (x) mu) without the d^2 x d^3 Kronecker factors:
    # (e_i e_j) e_k = sum_r mu[r, ij] R_k e_r and e_i (e_j e_k) = sum_r mu[r, jk] L_i e_r
    # for R_k[s, r] = mu[s, r*d + k] and L_i[s, r] = mu[s, i*d + r], so each side
    # is the R_k (L_i) stacked as rows (k, s) ((i, s)) times mu, moved to
    # column (i*d + j)*d + k
    def side(stack, move):
        rows = mu.rearranged(lambda x: x.reshape(d, d, d).transpose(stack).reshape(d * d, d))
        return (rows @ mu).rearranged(
            lambda x: x.reshape(d, d, d, d).transpose(move).reshape(d, d ** 3))

    rb.add_equal("associativity", side((2, 0, 1), (1, 2, 3, 0)), side((1, 0, 2), (1, 0, 2, 3)),
                 lambda c: "triple ({},{},{})".format(*map(name, np.unravel_index(c, (d, d, d)))))
    I = Matrix.eye(A.field, d)
    rb.add_equal("unit-law", Matrix.vstack([A.left_mult(A.unit), A.right_mult(A.unit)]),
                 Matrix.vstack([I, I]), lambda j: f"basis {name(j)}")
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
        self.products: WeakKeyDictionary = WeakKeyDictionary()  # N -> self (x)_A N

    @cached_property
    def left_stack(self) -> Matrix:
        """The left actions as the columns vec(L_b) of one dim^2 x (dim B) matrix."""
        return stack_vecs(self.left_action)

    @cached_property
    def right_stack(self) -> Matrix:
        """The right actions as the columns vec(R_a) of one dim^2 x (dim A) matrix."""
        return stack_vecs(self.right_action)

    @cached_property
    def left_is_representation(self) -> bool:
        """Whether L_1 = I and L_(g b) = L_g L_b for every generator g of B
        and basis vector b (:func:`represents`), checked once."""
        return represents(self.left_algebra, self.dim, self.left_action, right=False)

    @cached_property
    def right_is_representation(self) -> bool:
        """Whether R_1 = I and R_(g b) = R_b R_g for every generator g of A
        and basis vector b (:func:`represents`), checked once."""
        return represents(self.right_algebra, self.dim, self.right_action, right=True)

    def left_act(self, a) -> Matrix:
        return combine(self.left_stack, a, (self.dim, self.dim))

    def right_act(self, a) -> Matrix:
        return combine(self.right_stack, a, (self.dim, self.dim))

    def validate(self) -> Report:
        rb = ReportBuilder(f"bimodule dim {self.dim}")
        A, B = self.right_algebra, self.left_algebra
        I = Matrix.eye(self.field, self.dim)
        rb.add("left-unit", self.left_act(B.unit) == I)
        rb.add("right-unit", self.right_act(A.unit) == I)
        L, R = self.left_action, self.right_action
        rb.add_equal("left-associativity", _products(L, L), self.left_stack @ B.mu,
                     pair_witness(B.dim))
        # m*(ab) = (m*a)*b, so the operator of ab is R_b R_a
        rb.add_equal("right-associativity", _products(R, R, swap=True),
                     self.right_stack @ A.mu, pair_witness(A.dim))
        rb.add_equal("actions-commute", _products(L, R), _products(R, L, swap=True),
                     pair_witness(A.dim))
        return rb.build()

    def right_contraction(self, g: Matrix) -> Matrix:
        """m (x) x -> m . g(x) on M (x)_k X, for g: X -> A given as a
        (dim A) x n matrix: the map sum_a R_a (x) g[a]."""
        d, n = self.dim, g.ncols
        return (self.right_stack @ g).rearranged(lambda x: x.reshape(d, d * n))

    def left_contraction(self, g: Matrix) -> Matrix:
        """x (x) m -> g(x) . m on X (x)_k M, for g: X -> B given as a
        (dim B) x n matrix: the map sum_b g[b] (x) L_b."""
        d, n = self.dim, g.ncols
        return (self.left_stack @ g).rearranged(
            lambda x: x.reshape(d, d, n).transpose(0, 2, 1).reshape(d, n * d))

    def __repr__(self) -> str:
        return f"Bimodule(dim={self.dim}, left={self.left_algebra!r}, right={self.right_algebra!r})"


def _products(Xs: Sequence[Matrix], Ys: Sequence[Matrix], swap: bool = False) -> Matrix:
    """vec(X_i Y_j) for all pairs of n x n matrices, as column i*len(Ys) + j
    (with ``swap``, column j*len(Xs) + i): one product of the stacked blocks."""
    n, m1, m2 = Xs[0].nrows, len(Xs), len(Ys)
    axes = (1, 3, 2, 0) if swap else (1, 3, 0, 2)
    return (Matrix.vstack(Xs) @ Matrix.hstack(Ys)).rearranged(
        lambda x: x.reshape(m1, n, m2, n).transpose(axes).reshape(n * n, m1 * m2))


def represents(A: Algebra, dim: int, action: Sequence[Matrix], right: bool) -> bool:
    """Whether the action matrices X_a (a basis index of A) pass the
    generator-word check: X_1 = I and X_(g b) = X_g X_b for every generator
    g of A (:meth:`Algebra.generators`) and basis vector b, with the product
    reversed (X_b X_g) for a right action.

    For an associative unital A this holds exactly when a -> X_a is a
    representation (anti-representation on the right), i.e. when the unit
    and associativity rows of :meth:`Bimodule.validate` pass.  A
    representation passes.  Conversely, the set S of a with X_(ab) = X_a X_b
    for all b is a subspace; it holds 1, as X_(1 b) = X_b = X_1 X_b; and it
    is closed under left multiplication by a generator g, as for a in S
    X_((ga)b) = X_(g(ab)) = X_g X_(ab) = X_g X_a X_b = X_(ga) X_b.  So S
    holds every word in the generators, and the words span A.  (The right
    case is the same with every product reversed.)

    Each X_(g b) = sum_r (g e_b)_r X_r runs over the nonzero coefficients
    only, so no stack of the action matrices is formed.
    """
    f = A.field

    def image(coeffs) -> Matrix:
        out = Matrix.zeros(f, dim, dim)
        for r in np.flatnonzero(coeffs != 0):
            out = out + (action[r] if coeffs[r] == 1 else action[r].scale(coeffs[r]))
        return out

    if image(A.unit) != Matrix.eye(f, dim):
        return False
    for g in A.generators():
        words = A.basis_left_mult(g).a       # column b holds g e_b
        for b in range(A.dim):
            want = action[b] @ action[g] if right else action[g] @ action[b]
            if image(words[:, b]) != want:
                return False
    return True


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
        rb.add_equal("multiplicative", F @ self.source.mu, self.target.mu @ F.kron(F),
                     pair_witness(self.source.dim))
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
        if other.target is not self.source:
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
