"""Exact scalars over Q or F_p, and dense exact linear algebra.

Scalars are ``fractions.Fraction`` over the rationals and reduced integer
residues over a prime field.  Matrices wrap numpy arrays (``object`` dtype
holding Fractions, or ``int64`` residues) and provide reduced row echelon
form, solving, nullspaces and inverses with no rounding anywhere.

Each field has one exact kernel behind :class:`Matrix` and :func:`_rref`:

- F_2 eliminates by XOR of rows packed into Python-int bitmasks.
- F_p (p odd) eliminates on residue arrays.  After each pivot only the rows
  that the pivot touched are updated and reduced mod p; every other row
  is already reduced.
- F_p products are integer products reduced mod p; large ones run exactly
  on float64 BLAS, as in FFLAS-FFPACK (Dumas, Giorgi & Pernet, TOMS 2008).
- Q matrices keep their integer form ``(N, den, max|N|)`` in a private
  slot: the numerators over the least common denominator of the reduced
  entries, which is canonical.  Products, Kronecker products, sums,
  differences, negation, scaling and transposition fill it from their
  operands' forms; any other matrix computes it once, on first use.  Q
  arithmetic and comparison read only the integers: ``==`` compares
  ``(den, N)``, ``support`` and ``is_zero`` read N, and ``+``, ``-`` and
  ``scale`` combine numerators scaled to a common denominator.  Integer
  steps run in int64 when a bound (``max|a| * max|b| * k`` for products,
  the sum of the scaled bounds for sums) below 2^62 proves no overflow,
  and in Python ints otherwise.  Stacking, selection, echelon forms,
  kernels and solutions carry the integer form too, so a Q result holds
  only integers: its Fraction array ``a``, one Fraction per distinct value,
  is built when something first reads ``a`` and is kept from then on.  An
  F_p matrix always holds its residue array.
- Q eliminates fraction-free on the numerators N: a pivot updates a
  touched row ``R_i`` to ``pv * R_i - c * R_piv`` on Python ints and
  divides it by the gcd of its entries; the pivot rows are then scaled to
  a common denominator, and no Fraction is made.

Pivoting is first-nonzero with columns scanned left to right, so echelon
bases are deterministic and reproducible across runs.  The reduced echelon
form is unique, so every kernel returns the same entries as plain
Gauss-Jordan elimination over the field.

Every linear condition on an unknown matrix F is assembled from
:func:`sandwich_rows` (the matrix of F -> X F Y on row-major vec(F)) and
:func:`commute_rows` (the rows of F X == Y F).  A linear combination
sum c_a X_a of equal-shape matrices is one product of their stack, the
columns vec(X_a) (:func:`stack_vecs`), with the coefficients
(:func:`combine`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

# int64 products stay exact while dim * (p-1)^2 < 2^63; beyond this prime
# size we keep residues in object arrays of Python ints.
_INT64_PRIME_LIMIT = 1 << 20

# integer products over Q run in int64 while max|a| * max|b| * k stays below
# this bound: every partial sum of k products is then below 2^62 < 2^63.
_INT64_PRODUCT_LIMIT = 1 << 62


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The rationals (characteristic 0) or a prime field F_p."""

    kind: str  # "Q" | "Fp"
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind == "Q":
            if self.p is not None:
                raise ValueError("rationals carry no characteristic")
        elif self.kind == "Fp":
            if self.p is None or not (2 <= self.p < 2**31) or not _is_prime(self.p):
                raise ValueError(f"characteristic must be a prime in [2, 2^31): {self.p}")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("Q")

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec("Fp", p)

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == "Q" else self.p  # type: ignore[return-value]

    @property
    def dtype(self):
        if self.kind == "Fp" and self.p <= _INT64_PRIME_LIMIT:
            return np.int64
        return object

    # -- scalar helpers -------------------------------------------------

    def scalar(self, x) -> object:
        """Canonical field element from an int, Fraction or string."""
        if self.kind == "Q":
            return Fraction(x)
        if isinstance(x, str):
            x = int(x)
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"non-integer residue {x} over F_{self.p}")
            x = x.numerator
        return int(x) % self.p

    def inv_scalar(self, x):
        if self.kind == "Q":
            if x == 0:
                raise ZeroDivisionError("inverse of 0")
            return Fraction(1, 1) / x
        x = int(x) % self.p
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(x, self.p - 2, self.p)

    def format_scalar(self, x) -> str:
        if self.kind == "Q":
            f = Fraction(x)
            return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)
        return str(int(x) % self.p)

    # -- array helpers ---------------------------------------------------

    def asarray(self, data) -> np.ndarray:
        a = np.array(data, dtype=self.dtype)
        return self.normalize(a)

    def normalize(self, a: np.ndarray) -> np.ndarray:
        if self.kind == "Fp":
            # past the int64 prime limit residues live in object arrays, whose
            # products never overflow; an int64 input would keep int64 here
            if self.p > _INT64_PRIME_LIMIT and a.dtype != object:
                a = a.astype(object)
            return a % self.p
        if a.dtype != object:
            b = np.empty(a.shape, dtype=object)
            flat_b, flat_a = b.reshape(-1), a.reshape(-1)
            for i in range(flat_a.size):
                flat_b[i] = Fraction(flat_a[i])
            return b
        b = a.copy()
        flat = b.reshape(-1)
        for i in range(flat.size):
            if not isinstance(flat[i], Fraction):
                flat[i] = Fraction(flat[i])
        return b

    def zeros(self, shape) -> np.ndarray:
        if self.dtype is object:
            a = np.empty(shape, dtype=object)
            a[...] = self.scalar(0)
            return a
        return np.zeros(shape, dtype=np.int64)

    def __str__(self) -> str:
        return "Q" if self.kind == "Q" else f"F_{self.p}"


QQ = FieldSpec.rationals()


def GF(p: int) -> FieldSpec:
    return FieldSpec.prime(p)


def _fast_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron without its expand_dims overhead; hot path."""
    r1, c1 = a.shape
    r2, c2 = b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(r1 * r2, c1 * c2)


_EYE_CACHE: dict = {}


class Matrix:
    """Dense exact matrix over a :class:`FieldSpec`.

    Instances are treated as immutable; all operations return new matrices.
    """

    __slots__ = ("field", "a", "_q")

    def __init__(self, field: FieldSpec, data):
        self.field = field
        self.a = field.asarray(data) if not isinstance(data, np.ndarray) else field.normalize(data)
        if self.a.ndim != 2:
            raise ValueError(f"matrix data must be 2-d, got shape {self.a.shape}")
        self._q = _q_split(self.a) if field.kind == "Q" else None

    @classmethod
    def _raw(cls, field: FieldSpec, arr: Optional[np.ndarray], q: Optional[tuple] = None) -> "Matrix":
        """Wrap an already-normalized array without copying (trusted callers);
        ``q`` is its integer form over Q, if the caller has it, and with ``q``
        ``arr`` may be None: the array is then built when first read."""
        m = cls.__new__(cls)
        m.field = field
        if arr is not None:
            m.a = arr
        m._q = q
        return m

    def __getattr__(self, name):
        # reached only when a slot is empty: an F_p matrix's ``a`` is always
        # filled, so this runs for a Q matrix whose ``a`` was never read
        if name != "a":
            raise AttributeError(name)
        N, den, _ = self._q
        self.a = a = _q_from_ints(N, den)
        return a

    @classmethod
    def _from_ints(cls, field: FieldSpec, N: np.ndarray, den: int = 1) -> "Matrix":
        """The matrix N / den: over Q with its integer form in lowest terms;
        over F_p (den 1) with N reduced mod p."""
        if field.kind == "Q":
            return cls._raw(field, None, _q_lowest(N, den))
        return cls._raw(field, field.normalize(N))

    def _ints(self) -> tuple[np.ndarray, int, int]:
        """The integer form ``(N, den, max|N|)`` of a matrix over Q (see
        :func:`_q_split`), computed at most once per matrix."""
        if self._q is None:
            self._q = _q_split(self.a)
        return self._q

    def rearranged(self, move) -> "Matrix":
        """The matrix ``move(self.a)``, for a ``move`` that rearranges or
        selects entries (a reshape, a transpose, a choice of rows or
        columns); over Q the integer form moves instead, back in lowest
        terms."""
        q = self._q
        if q is None:
            return Matrix._raw(self.field, move(self.a))
        return Matrix._from_ints(self.field, move(q[0]), q[1])

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix._raw(field, field.zeros((rows, cols)))

    @staticmethod
    def eye(field: FieldSpec, n: int) -> "Matrix":
        key = (field, n)
        hit = _EYE_CACHE.get(key)
        if hit is None:
            arr = field.zeros((n, n))
            one = field.scalar(1)
            for i in range(n):
                arr[i, i] = one
            arr.setflags(write=False)
            q = None
            if field.kind == "Q":
                N = np.eye(n, dtype=np.int64)
                N.setflags(write=False)
                q = (N, 1, int(n > 0))
            hit = _EYE_CACHE[key] = (arr, q)
        return Matrix._raw(field, *hit)

    @staticmethod
    def from_rows(field: FieldSpec, rows: Sequence[Sequence]) -> "Matrix":
        n = len(rows)
        if n == 0:
            return Matrix.zeros(field, 0, 0)
        return Matrix(field, [[field.scalar(x) for x in r] for r in rows])

    @staticmethod
    def column(field: FieldSpec, vec) -> "Matrix":
        v = as_vector(field, vec).reshape(-1, 1)
        return Matrix._raw(field, v, _q_split(v) if field.kind == "Q" else None)

    @staticmethod
    def _joined(mats: Sequence["Matrix"], join) -> "Matrix":
        """``join`` of the matrices' arrays, for a ``join`` that only places
        entries; over Q of their numerators over the lcm of the denominators,
        which keeps lowest terms.  A zero block (bound 0) is left unscaled."""
        f = mats[0].field
        if f.kind != "Q":
            return Matrix._raw(f, join([m.a for m in mats]))
        forms = [m._ints() for m in mats]
        den = math.lcm(*(d for _, d, _ in forms))
        bound = max(b * (den // d) for _, d, b in forms)
        dtype = np.int64 if bound < (1 << 63) else object
        N = join([N.astype(dtype) * (den // d) if b else N.astype(dtype) for N, d, b in forms])
        return Matrix._raw(f, None, (N, den, bound))

    @staticmethod
    def hstack(mats: Sequence["Matrix"]) -> "Matrix":
        return Matrix._joined(mats, np.hstack)

    @staticmethod
    def vstack(mats: Sequence["Matrix"]) -> "Matrix":
        return Matrix._joined(mats, np.vstack)

    # -- basic structure -------------------------------------------------

    @property
    def shape(self):
        q = self._q
        return self.a.shape if q is None else q[0].shape

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    def copy(self) -> "Matrix":
        return self.rearranged(np.copy)

    def row(self, i: int) -> np.ndarray:
        return self.a[i, :].copy()

    def col(self, j: int) -> np.ndarray:
        return self.a[:, j].copy()

    def transpose(self) -> "Matrix":
        return self.rearranged(lambda x: x.T.copy())

    @property
    def T(self) -> "Matrix":
        return self.transpose()

    def submatrix(self, rows, cols) -> "Matrix":
        ix = np.ix_(list(rows), list(cols))
        return self.rearranged(lambda x: x[ix])

    def support(self) -> np.ndarray:
        """Boolean array of the nonzero entries."""
        if self.field.kind == "Q":
            return self._ints()[0] != 0
        return self.a != 0

    def is_zero(self) -> bool:
        if self.field.kind == "Q":
            return self._ints()[2] == 0
        return not self.a.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.shape != other.shape:
            return False
        if self.field.kind == "Q":
            # the integer form of the reduced entries is canonical
            (na, da, _), (nb, db, _) = self._ints(), other._ints()
            return da == db and bool(np.array_equal(na, nb))
        return bool(np.array_equal(self.a, other.a))

    def __hash__(self):
        return hash((self.field, self.shape, tuple(self.field.format_scalar(x) for x in self.a.reshape(-1))))

    def __repr__(self) -> str:
        return f"Matrix({self.field}, {self.a.tolist()!r})"

    # -- arithmetic --------------------------------------------------------

    def _wrap(self, arr: np.ndarray) -> "Matrix":
        """Wrap the result of F_p arithmetic on residues, reduced mod p."""
        return Matrix._raw(self.field, self.field.normalize(arr))

    def _q_sum(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other over Q, on numerators over the lcm of the two
        denominators."""
        (na, da, ma), (nb, db, mb) = self._ints(), other._ints()
        den = math.lcm(da, db)
        return Matrix._from_ints(self.field, _q_combine(((na, ma, den // da),
                                                         (nb, mb, sign * (den // db)))), den)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.field.kind == "Q":
            return self._q_sum(other, 1)
        return self._wrap(self.a + other.a)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.field.kind == "Q":
            return self._q_sum(other, -1)
        return self._wrap(self.a - other.a)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = self.field.scalar(c)
        if self.field.kind == "Q":
            N, den, bound = self._ints()
            return Matrix._from_ints(self.field, _q_combine(((N, bound, c.numerator),)),
                                     den * c.denominator)
        return self._wrap(self.a * c)

    def __matmul__(self, other):
        """Product with a Matrix (a Matrix) or a vector (a reduced array).

        F_p products of rows * k * cols >= 4096 multiply-adds run on float64
        BLAS while ``k * (p-1)^2 < 2^53``: every partial sum is then an exact
        integer, whatever the summation order or thread count.  The rest run
        in int64 (object for p > 2^20).  Measured on one Xeon thread, F_3:

            rows x k x cols   int64     float64
            4 x 4 x 4         3.0 us    4.6 us
            16 x 16 x 16      9.0 us    7.8 us
            64 x 64 x 64      307 us    42 us
            81 x 729 x 81     5.8 ms    0.86 ms
        """
        f = self.field
        if f.kind == "Q":
            x = self._ints()
            if isinstance(other, Matrix):
                return Matrix._from_ints(f, *_q_product(np.matmul, x, other._ints(), x[0].shape[1]))
            return _q_from_ints(*_q_product(np.matmul, x, _q_split(as_vector(f, other)),
                                            x[0].shape[1]))
        a = self.a
        b = other.a if isinstance(other, Matrix) else as_vector(f, other)
        if a.shape[0] * b.size >= 4096 and a.shape[1] * (f.p - 1) ** 2 < 1 << 53:
            out = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % f.p
        else:
            out = a @ b % f.p
        return Matrix._raw(f, out) if isinstance(other, Matrix) else out

    def kron(self, other: "Matrix") -> "Matrix":
        f = self.field
        if f.kind == "Q":
            return Matrix._from_ints(f, *_q_product(_fast_kron, self._ints(), other._ints(), 1))
        if f.p == 2:
            return Matrix._raw(f, _fast_kron(self.a, other.a))  # a product of bits is a bit
        return self._wrap(_fast_kron(self.a, other.a))

    # -- echelon form and friends ---------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        E, den, piv = self._echelon()
        return Matrix._from_ints(self.field, E, den), tuple(piv)

    def _echelon(self) -> tuple[np.ndarray, int, list[int]]:
        """``(E, den, pivots)``: the reduced echelon form is E / den, with E
        reduced residues (den 1) over F_p and integers over Q."""
        if self.field.kind == "Q":
            E, piv = _rref(self.field, self._ints()[0])
            return E, (E[0, piv[0]] if piv else 1), piv
        E, piv = _rref(self.field, self.a)
        return E, 1, piv

    def rank(self) -> int:
        return len(self._echelon()[2])

    def _kernel(self) -> tuple["Matrix", list[int]]:
        """The kernel basis of :meth:`nullspace` and its free columns, on
        which the basis is the identity."""
        E, den, piv = self._echelon()
        pivots = set(piv)
        free = [j for j in range(self.ncols) if j not in pivots]
        K = np.zeros((self.ncols, len(free)), dtype=E.dtype)
        K[free, range(len(free))] = den
        K[piv, :] = -E[:len(piv), free]
        return Matrix._from_ints(self.field, K, den), free

    def nullspace(self) -> "Matrix":
        """Matrix whose columns are a deterministic basis of the kernel."""
        return self._kernel()[0]

    def solve(self, b) -> Optional[np.ndarray]:
        """A particular solution of ``self @ x = b`` (free vars 0), or None."""
        bv = as_vector(self.field, b)
        if bv.shape[0] != self.nrows:
            raise ValueError(f"rhs length {bv.shape[0]} != rows {self.nrows}")
        X = self.solve_matrix(Matrix._raw(self.field, bv.reshape(-1, 1)))
        return None if X is None else X.a.reshape(-1)

    def solve_matrix(self, B: "Matrix") -> Optional["Matrix"]:
        """Columnwise solve of ``self @ X = B``; None if any column fails."""
        if B.nrows != self.nrows:
            raise ValueError("row mismatch")
        E, den, piv = Matrix.hstack([self, B])._echelon()
        n = self.ncols
        if piv and piv[-1] >= n:
            return None
        X = np.zeros((n, B.ncols), dtype=E.dtype)
        X[piv, :] = E[:len(piv), n:]
        return Matrix._from_ints(self.field, X, den)

    def inverse(self) -> Optional["Matrix"]:
        if self.nrows != self.ncols:
            return None
        X = self.solve_matrix(Matrix.eye(self.field, self.nrows))
        if X is None:
            return None
        if X @ self != Matrix.eye(self.field, self.nrows):
            return None
        return X

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def column_space_contains(self, b) -> bool:
        return self.solve(b) is not None


def as_vector(field: FieldSpec, data) -> np.ndarray:
    if isinstance(data, np.ndarray) and data.ndim == 1:
        return field.normalize(data)
    v = field.asarray(list(data))
    if v.ndim != 1:
        raise ValueError("expected a vector")
    return v


def basis_vector(field: FieldSpec, n: int, i: int) -> np.ndarray:
    v = field.zeros((n,))
    v[i] = field.scalar(1)
    return v


# -- linear conditions on an unknown matrix F (row-major vec) -----------------

def sandwich_rows(X: Matrix, Y: Matrix) -> Matrix:
    """The matrix of F -> X F Y on row-major vec(F): vec(X F Y) = (X kron Y^T) vec(F)."""
    return X.kron(Y.T)


def commute_rows(X: Matrix, Y: Matrix) -> Matrix:
    """The rows of F X == Y F over row-major vec(F), for F of shape
    (rows of Y) x (rows of X)."""
    k = X.field
    return sandwich_rows(Matrix.eye(k, Y.nrows), X) - sandwich_rows(Y, Matrix.eye(k, X.nrows))


def first_difference(X: Matrix, Y: Matrix) -> Optional[int]:
    """The first column in which X and Y (of one shape) differ; None if X == Y."""
    if X == Y:
        return None
    return int(np.flatnonzero((X - Y).support().any(axis=0))[0])


# -- stacks: equal-shape matrices X_a as the columns vec(X_a) of one matrix ---

def stack_vecs(mats: Sequence[Matrix]) -> Matrix:
    """The matrices X_a, all of one shape, as the columns vec(X_a)
    (row-major) of one matrix."""
    return Matrix._joined(mats, lambda xs: np.stack(xs, axis=-1).reshape(-1, len(xs)))


def combine(stack: Matrix, coeffs, shape: tuple[int, int]) -> Matrix:
    """sum_a coeffs[a] X_a as a ``shape`` matrix, for the columns vec(X_a) of
    ``stack``: one product with the coefficient column."""
    return (stack @ Matrix.column(stack.field, coeffs)).rearranged(lambda x: x.reshape(shape))


def unstack(stack: Matrix, shape: tuple[int, int]) -> list[Matrix]:
    """The ``shape`` matrices X_a whose vec(X_a) are the columns of ``stack``."""
    return [stack.rearranged(lambda x: x[:, a].reshape(shape)) for a in range(stack.ncols)]


_NUMERATOR = operator.attrgetter("numerator")
_DENOMINATOR = operator.attrgetter("denominator")


def _q_split(a: np.ndarray) -> tuple[np.ndarray, int, int]:
    """The integer form of a Fraction array: numerators N over the least
    common denominator D of its (reduced) entries, and max|N|; a = N / D.

    N is int64 when ``max|N| < 2^63`` and an object array of Python ints
    otherwise."""
    flat = a.reshape(-1).tolist()
    nums, dens = list(map(_NUMERATOR, flat)), list(map(_DENOMINATOR, flat))
    den = math.lcm(*dens)
    if den != 1:
        nums = [x * (den // d) for x, d in zip(nums, dens)]
    bound = max(map(abs, nums), default=0)
    dtype = np.int64 if bound < (1 << 63) else object
    return np.array(nums, dtype=dtype).reshape(a.shape), den, bound


def _q_from_ints(N: np.ndarray, den: int) -> np.ndarray:
    """The Fraction array N / den, building one Fraction per distinct entry."""
    vals, inv = np.unique(N.reshape(-1), return_inverse=True)
    fracs = np.empty(vals.size, dtype=object)
    fracs[:] = [Fraction(v, den) for v in vals.tolist()]
    return fracs[inv.reshape(-1)].reshape(N.shape)


def _q_lowest(N: np.ndarray, den: int) -> tuple[np.ndarray, int, int]:
    """The integer form of the matrix N / den, as :func:`_q_split` computes it
    from the reduced entries: N and den divided by their gcd, which makes den
    the least common denominator, and N int64 exactly when max|N| < 2^63."""
    if N.dtype != object:
        bound = int(np.abs(N).max()) if N.size else 0
        if bound == 0:
            return N, 1, 0
        if den != 1:
            g = math.gcd(den, int(np.gcd.reduce(N, axis=None)))
            if g != 1:
                N, den, bound = N // g, den // g, bound // g
        return N, den, bound
    flat = N.reshape(-1).tolist()
    g = math.gcd(den, *flat)
    if g != 1:
        flat = [x // g for x in flat]
        den //= g
    bound = max(map(abs, flat), default=0)
    return np.array(flat, dtype=np.int64 if bound < (1 << 63) else object).reshape(N.shape), \
        den, bound


def _q_combine(terms) -> np.ndarray:
    """``sum(s * N)`` over the ``(N, max|N|, s)`` of ``terms``, s Python ints:
    in int64 while ``sum(|s| * max(max|N|, 1)) < 2^62`` bounds every entry
    and scale factor, in Python ints otherwise."""
    fits = all(N.dtype == np.int64 for N, _, _ in terms) and \
        sum(abs(s) * max(bound, 1) for _, bound, s in terms) < _INT64_PRODUCT_LIMIT
    out = 0
    for N, _, s in terms:
        out = out + (N if fits else N.astype(object)) * s
    return out


def _q_product(op, x: tuple, y: tuple, k: int) -> tuple[np.ndarray, int]:
    """``op(N_x, N_y)`` and its denominator, for integer forms x and y and a
    bilinear op whose output entries sum at most k products each (matmul:
    the inner dimension; kron: 1)."""
    (na, da, ma), (nb, db, mb) = x, y
    if na.dtype == nb.dtype == np.int64 and ma * mb * k < _INT64_PRODUCT_LIMIT:
        return op(na, nb), da * db
    return op(na.astype(object), nb.astype(object)), da * db


def _rref(field: FieldSpec, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced echelon form and pivot columns of ``a``, which holds reduced
    residues over F_p and the integer numerators of a matrix over Q; over Q
    the result is integers over a common denominator (see :func:`_rref_q`)."""
    if a.size == 0:
        return a.copy(), []
    if field.kind == "Q":
        return _rref_q(a)
    if field.p == 2 and a.dtype == np.int64:
        return _rref_gf2_packed(a)
    return _rref_fp(a.copy(), field.p)


def _rref_fp(R: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """F_p reduced echelon form of the reduced residue array R, in place.

    The pivot row is zero left of the pivot column, so subtracting its
    multiples changes only the columns from the pivot on, and only in the
    rows with a nonzero entry in the pivot column; every other entry keeps
    its reduction."""
    m, n = R.shape
    pivots: list[int] = []
    row = 0
    for col in range(n):
        spot = np.flatnonzero(R[row:, col])
        if spot.size == 0:
            continue
        piv = row + int(spot[0])
        if piv != row:
            R[[row, piv], :] = R[[piv, row], :]
        inv = pow(int(R[row, col]), p - 2, p)
        if inv != 1:
            R[row, col:] = R[row, col:] * inv % p
        colvals = R[:, col].copy()
        colvals[row] = 0
        nz = np.flatnonzero(colvals)
        if nz.size:
            R[nz, col:] = (R[nz, col:] - np.outer(colvals[nz], R[row, col:])) % p
        pivots.append(col)
        row += 1
        if row == m:
            break
    return R, pivots


def _rref_q(N: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced echelon form over Q, by fraction-free elimination on the
    integer numerators N of a matrix over a common denominator (its integer
    form): the denominator scales every row alike, so the echelon form of N
    is the matrix's.

    A pivot with entry pv replaces every row R_i it touches (entry c in the
    pivot column) by ``pv * R_i - c * R_piv`` divided by the gcd of its
    entries, which keeps its span unchanged.  The whole row is updated: a
    touched row above the pivot row is nonzero left of the pivot column, and
    its scaling by pv must reach those entries too.  At the end each pivot
    row is scaled by L / pv, L the lcm of the pivot entries: the result, an
    object array of Python ints, is the echelon form times L, and every
    pivot entry reads L."""
    m, n = N.shape
    R = N.astype(object)
    pivots: list[int] = []
    row = 0
    for col in range(n):
        spot = np.flatnonzero(R[row:, col])
        if spot.size == 0:
            continue
        piv = row + int(spot[0])
        if piv != row:
            R[[row, piv], :] = R[[piv, row], :]
        colvals = R[:, col].copy()
        colvals[row] = 0
        nz = np.flatnonzero(colvals)
        if nz.size:
            block = R[nz, :] * R[row, col] - np.outer(colvals[nz], R[row, :])
            g = np.gcd.reduce(block, axis=1)
            g[g == 0] = 1
            R[nz, :] = block // g[:, None]
        pivots.append(col)
        row += 1
        if row == m:
            break
    pvs = [R[r, col] for r, col in enumerate(pivots)]
    lcm = math.lcm(*pvs)
    R[:len(pvs)] *= np.array([lcm // pv for pv in pvs], dtype=object)[:, None]
    return R, pivots


def _rref_gf2_packed(R: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """GF(2) reduced echelon form of the 0/1 array R, computed on rows
    packed into Python-int bitmasks (bit j = column j); R is not modified.

    Rows are deduplicated first; that is safe because the reduced echelon
    form is canonical for the row space, so the result and every pivot
    choice match row-by-row elimination exactly."""
    m, n = R.shape
    W = (n + 63) // 64
    padded = np.zeros((m, W * 64), dtype=np.uint8)
    padded[:, :n] = R.astype(np.uint8)
    # bit j of a row's little-endian words is column j, on any host
    words = np.packbits(padded, axis=1, bitorder="little").view("<u8").reshape(m, W)
    if W == 1:
        packed = words[:, 0].tolist()
    else:
        packed = []
        for row_words in words.tolist():
            x = 0
            for w in range(W):
                x |= row_words[w] << (64 * w)
            packed.append(x)
    rows = sorted(set(packed) - {0})
    mm = len(rows)
    pivots: list[int] = []
    r = 0
    for col in range(n):
        bit = 1 << col
        piv = -1
        for i in range(r, mm):
            if rows[i] & bit:
                piv = i
                break
        if piv < 0:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        for i in range(mm):
            if i != r and rows[i] & bit:
                rows[i] ^= pr
        pivots.append(col)
        r += 1
        if r == mm:
            break
    out = np.zeros((m, n), dtype=np.int64)
    if pivots:
        back = np.zeros((len(pivots), W * 8), dtype=np.uint8)
        for i in range(len(pivots)):
            back[i, :] = np.frombuffer(rows[i].to_bytes(W * 8, "little"), dtype=np.uint8)
        out[: len(pivots), :] = np.unpackbits(back, axis=1, bitorder="little")[:, :n]
    return out, pivots
