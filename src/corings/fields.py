"""Exact scalars over Q or F_p, dense exact linear algebra, and the
kernel of sparse relation rows.

Scalars are ``fractions.Fraction`` over the rationals and reduced integer
residues over a prime field.  Matrices provide reduced row echelon form,
solving, nullspaces and inverses with no rounding anywhere.

Every :class:`Matrix` holds one integer form: numerators ``N`` over a
positive denominator ``den``, with a ``bound`` on |N|.

- Over F_p, den is 1 and N is the reduced residue array, which is also
  the matrix's array ``a``.  It has the field's dtype: int64, or Python
  ints in an object array past p = 2^20, where int64 products could
  overflow.  Its bound is always p - 1.
- Over Q, N / den is in lowest terms: the numerators over the least
  common denominator of the reduced entries, which is canonical, and the
  bound is max|N|.  N is int64 when the bound is below 2^63 and Python
  ints otherwise.  The Fraction array ``a``, one Fraction per distinct
  value, is built when something first reads it and is kept from then on,
  read-only: a write into it could not reach N.

Comparison, hashing, stacking, selection and arithmetic read only the
integer form, in one code path for both fields: ``==`` compares
``(den, N)``, ``+``, ``-`` and ``scale`` combine numerators scaled to a
common denominator, and ``@`` and ``kron`` multiply numerators and
denominators.  Each result then takes the one field-specific step,
:meth:`Matrix._from_ints`.  Over F_p it reduces mod p only when the bound
says an entry can reach p: a Kronecker product over F_2 (bound 1) is left
as it is, and a difference (bound 2(p - 1) >= p) is always reduced.
Over Q it brings N / den to lowest terms.

Integer steps run where a bound proves them exact.  A product whose
entries sum k products each has bound ``k * max|a| * max|b|``, and a sum
the sum of its scaled bounds.  An operand's bound counts as at least 1
there, so that it also bounds the factor that scales it: a zero matrix
scaled past 2^62 is scaled in Python ints.

- Below 2^53, a product of 4096 or more multiply-adds runs on float64
  BLAS: every partial sum is an exact integer, whatever the summation
  order or thread count, as in FFLAS-FFPACK (Dumas, Giorgi & Pernet,
  TOMS 2008).
- Below 2^62, sums and products run in int64: every partial sum stays
  below 2^63.
- Past 2^62 they run in Python ints.

Each field has one exact elimination kernel for dense systems, behind
:func:`_rref`:

- F_2 inserts rows packed into Python-int bitmasks into a basis keyed by
  leading column, then back-substitutes in decreasing lead order.
- F_p (p odd) eliminates on residue arrays.  After each pivot only the rows
  that the pivot touched are updated and reduced mod p; every other row
  is already reduced.
- Q eliminates fraction-free on the numerators N: a pivot updates a
  touched row ``R_i`` to ``pv * R_i - c * R_piv`` on Python ints and
  divides it by the gcd of its entries; the pivot rows are then scaled to
  a common denominator, and no Fraction is made.

Pivoting is first-nonzero with columns scanned left to right, so echelon
bases are deterministic and reproducible across runs.  The reduced echelon
form is unique, so every kernel returns the same entries as plain
Gauss-Jordan elimination over the field.

The balancing relations of a tensor quotient, ``X (x) I - I (x) Y``, have a
few nonzeros per row, and are never written dense: a :class:`SparseRows`
holds only their nonzero rows (:func:`kron_eye_difference_rows`), and
:meth:`SparseRows.kernel_rows` eliminates them row by row into a basis
keyed by leading column (structured Gaussian elimination, LaMacchia &
Odlyzko, CRYPTO '90, with the column order fixed so that the echelon form
is the canonical one).  F_2 rows are Python-int bitmasks and share the
insertion and back-substitution of :func:`_rref_gf2_packed`
(:func:`_gf2_basis`); F_p rows are dicts {column: residue}
(:func:`_fp_basis`); Q rows are dicts of Python ints, eliminated
fraction-free with a gcd division per row (:func:`_q_basis`).  The kernel
basis is then filled from the echelon rows' nonzeros, equal entry for
entry to :meth:`Matrix.nullspace` of the dense rows.

Every linear condition on an unknown matrix F is assembled from
:func:`sandwich_rows` (the matrix of F -> X F Y on row-major vec(F)) and
:func:`commute_rows` (the rows of F X == Y F).  A linear combination
sum c_a X_a of equal-shape matrices is one product of their stack, the
columns vec(X_a) (:func:`stack_vecs`), with the coefficients
(:func:`combine`).  ``P (x) I_d`` is applied to a matrix from either side
by one product with the matrix reshaped (:func:`kron_eye_times`,
:func:`times_kron_eye`), never by forming the kron.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as _field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

# int64 products stay exact while dim * (p-1)^2 < 2^63; beyond this prime
# size we keep residues in object arrays of Python ints.
_INT64_PRIME_LIMIT = 1 << 20

# integer sums and products run in int64 while their bound is below 2^62,
# and on float64 BLAS while it is below 2^53 (see the module docstring)
_INT64_LIMIT, _FLOAT64_LIMIT = 1 << 62, 1 << 53

# integer dtypes whose every value int64 holds: cast before reducing mod p
_INT64_WIDTHS = frozenset(map(np.dtype, (np.bool_, np.int8, np.int16, np.int32, np.int64,
                                         np.uint8, np.uint16, np.uint32)))


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
    # the dtype of arrays of field elements: int64 residues up to p = 2^20,
    # else Python objects (Python-int residues, or Fractions over Q)
    dtype: object = _field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "Q":
            if self.p is not None:
                raise ValueError("rationals carry no characteristic")
        elif self.kind == "Fp":
            if self.p is None or not (2 <= self.p < 2**31) or not _is_prime(self.p):
                raise ValueError(f"characteristic must be a prime in [2, 2^31): {self.p}")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")
        small = self.p is not None and self.p <= _INT64_PRIME_LIMIT
        object.__setattr__(self, "dtype", np.int64 if small else object)

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec("Q")

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec("Fp", p)

    # -- scalar helpers -------------------------------------------------

    def scalar(self, x) -> object:
        """Canonical field element from an int, Fraction, float or string;
        over F_p a value that is not an integer raises ValueError."""
        if self.kind == "Q":
            return Fraction(x)
        if isinstance(x, str):
            x = int(x)
        elif not isinstance(x, int):
            if isinstance(x, float) and not x.is_integer():  # 1.5, inf, nan
                raise ValueError(f"non-integer residue {x} over F_{self.p}")
            x = Fraction(x)
            if x.denominator != 1:
                raise ValueError(f"non-integer residue {x} over F_{self.p}")
            x = x.numerator
        return x % self.p

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
        """The canonical array of an array or of nested lists of scalars."""
        return self.normalize(_scalars(data))

    def normalize(self, a: np.ndarray) -> np.ndarray:
        """The canonical array of an array of scalars: Fractions over Q;
        over F_p residues of the field's dtype, where an entry that is not
        an integer raises ValueError."""
        if self.kind == "Fp":
            if a.dtype in _INT64_WIDTHS:
                return a.astype(self.dtype, copy=False) % self.p
            flat = [self.scalar(x) for x in a.reshape(-1).tolist()]
            return np.array(flat, dtype=self.dtype).reshape(a.shape)
        out = np.empty(a.shape, dtype=object)
        out.reshape(-1)[:] = [x if type(x) is Fraction else Fraction(x)
                              for x in a.reshape(-1).tolist()]
        return out

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


def _scalars(data) -> np.ndarray:
    """An array, or nested lists of scalars as an array with no rounding:
    integers that int64 holds become int64, and numpy's float or string
    guess for anything else (say, an integer past int64 next to a negative
    one) is replaced by the Python objects themselves."""
    if isinstance(data, np.ndarray):
        return data
    a = np.array(data)
    return a if a.dtype == object or a.dtype in _INT64_WIDTHS else np.array(data, dtype=object)


def _vector(data) -> np.ndarray:
    v = _scalars(data if isinstance(data, np.ndarray) else list(data))
    if v.ndim != 1:
        raise ValueError("expected a vector")
    return v


def _fast_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron without its expand_dims overhead; hot path."""
    r1, c1 = a.shape
    r2, c2 = b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(r1 * r2, c1 * c2)


_EYE_CACHE: dict = {}


class Matrix:
    """Dense exact matrix over a :class:`FieldSpec`: the numerators ``N``
    over ``den``, with ``bound`` on |N| (see the module docstring).

    Instances are treated as immutable; all operations return new matrices.
    """

    __slots__ = ("field", "a", "N", "den", "bound")

    def __init__(self, field: FieldSpec, data):
        a = field.asarray(data)
        if a.ndim != 2:
            raise ValueError(f"matrix data must be 2-d, got shape {a.shape}")
        self.field, self.a = field, a
        if field.kind == "Fp":
            self.N, self.den, self.bound = a, 1, field.p - 1
        else:  # N / den is the matrix, so a write into ``a`` must raise
            self.N, self.den, self.bound = _q_split(a)
            a.setflags(write=False)

    def __getattr__(self, name):
        # reached only when a slot is empty: an F_p matrix's ``a`` is N, so
        # this runs for a Q matrix whose ``a`` was never read; it is
        # read-only, as a write into it would not reach N
        if name != "a":
            raise AttributeError(name)
        self.a = a = _q_from_ints(self.N, self.den)
        a.setflags(write=False)
        return a

    @staticmethod
    def _from_ints(field: FieldSpec, N: np.ndarray, den: int = 1,
                   bound: Optional[int] = None) -> "Matrix":
        """The matrix N / den, for an integer array N with |N| <= bound
        (None: not known).  Over F_p (den 1) N, of the field's dtype, is
        reduced mod p unless bound < p.  Only nonnegative results skip the
        reduction: every F_p matrix has bound p - 1, so a difference, the
        one step that makes negative entries, has bound 2(p - 1) >= p.
        Over Q N / den is brought to lowest terms."""
        m = object.__new__(Matrix)
        m.field = field
        if field.kind == "Q":
            m.N, m.den, m.bound = _q_lowest(N, den)
            return m
        p = field.p
        if bound is None or bound >= p:
            N = N % p
        m.a = m.N = N
        m.den, m.bound = 1, p - 1
        return m

    def rearranged(self, move) -> "Matrix":
        """The matrix ``move(self.a)``, for a ``move`` that rearranges or
        selects entries (a reshape, a transpose, a choice of rows or
        columns); the numerators move, and over Q come back in lowest
        terms."""
        return Matrix._from_ints(self.field, move(self.N), self.den, self.bound)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Matrix":
        return Matrix._from_ints(field, np.zeros((rows, cols), dtype=field.dtype), 1, 0)

    @staticmethod
    def eye(field: FieldSpec, n: int) -> "Matrix":
        """The identity, one shared read-only instance per field and size."""
        key = (field, n)
        hit = _EYE_CACHE.get(key)
        if hit is None:
            hit = _EYE_CACHE[key] = Matrix._from_ints(field, np.eye(n, dtype=field.dtype), 1, 1)
            hit.N.setflags(write=False)
        return hit

    @staticmethod
    def from_rows(field: FieldSpec, rows: Sequence[Sequence]) -> "Matrix":
        return Matrix(field, rows) if len(rows) else Matrix.zeros(field, 0, 0)

    @staticmethod
    def column(field: FieldSpec, vec) -> "Matrix":
        return Matrix(field, _vector(vec).reshape(-1, 1))

    @staticmethod
    def _joined(mats: Sequence["Matrix"], join) -> "Matrix":
        """``join`` of the matrices' numerators, for a ``join`` that only
        places entries, over the lcm of their denominators, which keeps
        lowest terms."""
        den = math.lcm(*[m.den for m in mats])
        bound = max([(m.bound or 1) * (den // m.den) for m in mats])
        dtype = np.int64 if bound < (1 << 63) else object
        N = join([m.N if m.den == den else m.N.astype(dtype) * (den // m.den) for m in mats])
        return Matrix._from_ints(mats[0].field, N, den, bound)

    @staticmethod
    def hstack(mats: Sequence["Matrix"]) -> "Matrix":
        return Matrix._joined(mats, np.hstack)

    @staticmethod
    def vstack(mats: Sequence["Matrix"]) -> "Matrix":
        return Matrix._joined(mats, np.vstack)

    # -- basic structure -------------------------------------------------

    @property
    def shape(self):
        return self.N.shape

    @property
    def nrows(self) -> int:
        return self.N.shape[0]

    @property
    def ncols(self) -> int:
        return self.N.shape[1]

    def copy(self) -> "Matrix":
        return self.rearranged(np.copy)

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
        return self.N != 0

    def is_zero(self) -> bool:
        return not self.N.any()

    def __eq__(self, other) -> bool:
        # the integer form is canonical: equal matrices have equal (den, N)
        if not isinstance(other, Matrix):
            return NotImplemented
        na, nb = self.N, other.N
        return self.field == other.field and self.den == other.den and \
            na.shape == nb.shape and bool((na == nb).all())

    def __hash__(self):
        N = self.N
        return hash((self.field, self.den, N.shape, tuple(N.reshape(-1).tolist())))

    def __repr__(self) -> str:
        return f"Matrix({self.field}, {self.a.tolist()!r})"

    # -- arithmetic --------------------------------------------------------

    def _plus(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other, on numerators scaled by sa and sb to the lcm
        of the two denominators."""
        na, nb, da, db = self.N, other.N, self.den, other.den
        den = da if da == db else math.lcm(da, db)
        sa, sb = den // da, den // db
        bound = (self.bound or 1) * sa + (other.bound or 1) * sb
        if bound >= _INT64_LIMIT:
            na, nb = na.astype(object), nb.astype(object)
        na, nb = (na if sa == 1 else na * sa), (nb if sb == 1 else nb * sb)
        return Matrix._from_ints(self.field, na + nb if sign > 0 else na - nb, den, bound)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = self.field.scalar(c)
        bound = (self.bound or 1) * abs(c.numerator)
        N = self.N if bound < _INT64_LIMIT else self.N.astype(object)
        return Matrix._from_ints(self.field, N * c.numerator, self.den * c.denominator, bound)

    def _product(self, op, other: "Matrix", k: int) -> "Matrix":
        """``op`` of the two matrices' numerators, for a bilinear ``op``
        whose output entries sum at most k products each (matmul: the
        inner dimension; kron: 1), over the product of the denominators.

        Products of rows * k * cols >= 4096 multiply-adds run on float64
        BLAS while the bound is below 2^53.  Measured on one Xeon thread
        over F_3 (int64 against float64):

            rows x k x cols   int64     float64
            4 x 4 x 4         3.0 us    4.6 us
            16 x 16 x 16      9.0 us    7.8 us
            64 x 64 x 64      307 us    42 us
            81 x 729 x 81     5.8 ms    0.86 ms
        """
        na, nb = self.N, other.N
        bound = (self.bound or 1) * (other.bound or 1) * k
        if bound >= _INT64_LIMIT:
            N = op(na.astype(object), nb.astype(object))
        elif len(na) * nb.size >= 4096 and op is np.matmul and bound < _FLOAT64_LIMIT:
            N = (na.astype(np.float64) @ nb.astype(np.float64)).astype(np.int64).astype(na.dtype)
        else:
            N = op(na, nb)
        return Matrix._from_ints(self.field, N, self.den * other.den, bound)

    def __matmul__(self, other):
        """Product with a Matrix (a Matrix) or a vector (a reduced array)."""
        if isinstance(other, Matrix):
            return self._product(np.matmul, other, len(other.N))
        col = Matrix.column(self.field, other)
        return self._product(np.matmul, col, len(col.N)).a.reshape(-1)

    def kron(self, other: "Matrix") -> "Matrix":
        return self._product(_fast_kron, other, 1)

    # -- echelon form and friends ---------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        E, den, piv = self._echelon()
        return Matrix._from_ints(self.field, E, den), tuple(piv)

    def _echelon(self) -> tuple[np.ndarray, int, list[int]]:
        """``(E, den, pivots)``: the reduced echelon form is E / den, and
        every pivot entry of E is den (1 over F_p)."""
        E, piv = _rref(self.field, self.N)
        return E, (int(E[0, piv[0]]) if piv else 1), piv

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
        B = Matrix.column(self.field, b)
        if B.nrows != self.nrows:
            raise ValueError(f"rhs length {B.nrows} != rows {self.nrows}")
        X = self.solve_matrix(B)
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
    return field.normalize(_vector(data))


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


# -- sparse rows: the balancing relations, eliminated by their nonzeros --------

class SparseRows(NamedTuple):
    """A matrix over ``field`` with ``ncols`` columns, by its nonzero rows:
    over F_2 Python-int bitmasks (bit j is column j), else dicts {column:
    entry} of nonzero integers, reduced residues over F_p.  Over Q a row is
    an integer multiple of the matrix's row, which keeps the row space."""

    field: FieldSpec
    rows: list
    ncols: int

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def kernel_rows(self) -> tuple[Matrix, list[int]]:
        """The kernel basis of :meth:`Matrix.nullspace`, transposed, and its
        free columns: the identity on the free columns, and minus the
        reduced echelon rows' free entries on the pivot columns, filled from
        the nonzeros of the echelon rows (:func:`_gf2_basis`,
        :func:`_fp_basis`, :func:`_q_basis`)."""
        field, n = self.field, self.ncols
        den, nz = 1, []     # nz: (pivot column, free column, entry of the kernel)
        if field.kind == "Q":
            basis = _q_basis(self.rows)
            den = math.lcm(*[row[lead] for lead, row in basis.items()])
            nz = [(lead, c, -v * (den // row[lead]))
                  for lead, row in basis.items() for c, v in row.items() if c != lead]
        elif field.p == 2:
            basis = set()
            for lead, x in _gf2_basis(self.rows).items():
                col = lead.bit_length() - 1
                basis.add(col)
                x ^= lead
                while x:
                    bit = x & -x
                    nz.append((col, bit.bit_length() - 1, 1))
                    x ^= bit
        else:
            p = field.p
            basis = _fp_basis(self.rows, p)
            nz = [(lead, c, p - v) for lead, row in basis.items() for c, v in row.items()
                  if c != lead]
        free = [j for j in range(n) if j not in basis]   # basis: the pivot columns
        if field.kind == "Q":
            big = max([den, *[abs(v) for _, _, v in nz]]) >= 1 << 63
            K = np.zeros((len(free), n), dtype=object if big else np.int64)
        else:
            K = field.zeros((len(free), n))
        K[range(len(free)), free] = den
        if nz:
            at = np.empty(n, dtype=np.intp)
            at[free] = range(len(free))
            piv, col, vals = zip(*nz)
            K[at[list(col)], piv] = vals
        return Matrix._from_ints(field, K, den, None if field.kind == "Q" else field.p - 1), free


def kron_eye_difference_rows(field: FieldSpec, pairs: Sequence[tuple[Matrix, Matrix]],
                             ncols: int) -> SparseRows:
    """The nonzero rows of the blocks ``X (x) I_n - I_m (x) Y``, one block
    for each pair (R, L) of an m x m and an n x n matrix, X = R^T and Y =
    L^T (so ``ncols = m n``): the rows (m.a) (x) n - m (x) (a.n) when R and
    L are the actions of a.

    Row (i, j) holds X[i, i'] at column (i', j) and -Y[j, j'] at column
    (i, j'); the two terms meet only at (i, j), where the entry is
    X[i, i] - Y[j, j].  So each row is written from row i of X and row j of
    Y, and no dense block is made.  Over Q a block is scaled to integers by
    the lcm of the two denominators."""
    rows: list = []
    p = field.p
    for R, L in pairs:
        n = L.nrows
        X, Y = R.N.T.tolist(), L.N.T.tolist()
        if p == 2:
            # row (i, j) is (X_i << j) ^ (Y_j << i n), X_i holding bit i' n
            # for each X[i, i'] = 1 and Y_j bit j' for each Y[j, j'] = 1
            ys = [sum(1 << k for k, v in enumerate(y) if v) for y in Y]
            for i, x in enumerate(X):
                xi, at = sum(1 << (k * n) for k, v in enumerate(x) if v), i * n
                rows += [r for r in [(xi << j) ^ (y << at) for j, y in enumerate(ys)] if r]
            continue
        if p is None:   # over the lcm of the denominators
            den = math.lcm(R.den, L.den)
            sx, sy = den // R.den, den // L.den
            X = X if sx == 1 else [[v * sx for v in x] for x in X]
            Y = [[-v * sy for v in y] for y in Y]
        else:
            Y = [[-v % p for v in y] for y in Y]
        ys = [([(k, v) for k, v in enumerate(y) if v and k != j], y[j]) for j, y in enumerate(Y)]
        for i, x in enumerate(X):
            xs, xd, at = [(k * n, v) for k, v in enumerate(x) if v and k != i], x[i], i * n
            for j, (yo, yd) in enumerate(ys):
                row = {c + j: v for c, v in xs}
                for c, v in yo:
                    row[at + c] = v
                d = xd + yd if p is None else (xd + yd) % p
                if d:
                    row[at + j] = d
                if row:
                    rows.append(row)
    return SparseRows(field, rows, ncols)


# -- P (x) I_d applied without the kron: (A (x) B) vec X = vec(A X B^T) -------

def kron_eye_times(P: Matrix, X: Matrix, d: int) -> Matrix:
    """``P.kron(I_d) @ X``: P times X read as a P.ncols x (d * X.ncols)
    matrix, read back with X.ncols columns (Van Loan, "The ubiquitous
    Kronecker product", J. Comput. Appl. Math. 123, 2000)."""
    q, n, m = P.nrows, P.ncols, X.ncols
    return (P @ X.rearranged(lambda x: x.reshape(n, d * m))).rearranged(
        lambda x: x.reshape(q * d, m))


def times_kron_eye(Y: Matrix, P: Matrix, d: int) -> Matrix:
    """``Y @ P.kron(I_d)``: the rows of Y, split d ways (column (b, k) of
    row r goes to row (r, k)), times P, and put back."""
    m, q, n = Y.nrows, P.nrows, P.ncols
    split = Y.rearranged(lambda y: y.reshape(m, q, d).transpose(0, 2, 1).reshape(m * d, q))
    return (split @ P).rearranged(
        lambda z: z.reshape(m, d, n).transpose(0, 2, 1).reshape(m, n * d))


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


def _rref(field: FieldSpec, a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced echelon form and pivot columns of ``a``, which holds reduced
    residues over F_p and the integer numerators of a matrix over Q; over Q
    the result is integers over a common denominator (see :func:`_rref_q`)."""
    if a.size == 0:
        return a.copy(), []
    if field.kind == "Q":
        return _rref_q(a)
    if field.p == 2:
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
    packed into Python-int bitmasks (bit j = column j) by
    :func:`_gf2_basis`; R is not modified."""
    m, n = R.shape
    packed = np.packbits(R.astype(np.uint8, order="C"), axis=1, bitorder="little")
    width = packed.shape[1]
    # one bytes object per row of the C-ordered packing: numpy drops its
    # trailing zero bytes, its high bytes in little-endian order, which do
    # not change its value
    basis = _gf2_basis([int.from_bytes(row_bytes, "little")
                        for row_bytes in packed.view(f"S{width}").ravel().tolist()])
    leads = sorted(basis)
    back = b"".join(basis[lead].to_bytes(width, "little") for lead in leads)
    out = np.zeros((m, n), dtype=np.int64)
    out[:len(leads)] = np.unpackbits(np.frombuffer(back, dtype=np.uint8).reshape(len(leads), width),
                                     axis=1, count=n, bitorder="little")
    return out, [lead.bit_length() - 1 for lead in leads]


def _gf2_basis(rows: Sequence[int]) -> dict[int, int]:
    """The reduced echelon rows of the GF(2) row space of ``rows``, bitmasks
    (bit j = column j), keyed by their lowest set bit (leading column).

    Each row is inserted into a basis keyed by lowest set bit: while its
    lowest bit is a key, it is XORed with that key's row, which clears the
    bit and sets none below it; a nonzero remainder joins under its new
    lowest bit.  The basis spans the row space with distinct leads.  Taken
    in decreasing lead order, each row then XORs in the already-reduced row
    of every other pivot bit it holds, which holds no pivot bit but its own,
    so one mask of the row's pivot bits lists every step.  The reduced
    echelon form of a row space is unique, so entries and pivots are those
    of row-by-row Gauss-Jordan elimination."""
    basis: dict[int, int] = {}
    for x in rows:
        while x:
            lead = x & -x
            row = basis.get(lead)
            if row is None:
                basis[lead] = x
                break
            x ^= row
    leads = sorted(basis, reverse=True)
    pivot_mask = sum(leads)  # distinct bits: their sum is their union
    for lead in leads:
        x = basis[lead]
        rest = (x & pivot_mask) ^ lead
        while rest:
            bit = rest & -rest
            x ^= basis[bit]
            rest ^= bit
        basis[lead] = x
    return basis


def _dict_basis(rows: Sequence[dict], clear, scale) -> dict[int, dict[int, int]]:
    """The reduced echelon rows of the row space of the dict rows {column:
    nonzero entry}, keyed by leading column; ``rows`` are not modified.

    As in :func:`_gf2_basis`: each row is inserted into a basis keyed by
    leading column, clearing its leading entry with that key's row while
    there is one (``clear(x, k, b)``: x with column k cleared by the row b,
    as a new dict), and joins under its new lead as ``scale(x)``; then, in
    decreasing lead order, each row clears every other pivot column it
    holds with that column's row, already reduced, which changes it only
    there and on free columns."""
    basis: dict[int, dict[int, int]] = {}
    for x in rows:
        while x:
            lead = min(x)
            b = basis.get(lead)
            if b is None:
                basis[lead] = scale(x)
                break
            x = clear(x, lead, b)
    for lead in sorted(basis, reverse=True):
        x = basis[lead]
        for k in [k for k in x if k != lead and k in basis]:
            x = clear(x, k, basis[k])
        basis[lead] = x
    return basis


def _fp_basis(rows: Sequence[dict], p: int) -> dict[int, dict[int, int]]:
    """:func:`_dict_basis` over F_p, on residues: each echelon row has
    leading entry 1, and clearing column k of x subtracts ``x[k] b``."""
    def clear(x, k, b):
        c, out = x[k], dict(x)
        for j, v in b.items():
            w = (out.get(j, 0) - c * v) % p
            if w:
                out[j] = w
            else:
                del out[j]
        return out

    def scale(x):
        inv = pow(x[min(x)], p - 2, p)
        return x if inv == 1 else {j: v * inv % p for j, v in x.items()}

    return _dict_basis(rows, clear, scale)


def _q_basis(rows: Sequence[dict]) -> dict[int, dict[int, int]]:
    """:func:`_dict_basis` over Q, fraction-free on integers: clearing
    column k of x with the row b replaces x by ``b[k] x - x[k] b`` over the
    gcd of its entries, which keeps its span, and each echelon row is an
    integer multiple of the reduced one, which is it over its leading
    entry."""
    def clear(x, k, b):
        s, c = b[k], x[k]
        out = {j: s * v for j, v in x.items()}
        for j, v in b.items():
            w = out.get(j, 0) - c * v
            if w:
                out[j] = w
            else:
                del out[j]
        g = math.gcd(*out.values())
        return out if g < 2 else {j: v // g for j, v in out.items()}

    return _dict_basis(rows, clear, lambda x: x)
