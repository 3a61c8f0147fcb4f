"""Decide whether a linear subspace of an algebra contains an invertible element.

The element ``sum t_i b_i`` is invertible exactly when its left-multiplication
operator is nonsingular, so everything reduces to: does a span of square
matrices contain an invertible one?  Those operators are one product with
the algebra's ``left_stack``.  The determinant of a linear combination
is a polynomial of total degree at most D (the matrix side) in the
coefficients, which drives the search strategy:

* F_p: exhaust all p^m coefficient tuples when that fits the budget,
  otherwise report undecided (witnesses must lie in the base field).
* Q: evaluate on the grid {0..D}^m when (D+1)^m fits the budget -- a nonzero
  polynomial of per-variable degree <= D cannot vanish on a (D+1)-point grid
  per variable, so an all-singular grid is a deterministic certificate.
  Otherwise draw 20 random integer points from [0, 2^30); an all-singular
  outcome is then certified-none with failure probability <= (D/2^30)^20.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .algebra import Algebra
from .fields import FieldSpec, Matrix, as_vector, combine, stack_vecs, unstack

DEFAULT_BUDGET = 200_000
RANDOM_TRIALS = 20
RANDOM_RANGE = 1 << 30

WITNESS = "witness"
CERTIFIED_NONE = "certified-none"
UNDECIDED = "undecided"


@dataclass(frozen=True)
class UnitSearchResult:
    status: str
    witness: Optional[np.ndarray] = None        # coefficients over the given basis
    element: Optional[np.ndarray] = None        # the invertible element itself
    inverse: Optional[np.ndarray] = None        # its verified two-sided inverse
    certainty: str = "deterministic"            # "deterministic" | "probabilistic"
    failure_bound: Optional[Fraction] = None    # only for probabilistic certainty

    def __post_init__(self):
        if (self.status == WITNESS) != (self.witness is not None):
            raise ValueError("witness present iff status is witness")
        if self.certainty == "probabilistic" and self.failure_bound is None:
            raise ValueError("probabilistic certainty requires a failure bound")


def _coefficient_iter(field: FieldSpec, m: int, degree: int, budget: int, seed: int):
    """Yield ('mode', coefficient tuples).  Mode reports the certainty regime."""
    if field.kind == "Fp":
        if field.p ** m <= budget:
            return "exhaustive", itertools.product(range(field.p), repeat=m)
        return "over-budget", iter(())
    grid = degree + 1
    if grid**m <= budget:
        return "grid", itertools.product(range(grid), repeat=m)
    rng = random.Random(seed)
    pts = (tuple(rng.randrange(RANDOM_RANGE) for _ in range(m)) for _ in range(RANDOM_TRIALS))
    return "random", pts


def invertible_in_span(
    mats: Sequence[Matrix],
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> UnitSearchResult:
    """Search ``span(mats)`` for an invertible matrix.

    Returns coefficients of a verified invertible combination, a certified
    negative, or undecided when the F_p search space exceeds the budget.
    """
    if not mats:
        return UnitSearchResult(CERTIFIED_NONE)
    field = mats[0].field
    n = mats[0].nrows
    for M in mats:
        if M.field != field or M.shape != (n, n):
            raise ValueError("span members must be square matrices over one field")
    if n == 0:
        # the unique map on the zero space is invertible
        return UnitSearchResult(WITNESS, witness=field.zeros((len(mats),)))
    m = len(mats)
    mode, pts = _coefficient_iter(field, m, n, budget, seed)
    if mode == "over-budget":
        return UnitSearchResult(UNDECIDED)
    stack = stack_vecs(mats)
    for t in pts:
        coeffs = as_vector(field, list(t))
        if combine(stack, coeffs, (n, n)).is_invertible():
            return UnitSearchResult(WITNESS, witness=coeffs)
    if mode in ("exhaustive", "grid"):
        return UnitSearchResult(CERTIFIED_NONE)
    bound = Fraction(n, RANDOM_RANGE) ** RANDOM_TRIALS
    return UnitSearchResult(CERTIFIED_NONE, certainty="probabilistic", failure_bound=bound)


def subspace_contains_unit(
    basis: Sequence[np.ndarray],
    algebra: Algebra,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> UnitSearchResult:
    """Decide whether ``span(basis)`` inside ``algebra`` contains a unit.

    The left multiplications of the basis elements are the columns of
    ``algebra.left_stack @ coords``, coords the basis as columns.  Any
    witness is inverted by ``algebra.element_inverse``, which re-verifies
    that the returned element times its returned inverse is the unit on
    both sides.
    """
    field, dim = algebra.field, algebra.dim
    basis = [as_vector(field, b) for b in basis]
    for b in basis:
        if b.shape[0] != dim:
            raise ValueError("basis element dimension differs from ambient algebra")
    coords = Matrix(field, np.stack(basis, axis=1)) if basis else Matrix.zeros(field, dim, 0)
    ops = unstack(algebra.left_stack @ coords, (dim, dim))
    res = invertible_in_span(ops, budget=budget, seed=seed)
    if res.status != WITNESS:
        return res
    x = coords @ res.witness
    y = algebra.element_inverse(x)
    if y is None:
        raise AssertionError("unit-search witness failed inversion")
    return UnitSearchResult(
        WITNESS,
        witness=res.witness,
        element=x,
        inverse=y,
        certainty=res.certainty,
        failure_bound=res.failure_bound,
    )
