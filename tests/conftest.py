import math

import numpy as np
import pytest

from corings import GF, Algebra, GradedData, Matrix, cyclic_group, group_algebra, regular_gset
from corings.fields import _INT64_LIMIT

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


@pytest.fixture
def f2():
    return F2


@pytest.fixture
def f3():
    return F3


def dual_numbers(field):
    """F[t]/(t^2): basis {1, t}, t^2 = 0."""
    return Algebra(field, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0],
                   names=["1", "t"])


def kz2_graded(field):
    """k[Z_2] graded by Z_2 acting regularly on X = Z_2."""
    G = cyclic_group(2)
    A, degrees = group_algebra(G, field)
    return GradedData(G, regular_gset(G), A, degrees)


def s3_table():
    """Symmetric group on 3 letters via permutation composition."""
    import itertools
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    return [[index[compose(p, q)] for q in perms] for p in perms]


def kron_eye_difference(X: Matrix, Y: Matrix) -> Matrix:
    """``X.kron(I_n) - I_m.kron(Y)`` for X (m x m) and Y (n x n), written
    dense: both terms in one array of numerators over a common denominator,
    through its diagonal views (entries (i, j, i', j) and (i, j, i, j')),
    and reduced once: the dense referee of the sparse relation rows
    (``corings.fields.kron_eye_difference_rows``)."""
    m, n = X.nrows, Y.nrows
    den = X.den if X.den == Y.den else math.lcm(X.den, Y.den)
    sx, sy = den // X.den, den // Y.den
    bound = (X.bound or 1) * sx + (Y.bound or 1) * sy
    dtype = np.result_type(X.N, Y.N) if bound < _INT64_LIMIT else object
    out = np.zeros((m, n, m, n), dtype=dtype)
    np.einsum("ijkj->ijk", out)[...] = (X.N if sx == 1 else X.N.astype(dtype) * sx)[:, None, :]
    np.einsum("ijik->ijk", out)[...] -= Y.N if sy == 1 else Y.N.astype(dtype) * sy
    return Matrix._from_ints(X.field, out.reshape(m * n, m * n), den, bound)
