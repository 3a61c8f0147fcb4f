"""A first tour: build corings, audit their axioms, break one on purpose.

A coring is the analogue of a coalgebra over a noncommutative base: an
(A, A)-bimodule C with a comultiplication Delta: C -> C (x)_A C and a
counit eps: C -> A.  Everything here is exact arithmetic: Fractions over Q,
integer residues over a prime field.

Run: python3 demos/01_first_corings.py
"""

import numpy as np

from corings import (GF, QQ, Algebra, Coring, check_coring, grouplike_coalgebra,
                     matrix_coring, scalar_algebra, trivial_coring)

F2 = GF(2)

# The trivial coring: A itself, with Delta inverting the unit isomorphism.
dual_numbers = Algebra(F2, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0],
                       names=["1", "t"])
triv = trivial_coring(dual_numbers)
print("trivial coring over F2[t]/(t^2):")
print(check_coring(triv))
print()

# The (2,2)-matrix coring: free bimodule on symbols e_ij with
# Delta(e_ij) = sum_k e_ik (x) e_kj and eps(e_ij) = [i == j].
mc2 = matrix_coring(scalar_algebra(F2), 2)
print(f"matrix coring M^c_2(F2): dim {mc2.dim}")
print("Delta(e_12) in ambient coordinates (pairs (row, col) of nonzeros):")
amb = mc2.delta_ambient @ np.array([0, 1, 0, 0], dtype=np.int64)
for idx in np.nonzero(amb)[0]:
    print(f"  e_{idx // 4} (x) e_{idx % 4}")
print(check_coring(mc2))
print()

# Group-likes: Delta(g) = g (x) g. The simplest honest coalgebras.
kz3 = grouplike_coalgebra(["e", "g", "g2"], QQ)
print("group-like coalgebra kZ3 over Q:", "valid" if check_coring(kz3).ok else "INVALID")
print()

# Break the counit and watch the audit name the failure.
eps_bad = mc2.epsilon.copy()
eps_bad.a.setflags(write=True)
eps_bad.a[0, 1] = 1  # eps(e_12) := 1
broken = Coring(mc2.base, mc2.bimodule, mc2.delta, eps_bad, name="broken matrix coring")
report = check_coring(broken)
print("after setting eps(e_12) = 1:")
for check in report.failures():
    print(f"  {check}")
