"""The benchmark's reference answers and the scorer that checks every op.

Each CLI op has an expectation below: the exit codes and MACHINE fields a
correct program prints, with the reason that answer is right.  The entwining
sweep is refereed by ``entwining_axioms_hold``, the benchmark's own
ES1-ES4 checker in plain dictionary arithmetic, independent of the library.

An op counts as failed when it raised, exited with a code or printed MACHINE
fields the reference does not accept, or printed a MACHINE line that differs
from an earlier run of the same op.  An accepted answer with exit code 2 is
the honest "undecided" and counts as undecided, not failed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

OK, UNDECIDED, FAILED = "ok", "undecided", "failed"


@dataclass(frozen=True)
class Expect:
    """Accepted answers: (exit code, MACHINE fields that must match) pairs."""

    outcomes: tuple[tuple[int, dict], ...]
    why: str = ""

    def mismatch(self, code: int, machine: Optional[dict]) -> Optional[str]:
        """None when (code, machine) is an accepted answer, else the reason."""
        for want_code, fields in self.outcomes:
            if code != want_code:
                continue
            if machine is None:
                return "no MACHINE line"
            bad = {k: machine.get(k) for k, v in fields.items() if machine.get(k) != v}
            if not bad:
                return None
            return f"exit {code} with MACHINE {bad}, expected {fields}"
        return f"exit code {code}, expected one of {[c for c, _ in self.outcomes]}"


def exact(code: int = 0, why: str = "", **fields) -> Expect:
    return Expect(((code, fields),), why)


class Scorer:
    """Scores ops against their expectations and keeps the first MACHINE
    line of every op key, so a later run of the same op must repeat it."""

    def __init__(self):
        self.first: dict[str, str] = {}
        self.counts = {OK: 0, UNDECIDED: 0, FAILED: 0}
        self.failures: list[tuple[str, str]] = []

    def score(self, key: str, code: int, line: Optional[str], expect: Expect) -> str:
        machine = None
        if line is not None:
            try:
                machine = json.loads(line)
            except ValueError:
                machine = None
        reason = expect.mismatch(code, machine)
        if reason is None and line is not None:
            earlier = self.first.setdefault(key, line)
            if earlier != line:
                reason = "MACHINE line differs from an earlier run of the same op"
        if reason is not None:
            status = FAILED
            self.failures.append((key, reason))
        else:
            status = UNDECIDED if code == 2 else OK
        self.counts[status] += 1
        return status

    def fail(self, key: str, reason: str) -> str:
        self.failures.append((key, reason))
        self.counts[FAILED] += 1
        return FAILED


# -- the CLI reference table --------------------------------------------------

_WHY_GROUPLIKE = (
    "A coalgebra automorphism of kX sends group-likes to group-likes and they form a "
    "basis, so Aut = Sym(X) and |Aut| = |X|!.  The right dual (kX)* is commutative, so "
    "conjugation by a convolution unit p gives p(g) g p^-1(g) = g: Inn = {id}, Out = Aut.")


def _exactseq(aut: int, inn: int, why: str) -> Expect:
    return exact(0, why, aut=aut, inn=inn, out=aut // inn, complete=True, undecided=0,
                 oracle_agreements=aut, inn_closed=True, inn_normal=True)


EXACTSEQ = {
    "kZ2/F2": _exactseq(2, 1, _WHY_GROUPLIKE + " |X| = 2."),
    "kZ3/F2": _exactseq(6, 1, _WHY_GROUPLIKE + " |X| = 3."),
    "Mc2(F2)": _exactseq(6, 6, (
        "Mc2(F2) is the coalgebra dual to M2(F2); its automorphisms are those of M2(F2), "
        "all inner by Skolem-Noether, so Aut = PGL2(F2) = GL2(F2) of order 6, Inn = Aut, "
        "Out trivial (criterion 3 pins 6/6/1).")),
    "trivial F2[Z2]": _exactseq(1, 1, (
        "F2[Z2] = F2[t]/t^2 with t = 1 + g; an algebra automorphism sends t to a nonzero "
        "square-zero multiple of t, and over F2 that is t itself, so Aut = {id} = Inn.")),
    "graded Z2/F3": _exactseq(4, 4, (
        "A (x) kX for G = Z2 acting regularly on X, over F3: all four automorphisms with "
        "rho enumerated are inner (criterion 2 pins 4/4/1 by both oracles).")),
    "kZ3/F5": _exactseq(6, 1, _WHY_GROUPLIKE + " |X| = 3."),
    "grouplike(4)/F5 budget 20000": Expect(
        ((2, {"complete": False}),
         (0, {"aut": 24, "inn": 1, "out": 24, "complete": True, "undecided": 0,
              "oracle_agreements": 24})),
        "The phi-candidate space is 5^16, far beyond 20000 candidates.  The honest "
        "answers are exit 2 (enumeration incomplete) or the complete 24/1/24 of Sym(4) "
        "with Inn = {id} (see kZ3).  'Aut = 0, exit 0' is wrong."),
}

COSEPARABLE = {
    "kZ2/F2": "group-like coalgebras split by delta(g (x) h) = [g = h]",
    "kZ3/F2": "group-like coalgebras split by delta(g (x) h) = [g = h]",
    "Mc2(F2)": ("Mc2(F2) is dual to M2(F2), separable over every field with idempotent "
                "sum_i e_i1 (x) e_1i; its dual is a cointegral"),
    "trivial F2[Z2]": "the trivial coring A splits by the multiplication A (x)_A A -> A",
    "graded Z2/F3": "G-set-graded corings are coseparable (criterion 6)",
    "kZ3/F5": "group-like coalgebras split by delta(g (x) h) = [g = h]",
    "grouplike(4)/F5 budget 20000": "group-like coalgebras split by delta(g (x) h) = [g = h]",
    "graded Z3/F3": "G-set-graded corings are coseparable (criterion 6)",
    "graded Z2/Q": "G-set-graded corings are coseparable (criterion 6)",
}

VALID = exact(0, "every built structure satisfies its axioms", ok=True)


def built(kind: str) -> Expect:
    return exact(0, "the build writes one document", kind=kind)


def cointegral(label: str) -> Expect:
    return exact(0, COSEPARABLE[label], status="found", revalidates=True)


def graded_dual(order: int) -> Expect:
    return exact(0, "the right dual of A (x) kX for G acting regularly on X has "
                    f"dimension |G|.|X| = {order * order}",
                 dim=order * order, algebra_ok=True, side="right")


def inner_perm(identity: bool) -> Expect:
    if identity:
        return exact(0, "the identity is inner (p = eps); the bicomodule oracle agrees",
                     status="inner", cross_check="isomorphic", oracle_agreement=True,
                     certainty="deterministic")
    return exact(0, "Inn(kG) = {id} over Q (the dual is commutative, see kZ3); "
                    "the determinant grid makes the negative deterministic",
                 status="not-inner", cross_check="not-isomorphic", oracle_agreement=True,
                 certainty="deterministic")


INNER_BUDGET_1 = exact(2, "the witness space of kZ3/F2 has 2^3 points, more than a "
                          "budget of 1, so the honest answer is undecided (exit 2)",
                       status="undecided")
GRADED_KER = exact(0, "the identity is in the kernel; the generic route agrees",
                   status="inner", cross_check="inner", oracle_agreement=True)
DK_KER = exact(0, "every automorphism of graded Z2/F3 is inner (4/4/1), so the "
                  "triple f = id, phi = swap is in the kernel; the generic route agrees",
               status="inner", cross_check="inner", oracle_agreement=True)


# -- the independent entwining referee ----------------------------------------

SWEEP_WHY = ("the ES1-ES4 referee decides psi; by the Takeuchi correspondence the induced "
             "structure on A (x) C is a coring exactly when psi is an entwining")
ANCHOR_WHY = ("the flip and the Z2-graded entwining satisfy ES1-ES4, and their corings "
              "are coseparable: for the flip, a (x) g (x) h -> a [g = h] is A-bilinear; "
              "the graded one is the G-set-graded coring of criterion 6")

def entwining_axioms_hold(psi: list[list[int]], mult: dict, unit: list[int],
                          delta: dict, eps: list[int], p: int) -> bool:
    """ES1-ES4 for psi: C (x) A -> A (x) C over F_p, in dictionary arithmetic.

    ``psi[j * dA + i]`` is the image of c_j (x) a_i as {(a, c): coeff};
    ``mult[(i, j)]`` is a_i a_j as {k: coeff}; ``delta[c]`` is
    {(c1, c2): coeff}; ``eps[c]`` and ``unit[a]`` are coefficients.
    """
    dA, dC = len(unit), len(eps)

    def add(acc, key, w):
        acc[key] = (acc.get(key, 0) + w) % p

    def clean(d):
        return {k: v for k, v in d.items() if v}

    def psi_at(c, a):
        return psi[c * dA + a]

    for c in range(dC):
        for i in range(dA):
            # ES1: psi(c (x) a_i a_j) = a_psi a_j_Psi (x) c^psi^Psi
            for j in range(dA):
                lhs, rhs = {}, {}
                for k, w in mult[(i, j)].items():
                    for key, v in psi_at(c, k).items():
                        add(lhs, key, w * v)
                for (a1, c1), w1 in psi_at(c, i).items():
                    for (a2, c2), w2 in psi_at(c1, j).items():
                        for k, w3 in mult[(a1, a2)].items():
                            add(rhs, (k, c2), w1 * w2 * w3)
                if clean(lhs) != clean(rhs):
                    return False
            # ES2: (A (x) Delta) psi = (psi (x) C)(C (x) psi)(Delta (x) A)
            lhs, rhs = {}, {}
            for (a1, c1), w in psi_at(c, i).items():
                for (x, y), wd in delta[c1].items():
                    add(lhs, (a1, x, y), w * wd)
            for (x, y), wd in delta[c].items():
                for (a1, y2), w1 in psi_at(y, i).items():
                    for (a2, x2), w2 in psi_at(x, a1).items():
                        add(rhs, (a2, x2, y2), wd * w1 * w2)
            if clean(lhs) != clean(rhs):
                return False
            # ES4: (A (x) eps) psi = eps (x) A
            lhs = {}
            for (a1, c1), w in psi_at(c, i).items():
                add(lhs, a1, w * eps[c1])
            if clean(lhs) != clean({i: eps[c] % p}):
                return False
        # ES3: psi(c (x) 1) = 1 (x) c
        lhs = {}
        for a, u in enumerate(unit):
            for key, v in psi_at(c, a).items():
                add(lhs, key, u * v)
        if clean(lhs) != clean({(a, c): u % p for a, u in enumerate(unit)}):
            return False
    return True
