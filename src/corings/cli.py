"""Command-line surface over JSON structure documents.

Exit codes are a stable contract: 0 = pass, 1 = fail (also when stdout
closes early, silently), 2 = undecided (including an ``exactseq
--enumerate`` cut short by its budget), 3 = parse/usage error (including a
malformed document or a negative budget).
Each command prints a human-readable section followed by one line
``MACHINE <json>`` whose content is deterministic for identical inputs and
seed (no timings inside the machine block).

The default search budget comes from the environment variable
``CORINGS_BUDGET`` when ``--budget`` is not given; both must be
nonnegative integers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from . import io as doc_io
from .algebra import check_algebra, group_algebra
from .comodule import (ISOMORPHIC, check_comodule, cotensor, regular_bicomodule,
                       twisted_bicomodule)
from .convolution import convolution_inverse, left_dual_algebra, right_dual_algebra
from .coring import check_coring, check_coring_morphism, find_cointegral
from .families import (check_entwining, cyclic_group, graded_coring, grouplike_coalgebra,
                       matrix_coring, regular_gset, trivial_coring, trivial_gset)
from .fields import FieldSpec, GF, QQ
from .io import DocumentError
from .picard import (entwining_ker_membership, enumerate_automorphisms, graded_ker_omega,
                     graded_triple_ker_membership, inner_via_bicomodule, is_inner,
                     verify_exact_sequence)
from .report import InvalidStructureError, OracleDisagreementError, Report
from .unitsearch import DEFAULT_BUDGET, UNDECIDED

PASS, FAIL, UNDEC, PARSE_ERROR = 0, 1, 2, 3

BUDGET_ENV = "CORINGS_BUDGET"


def _budget_arg(raw: str) -> int:
    """A search budget, from ``--budget`` or the environment: an integer >= 0."""
    try:
        val = int(raw)
    except ValueError:
        val = -1
    if val < 0:
        raise argparse.ArgumentTypeError(f"budget must be a nonnegative integer, got {raw!r}")
    return val


def _budget(args: argparse.Namespace) -> int:
    if args.budget is not None:
        return args.budget
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return _budget_arg(raw)
    except argparse.ArgumentTypeError:
        raise DocumentError(f"{BUDGET_ENV} must be a nonnegative integer, got {raw!r}") from None


def _emit(prose: list[str], machine: dict, started: float) -> None:
    for line in prose:
        print(line)
    print(f"elapsed: {time.time() - started:.3f}s")
    print("MACHINE " + json.dumps(machine, sort_keys=True, separators=(",", ":")))


def _report_lines(rep: Report) -> list[str]:
    return [str(rep)]


def _report_machine(rep: Report) -> dict:
    return {
        "ok": rep.ok,
        "checks": [{"name": c.name, "ok": c.ok, "witness": c.witness} for c in rep.checks],
    }


def _parse_field_arg(txt: str) -> FieldSpec:
    """A field from ``--field``: Q, or F<p> for a prime p."""
    if txt.upper() == "Q":
        return QQ
    try:
        if txt.upper().startswith("F"):
            return GF(int(txt[1:]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"field must be Q or F<p> with p prime, got {txt!r}")


def _positive_arg(raw: str) -> int:
    """A size or order from the command line: an integer >= 1."""
    try:
        val = int(raw)
    except ValueError:
        val = 0
    if val < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw!r}")
    return val


# -- validate -----------------------------------------------------------------

def cmd_validate(args) -> int:
    started = time.time()
    doc = doc_io.load(args.file)
    f = doc_io.parse_field(doc)
    kind = doc["kind"]
    payload = doc["payload"]
    if kind == "algebra":
        rep = check_algebra(doc_io.algebra_from_payload(f, payload))
    elif kind == "coring":
        rep = check_coring(doc_io.coring_from_payload(f, payload))
    elif kind == "comodule":
        rep = check_comodule(doc_io.comodule_from_payload(f, payload))
    elif kind == "entwining":
        rep = check_entwining(doc_io.entwining_from_payload(f, payload))
    elif kind == "dk":
        rep = doc_io.dk_from_payload(f, payload).validate()
    elif kind == "graded":
        rep = doc_io.graded_from_payload(f, payload).validate()
    elif kind == "dual-element":
        raise DocumentError("dual elements validate against a coring; use convinv")
    else:  # morphism
        raise DocumentError("morphisms validate against a coring; use inner")
    _emit(_report_lines(rep), {"command": "validate", "kind": kind} | _report_machine(rep), started)
    return PASS if rep.ok else FAIL


# -- build --------------------------------------------------------------------

def cmd_build(args) -> int:
    started = time.time()
    f = args.field
    family = args.family
    if family == "trivial":
        if args.dim == 1:
            from .algebra import scalar_algebra
            A = scalar_algebra(f)
        else:
            A, _ = group_algebra(cyclic_group(args.dim), f)
        C = trivial_coring(A)
        doc = doc_io.document("coring", f, doc_io.coring_to_payload(C))
    elif family == "matrix":
        if args.base_group > 1:
            A, _ = group_algebra(cyclic_group(args.base_group), f)
        else:
            from .algebra import scalar_algebra
            A = scalar_algebra(f)
        C = matrix_coring(A, args.n)
        doc = doc_io.document("coring", f, doc_io.coring_to_payload(C))
    elif family == "grouplike":
        C = grouplike_coalgebra(args.n, f)
        doc = doc_io.document("coring", f, doc_io.coring_to_payload(C))
    elif family in ("entwining", "graded-coring", "graded"):
        Gd = _graded_data(f, args)
        if family == "entwining":
            from .families import entwining_from_graded
            E = entwining_from_graded(Gd)
            doc = doc_io.document("entwining", f, doc_io.entwining_to_payload(E))
        elif family == "graded":
            doc = doc_io.document("graded", f, doc_io.graded_to_payload(Gd))
        else:
            C = graded_coring(Gd)
            doc = doc_io.document("coring", f, doc_io.coring_to_payload(C))
    else:
        raise DocumentError(f"unknown family {family!r}")
    doc_io.save(args.output, doc)
    _emit([f"wrote {doc['kind']} document to {args.output}"],
          {"command": "build", "family": family, "kind": doc["kind"], "output": args.output},
          started)
    return PASS


def _graded_data(f: FieldSpec, args):
    from .families import GradedData
    G = cyclic_group(args.group)
    gset = trivial_gset(args.points, args.group) if args.trivial_action else regular_gset(G)
    A, degrees = group_algebra(G, f)
    return GradedData(G, gset, A, degrees)


# -- inner / exactseq ---------------------------------------------------------

def _load_doc(path: str, kind: str) -> tuple[FieldSpec, dict]:
    """The field and payload of the document at ``path``, which must be of
    this kind (a parse error otherwise)."""
    doc = doc_io.load(path)
    if doc["kind"] != kind:
        article = "an" if kind[0] in "aeiou" else "a"
        raise DocumentError(f"{path} is not {article} {kind} document")
    return doc_io.parse_field(doc), doc["payload"]


def _load_coring(path: str):
    f, payload = _load_doc(path, "coring")
    return f, doc_io.coring_from_payload(f, payload)


def cmd_inner(args) -> int:
    started = time.time()
    f, C = _load_coring(args.coring)
    m = doc_io.morphism_from_payload(f, _load_doc(args.morphism, "morphism")[1], C)
    rep = check_coring_morphism(m)
    if not (rep.ok and m.is_isomorphism()):
        _emit(["morphism is not a coring automorphism", str(rep)],
              {"command": "inner", "status": "invalid-morphism"} | _report_machine(rep), started)
        return FAIL
    budget = _budget(args)
    res = is_inner(m, budget=budget, seed=args.seed)
    prose = [f"status: {res.status} (solution space dim {res.solution_space_dim})"]
    machine = {"command": "inner", "status": res.status,
               "solution_space_dim": res.solution_space_dim,
               "certainty": res.certainty}
    if res.witness is not None:
        wit = doc_io.dual_element_to_payload(res.witness)
        prose.append(f"witness p values: {wit['values']}")
        machine["witness"] = wit
    if args.cross_check:
        other = inner_via_bicomodule(m, budget=budget, seed=args.seed)
        machine["cross_check"] = other.status
        prose.append(f"bicomodule oracle: {other.status}")
        lin = res.is_inner
        bic = None if other.status == UNDECIDED else other.status == ISOMORPHIC
        if lin is not None and bic is not None and lin != bic:
            _emit(prose + ["ORACLE DISAGREEMENT"], machine | {"oracle_agreement": False}, started)
            return FAIL
        machine["oracle_agreement"] = True
    _emit(prose, machine, started)
    if res.status == UNDECIDED:
        return UNDEC
    return PASS


def cmd_exactseq(args) -> int:
    started = time.time()
    f, C = _load_coring(args.coring)
    budget = _budget(args)
    if args.enumerate:
        auts = enumerate_automorphisms(C, fix_rho_identity=not args.full_rho, budget=budget)
    else:
        if not args.morphisms:
            raise DocumentError("need --enumerate or --morphisms")
        elems = []
        from .picard import AutomorphismSet
        for path in args.morphisms:
            elems.append(doc_io.morphism_from_payload(f, _load_doc(path, "morphism")[1], C))
        auts = AutomorphismSet(C, elems, complete=False)
    try:
        rep = verify_exact_sequence(C, auts, budget=budget, seed=args.seed)
    except OracleDisagreementError as e:
        _emit([f"ORACLE DISAGREEMENT: {e}"],
              {"command": "exactseq", "status": "oracle-disagreement", "detail": str(e)}, started)
        return FAIL
    prose = [rep.summary()]
    if not rep.complete:
        prose.append("warning: enumeration incomplete within budget")
    machine = {
        "command": "exactseq",
        "aut": rep.aut_count,
        "inn": rep.inn_count,
        "out": rep.out_count,
        "complete": rep.complete,
        "undecided": rep.undecided,
        "oracle_agreements": rep.oracle_agreements,
        "inn_closed": rep.inn_closed,
        "inn_normal": rep.inn_normal,
        "coset_representatives": rep.coset_representatives,
    }
    _emit(prose, machine, started)
    # an enumeration cut short by the budget has not decided |Aut|
    if rep.undecided or (args.enumerate and not rep.complete):
        return UNDEC
    return PASS


# -- dual / convinv / cotensor / cointegral ------------------------------------

def cmd_dual(args) -> int:
    started = time.time()
    f, C = _load_coring(args.coring)
    dual = right_dual_algebra(C) if args.side == "right" else left_dual_algebra(C)
    rep = check_algebra(dual.algebra)
    alg = dual.algebra
    prose = [f"{args.side} dual algebra: dim {dual.dim} over {f}", str(rep)]
    machine = {
        "command": "dual",
        "side": args.side,
        "dim": dual.dim,
        "algebra_ok": rep.ok,
        "mult": doc_io.algebra_to_payload(alg)["mult"],
        "unit": doc_io.algebra_to_payload(alg)["unit"],
    }
    if args.output:
        doc_io.save(args.output, doc_io.document("algebra", f, doc_io.algebra_to_payload(alg)))
        prose.append(f"wrote dual algebra document to {args.output}")
    _emit(prose, machine, started)
    return PASS if rep.ok else FAIL


def cmd_convinv(args) -> int:
    started = time.time()
    f, C = _load_coring(args.coring)
    p = doc_io.dual_element_from_payload(f, _load_doc(args.element, "dual-element")[1], C)
    val = p.validate()
    if not val.ok:
        _emit(["element is not one-sided linear", str(val)],
              {"command": "convinv", "status": "invalid-element"}, started)
        return FAIL
    q = convolution_inverse(p)
    if q is None:
        _emit(["not convolution invertible"],
              {"command": "convinv", "status": "not-invertible"}, started)
        return FAIL
    payload = doc_io.dual_element_to_payload(q)
    prose = [f"inverse values: {payload['values']}"]
    machine = {"command": "convinv", "status": "invertible", "inverse": payload}
    if args.output:
        doc_io.save(args.output, doc_io.document("dual-element", f, payload))
        prose.append(f"wrote inverse to {args.output}")
    _emit(prose, machine, started)
    return PASS


def cmd_cotensor(args) -> int:
    started = time.time()
    f, C = _load_coring(args.coring)
    def side(path: Optional[str]):
        if path is None:
            return regular_bicomodule(C)
        m = doc_io.morphism_from_payload(f, _load_doc(path, "morphism")[1], C)
        rep = check_coring_morphism(m)
        if not (rep.ok and m.is_isomorphism()):
            raise InvalidStructureError("twist morphism is not an automorphism", rep)
        return twisted_bicomodule(m)
    left = side(args.twist_left)
    right = side(args.twist_right)
    ct = cotensor(left, right)
    prose = [f"cotensor dimension: {ct.dim} inside M(x)N quotient of dim {ct.tensor.dim}"]
    machine = {
        "command": "cotensor",
        "dim": ct.dim,
        "tensor_dim": ct.tensor.dim,
        "kernel_embedding": doc_io._matrix_to_json(ct.kernel),
    }
    _emit(prose, machine, started)
    return PASS


def cmd_cointegral(args) -> int:
    started = time.time()
    f, C = _load_coring(args.coring)
    ci = find_cointegral(C)
    if ci is None:
        _emit(["no cointegral: the coring is not coseparable (over this base)"],
              {"command": "cointegral", "status": "none"}, started)
        return FAIL
    rep = ci.validate()
    prose = ["cointegral found; re-validation " + ("passed" if rep.ok else "FAILED")]
    machine = {"command": "cointegral", "status": "found", "revalidates": rep.ok,
               "delta": doc_io._matrix_to_json(ci.delta)}
    _emit(prose, machine, started)
    return PASS if rep.ok else FAIL


# -- fast-path kernels ---------------------------------------------------------

def _emit_membership(res, cross, started, command) -> int:
    prose = [f"status: {res.status} (solution space dim {res.solution_space_dim})"]
    machine = {"command": command, "status": res.status,
               "solution_space_dim": res.solution_space_dim, "certainty": res.certainty}
    if res.witness_values is not None:
        machine["witness_values"] = doc_io._matrix_to_json(res.witness_values)
    if cross is not None:
        machine["cross_check"] = cross.status
        prose.append(f"generic route: {cross.status}")
        a, b = res.is_member, cross.is_inner
        if a is not None and b is not None and a != b:
            _emit(prose + ["ORACLE DISAGREEMENT"], machine | {"oracle_agreement": False}, started)
            return FAIL
        machine["oracle_agreement"] = True
    _emit(prose, machine, started)
    return UNDEC if res.status == UNDECIDED else PASS


def cmd_graded_ker(args) -> int:
    started = time.time()
    f, payload = _load_doc(args.graded, "graded")
    Gd = doc_io.graded_from_payload(f, payload)
    C = graded_coring(Gd)
    m = doc_io.morphism_from_payload(f, _load_doc(args.morphism, "morphism")[1], C)
    budget = _budget(args)
    res = graded_ker_omega(m, Gd, budget=budget, seed=args.seed)
    cross = is_inner(m, budget=budget, seed=args.seed) if args.cross_check else None
    return _emit_membership(res, cross, started, "graded-ker")


def cmd_entwining_ker(args) -> int:
    started = time.time()
    f, payload = _load_doc(args.entwining, "entwining")
    E = doc_io.entwining_from_payload(f, payload)
    payload = _load_doc(args.morphism, "morphism")[1]
    alpha = doc_io._matrix_from_json(f, doc_io._get(payload, "alpha"),
                                     E.algebra.dim, E.algebra.dim, "alpha")
    gamma = doc_io._matrix_from_json(f, doc_io._get(payload, "gamma"),
                                     E.coalgebra.dim, E.coalgebra.dim, "gamma")
    budget = _budget(args)
    res = entwining_ker_membership(E, alpha, gamma, budget=budget, seed=args.seed)
    cross = None
    if args.cross_check:
        from .picard import entwining_coring_automorphism
        cross = is_inner(entwining_coring_automorphism(E, alpha, gamma),
                         budget=budget, seed=args.seed)
    return _emit_membership(res, cross, started, "entwining-ker")


def cmd_dk_ker(args) -> int:
    started = time.time()
    f, payload = _load_doc(args.graded, "graded")
    Gd = doc_io.graded_from_payload(f, payload)
    payload = _load_doc(args.triple, "morphism")[1]
    f_map = doc_io._ints_from_json(doc_io._get(payload, "f"), "f")
    phi_map = doc_io._ints_from_json(doc_io._get(payload, "phi"), "phi")
    alpha = doc_io._matrix_from_json(f, doc_io._get(payload, "alpha"),
                                     Gd.algebra.dim, Gd.algebra.dim, "alpha")
    budget = _budget(args)
    res = graded_triple_ker_membership(Gd, f_map, phi_map, alpha,
                                       budget=budget, seed=args.seed)
    cross = None
    if args.cross_check:
        from .picard import graded_triple_coring_automorphism
        m = graded_triple_coring_automorphism(Gd, f_map, phi_map, alpha)
        cross = is_inner(m, budget=budget, seed=args.seed)
    return _emit_membership(res, cross, started, "dk-ker")


# -- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="corings",
        description="exact computations with corings, comodules and their duals")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="run the kind-appropriate axiom checker")
    v.add_argument("file")
    v.set_defaults(func=cmd_validate)

    b = sub.add_parser("build", help="emit a structure document for a named family")
    b.add_argument("family", choices=["trivial", "matrix", "grouplike",
                                      "entwining", "graded", "graded-coring"])
    b.add_argument("--field", type=_parse_field_arg, default="F2",
                   help="Q or F<p> (default F2)")
    b.add_argument("--dim", type=_positive_arg, default=1,
                   help="trivial: cyclic group order of the base")
    b.add_argument("-n", type=_positive_arg, default=2,
                   help="matrix size / group-like basis size")
    b.add_argument("--base-group", type=_positive_arg, default=1,
                   help="matrix: base algebra k[Z_n] order (1 = base field)")
    b.add_argument("--group", type=_positive_arg, default=2, help="graded: cyclic group order")
    b.add_argument("--points", type=_positive_arg, default=1,
                   help="graded with --trivial-action: number of set points")
    b.add_argument("--trivial-action", action="store_true",
                   help="graded: use the trivial G-set instead of the regular one")
    b.add_argument("-o", "--output", required=True)
    b.set_defaults(func=cmd_build)

    i = sub.add_parser("inner", help="decide inner-ness of a coring automorphism")
    i.add_argument("coring")
    i.add_argument("morphism")
    i.add_argument("--budget", type=_budget_arg, default=None)
    i.add_argument("--seed", type=int, default=0)
    i.add_argument("--cross-check", action="store_true",
                   help="also run the bicomodule oracle and fail on disagreement")
    i.set_defaults(func=cmd_inner)

    e = sub.add_parser("exactseq", help="enumerate Aut and verify the exact sequence")
    e.add_argument("coring")
    e.add_argument("--enumerate", action="store_true")
    e.add_argument("--full-rho", action="store_true",
                   help="enumerate base automorphisms too (default: rho = id)")
    e.add_argument("--morphisms", nargs="*", default=None)
    e.add_argument("--budget", type=_budget_arg, default=None)
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(func=cmd_exactseq)

    d = sub.add_parser("dual", help="emit a convolution dual algebra")
    d.add_argument("coring")
    d.add_argument("--side", choices=["right", "left"], default="right")
    d.add_argument("-o", "--output", default=None)
    d.set_defaults(func=cmd_dual)

    c = sub.add_parser("convinv", help="two-sided convolution inverse of a dual element")
    c.add_argument("coring")
    c.add_argument("element")
    c.add_argument("-o", "--output", default=None)
    c.set_defaults(func=cmd_convinv)

    ct = sub.add_parser("cotensor", help="cotensor product of (twisted) regular bicomodules")
    ct.add_argument("coring")
    ct.add_argument("--twist-left", default=None, help="morphism file twisting the left factor")
    ct.add_argument("--twist-right", default=None, help="morphism file twisting the right factor")
    ct.set_defaults(func=cmd_cotensor)

    ci = sub.add_parser("cointegral", help="solve for a cointegral (coseparability)")
    ci.add_argument("coring")
    ci.set_defaults(func=cmd_cointegral)

    gk = sub.add_parser("graded-ker", help="graded fast-path kernel membership")
    gk.add_argument("graded")
    gk.add_argument("morphism")
    gk.add_argument("--budget", type=_budget_arg, default=None)
    gk.add_argument("--seed", type=int, default=0)
    gk.add_argument("--cross-check", action="store_true")
    gk.set_defaults(func=cmd_graded_ker)

    ek = sub.add_parser("entwining-ker", help="entwining fast-path kernel membership")
    ek.add_argument("entwining")
    ek.add_argument("morphism", help="morphism document with alpha and gamma matrices")
    ek.add_argument("--budget", type=_budget_arg, default=None)
    ek.add_argument("--seed", type=int, default=0)
    ek.add_argument("--cross-check", action="store_true")
    ek.set_defaults(func=cmd_entwining_ker)

    dk = sub.add_parser("dk-ker", help="graded-triple (DK tower) kernel membership")
    dk.add_argument("graded")
    dk.add_argument("triple", help="morphism document with f, phi (permutations) and alpha")
    dk.add_argument("--budget", type=_budget_arg, default=None)
    dk.add_argument("--seed", type=int, default=0)
    dk.add_argument("--cross-check", action="store_true")
    dk.set_defaults(func=cmd_dk_ker)

    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return PARSE_ERROR if e.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed early: send the flush at exit to devnull, not to a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return FAIL
    except (DocumentError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return PARSE_ERROR
    except InvalidStructureError as e:
        print(f"invalid structure: {e}", file=sys.stderr)
        return FAIL
    except OracleDisagreementError as e:
        print(f"oracle disagreement: {e}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
