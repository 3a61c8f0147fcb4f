"""Command-line surface over JSON structure documents.

Exit codes are a stable contract: 0 = pass, 1 = fail (also when stdout
closes early, silently), 2 = undecided (including an ``exactseq
--enumerate`` cut short by its budget), 3 = parse/usage error (including a
malformed document or a negative budget).
Each command prints a human-readable section followed by one line
``MACHINE <json>`` whose content is deterministic for identical inputs and
seed (no timings inside the machine block).

Subcommand ``<name>`` runs ``cmd_<name>`` (hyphens as underscores), which
prints nothing and returns ``(exit code, prose lines, machine dict)``.  Only
:func:`main` prints: the prose, ``elapsed:`` and ``MACHINE`` lines to stdout,
and a one-line message on stderr for each exception it maps to an exit code.

The default search budget comes from the environment variable
``CORINGS_BUDGET`` when ``--budget`` is not given; both must be
nonnegative integers.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Callable, Optional

from . import io as doc_io
from .algebra import check_algebra, group_algebra, scalar_algebra
from .comodule import (ISOMORPHIC, check_comodule, cotensor, regular_bicomodule,
                       twisted_bicomodule)
from .convolution import convolution_inverse, left_dual_algebra, right_dual_algebra
from .coring import check_coring, check_coring_morphism, find_cointegral
from .families import (GradedData, check_entwining, cyclic_group, entwining_from_graded,
                       graded_coring, grouplike_coalgebra, matrix_coring, regular_gset,
                       trivial_coring, trivial_gset)
from .fields import FieldSpec, GF, QQ
from .io import DocumentError
from .picard import (AutomorphismSet, entwining_coring_automorphism, entwining_ker_membership,
                     enumerate_automorphisms, graded_ker_omega,
                     graded_triple_coring_automorphism, graded_triple_ker_membership,
                     inner_via_bicomodule, is_inner, verify_exact_sequence)
from .report import (BalancednessError, InvalidStructureError, KernelInvarianceError,
                     OracleDisagreementError, Report)
from .unitsearch import DEFAULT_BUDGET, UNDECIDED

PASS, FAIL, UNDEC, PARSE_ERROR = 0, 1, 2, 3

BUDGET_ENV = "CORINGS_BUDGET"

# what a command returns: (exit code, prose lines, machine dict)
Result = tuple[int, list[str], dict]


def _at_least(low: int, message: str) -> Callable[[str], int]:
    """An argument type: an integer >= low, else ``message`` and the raw text."""
    def parse(raw: str) -> int:
        try:
            val = int(raw)
        except ValueError:
            val = low - 1
        if val < low:
            raise argparse.ArgumentTypeError(f"{message}, got {raw!r}")
        return val
    return parse


# a search budget (from --budget or the environment), and a size or order
_budget_arg = _at_least(0, "budget must be a nonnegative integer")
_positive_arg = _at_least(1, "must be a positive integer")


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


# -- validate -----------------------------------------------------------------

# kind -> checker of a decoded payload; the lambdas look their names up when
# called, so a rebinding of the decoders or checkers reaches them
_CHECKERS: dict[str, Callable[[FieldSpec, dict], Report]] = {
    "algebra": lambda f, p: check_algebra(doc_io.algebra_from_payload(f, p)),
    "coring": lambda f, p: check_coring(doc_io.coring_from_payload(f, p)),
    "comodule": lambda f, p: check_comodule(doc_io.comodule_from_payload(f, p)),
    "entwining": lambda f, p: check_entwining(doc_io.entwining_from_payload(f, p)),
    "dk": lambda f, p: doc_io.dk_from_payload(f, p).validate(),
    "graded": lambda f, p: doc_io.graded_from_payload(f, p).validate(),
}

# kinds that only validate against a coring, with the command that does it
_VALIDATED_ELSEWHERE = {"dual-element": "dual elements validate against a coring; use convinv",
                        "morphism": "morphisms validate against a coring; use inner"}


def cmd_validate(args) -> Result:
    doc = doc_io.load(args.file)
    kind = doc["kind"]
    if kind in _VALIDATED_ELSEWHERE:
        raise DocumentError(_VALIDATED_ELSEWHERE[kind])
    rep = _CHECKERS[kind](doc_io.parse_field(doc), doc["payload"])
    machine = {"command": "validate", "kind": kind} | _report_machine(rep)
    return PASS if rep.ok else FAIL, [str(rep)], machine


# -- build --------------------------------------------------------------------

def _base(f: FieldSpec, order: int):
    """The base algebra of a built coring: the field for order 1, else k[Z_order]."""
    return scalar_algebra(f) if order == 1 else group_algebra(cyclic_group(order), f)[0]


def cmd_build(args) -> Result:
    f, family = args.field, args.family
    if family == "trivial":
        built = trivial_coring(_base(f, args.dim))
    elif family == "matrix":
        built = matrix_coring(_base(f, args.base_group), args.n)
    elif family == "grouplike":
        built = grouplike_coalgebra(args.n, f)
    else:
        G = cyclic_group(args.group)
        gset = trivial_gset(args.points, args.group) if args.trivial_action else regular_gset(G)
        built = GradedData(G, gset, *group_algebra(G, f))
        if family == "entwining":
            built = entwining_from_graded(built)
        elif family == "graded-coring":
            built = graded_coring(built)
    encoders = {"entwining": doc_io.entwining_to_payload, "graded": doc_io.graded_to_payload}
    kind = family if family in encoders else "coring"
    doc = doc_io.document(kind, f, encoders.get(kind, doc_io.coring_to_payload)(built))
    doc_io.save(args.output, doc)
    return (PASS, [f"wrote {kind} document to {args.output}"],
            {"command": "build", "family": family, "kind": kind, "output": args.output})


# -- inner / exactseq ---------------------------------------------------------

def _load_doc(path: str, kind: str, field: Optional[FieldSpec] = None) -> tuple[FieldSpec, dict]:
    """The field and payload of the document at ``path``, which must be of
    this kind and, when ``field`` is given, declare that field (a parse
    error otherwise)."""
    doc = doc_io.load(path)
    if doc["kind"] != kind:
        article = "an" if kind[0] in "aeiou" else "a"
        raise DocumentError(f"{path} is not {article} {kind} document")
    declared = doc_io.parse_field(doc)
    if field is not None and declared != field:
        raise DocumentError(f"{path} is over {declared}, but the command works over {field}")
    return declared, doc["payload"]


def _load_coring(path: str):
    f, payload = _load_doc(path, "coring")
    return f, doc_io.coring_from_payload(f, payload)


def _load_morphism(path: str, f: FieldSpec, C):
    return doc_io.morphism_from_payload(f, _load_doc(path, "morphism", f)[1], C)


def _square(f: FieldSpec, payload: dict, key: str, dim: int):
    return doc_io._matrix_from_json(f, doc_io._get(payload, key), dim, dim, key)


def _decision(command: str, res) -> Result:
    """The common result of a search-backed membership test: exit 2 when
    undecided, 0 otherwise."""
    return (UNDEC if res.status == UNDECIDED else PASS,
            [f"status: {res.status} (solution space dim {res.solution_space_dim})"],
            {"command": command, "status": res.status,
             "solution_space_dim": res.solution_space_dim, "certainty": res.certainty})


def _cross_checked(result: Result, label: str, status: str,
                   ours: Optional[bool], theirs: Optional[bool]) -> Result:
    """Add a second route's answer to a result; two decided answers that
    differ turn it into a failure."""
    code, prose, machine = result
    machine["cross_check"] = status
    prose.append(f"{label}: {status}")
    if ours is not None and theirs is not None and ours != theirs:
        return FAIL, prose + ["ORACLE DISAGREEMENT"], machine | {"oracle_agreement": False}
    machine["oracle_agreement"] = True
    return code, prose, machine


def cmd_inner(args) -> Result:
    f, C = _load_coring(args.coring)
    m = _load_morphism(args.morphism, f, C)
    rep = check_coring_morphism(m)
    if not (rep.ok and m.is_isomorphism()):
        return (FAIL, ["morphism is not a coring automorphism", str(rep)],
                {"command": "inner", "status": "invalid-morphism"} | _report_machine(rep))
    budget = _budget(args)
    res = is_inner(m, budget=budget, seed=args.seed)
    result = _decision("inner", res)
    if res.witness is not None:
        wit = doc_io.dual_element_to_payload(res.witness)
        result[1].append(f"witness p values: {wit['values']}")
        result[2]["witness"] = wit
    if not args.cross_check:
        return result
    other = inner_via_bicomodule(m, budget=budget, seed=args.seed)
    bic = None if other.status == UNDECIDED else other.status == ISOMORPHIC
    return _cross_checked(result, "bicomodule oracle", other.status, res.is_inner, bic)


def cmd_exactseq(args) -> Result:
    f, C = _load_coring(args.coring)
    budget = _budget(args)
    if args.enumerate:
        auts = enumerate_automorphisms(C, fix_rho_identity=not args.full_rho, budget=budget)
    elif args.morphisms:
        auts = AutomorphismSet(C, [_load_morphism(path, f, C) for path in args.morphisms],
                               complete=False)
    else:
        raise DocumentError("need --enumerate or --morphisms")
    try:
        rep = verify_exact_sequence(C, auts, budget=budget, seed=args.seed)
    except OracleDisagreementError as e:
        return (FAIL, [f"ORACLE DISAGREEMENT: {e}"],
                {"command": "exactseq", "status": "oracle-disagreement", "detail": str(e)})
    prose = [rep.summary()]
    if args.enumerate and not rep.complete:
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
    # an enumeration cut short by the budget has not decided |Aut|
    undecided = rep.undecided or (args.enumerate and not rep.complete)
    return UNDEC if undecided else PASS, prose, machine


# -- dual / convinv / cotensor / cointegral ------------------------------------

def cmd_dual(args) -> Result:
    f, C = _load_coring(args.coring)
    dual = right_dual_algebra(C) if args.side == "right" else left_dual_algebra(C)
    alg = dual.algebra
    rep = check_algebra(alg)
    payload = doc_io.algebra_to_payload(alg)
    prose = [f"{args.side} dual algebra: dim {dual.dim} over {f}", str(rep)]
    machine = {
        "command": "dual",
        "side": args.side,
        "dim": dual.dim,
        "algebra_ok": rep.ok,
        "mult": payload["mult"],
        "unit": payload["unit"],
    }
    if args.output:
        doc_io.save(args.output, doc_io.document("algebra", f, payload))
        prose.append(f"wrote dual algebra document to {args.output}")
    return PASS if rep.ok else FAIL, prose, machine


def cmd_convinv(args) -> Result:
    f, C = _load_coring(args.coring)
    p = doc_io.dual_element_from_payload(f, _load_doc(args.element, "dual-element", f)[1], C)
    val = p.validate()
    if not val.ok:
        return (FAIL, ["element is not one-sided linear", str(val)],
                {"command": "convinv", "status": "invalid-element"})
    q = convolution_inverse(p)
    if q is None:
        return (FAIL, ["not convolution invertible"],
                {"command": "convinv", "status": "not-invertible"})
    payload = doc_io.dual_element_to_payload(q)
    prose = [f"inverse values: {payload['values']}"]
    if args.output:
        doc_io.save(args.output, doc_io.document("dual-element", f, payload))
        prose.append(f"wrote inverse to {args.output}")
    return PASS, prose, {"command": "convinv", "status": "invertible", "inverse": payload}


def cmd_cotensor(args) -> Result:
    f, C = _load_coring(args.coring)

    def side(path: Optional[str]):
        if path is None:
            return regular_bicomodule(C)
        m = _load_morphism(path, f, C)
        rep = check_coring_morphism(m)
        if not (rep.ok and m.is_isomorphism()):
            raise InvalidStructureError("twist morphism is not an automorphism", rep)
        return twisted_bicomodule(m)
    ct = cotensor(side(args.twist_left), side(args.twist_right))
    return (PASS, [f"cotensor dimension: {ct.dim} inside M(x)N quotient of dim {ct.tensor.dim}"],
            {"command": "cotensor", "dim": ct.dim, "tensor_dim": ct.tensor.dim,
             "kernel_embedding": doc_io._matrix_to_json(ct.kernel)})


def cmd_cointegral(args) -> Result:
    f, C = _load_coring(args.coring)
    ci = find_cointegral(C)
    if ci is None:
        return (FAIL, ["no cointegral: the coring is not coseparable (over this base)"],
                {"command": "cointegral", "status": "none"})
    rep = ci.validate()
    return (PASS if rep.ok else FAIL,
            ["cointegral found; re-validation " + ("passed" if rep.ok else "FAILED")],
            {"command": "cointegral", "status": "found", "revalidates": rep.ok,
             "delta": doc_io._matrix_to_json(ci.delta)})


# -- fast-path kernels ---------------------------------------------------------

def _membership(command: str, res, args, budget: int, morphism: Callable) -> Result:
    """A fast-path kernel answer; with ``--cross-check`` also the generic
    linear route on the coring automorphism that ``morphism()`` builds."""
    result = _decision(command, res)
    if res.witness_values is not None:
        result[2]["witness_values"] = doc_io._matrix_to_json(res.witness_values)
    if not args.cross_check:
        return result
    other = is_inner(morphism(), budget=budget, seed=args.seed)
    return _cross_checked(result, "generic route", other.status, res.is_member, other.is_inner)


def cmd_graded_ker(args) -> Result:
    f, payload = _load_doc(args.graded, "graded")
    Gd = doc_io.graded_from_payload(f, payload)
    m = _load_morphism(args.morphism, f, graded_coring(Gd))
    budget = _budget(args)
    res = graded_ker_omega(m, Gd, budget=budget, seed=args.seed)
    return _membership("graded-ker", res, args, budget, lambda: m)


def cmd_entwining_ker(args) -> Result:
    f, payload = _load_doc(args.entwining, "entwining")
    E = doc_io.entwining_from_payload(f, payload)
    payload = _load_doc(args.morphism, "morphism", f)[1]
    alpha = _square(f, payload, "alpha", E.algebra.dim)
    gamma = _square(f, payload, "gamma", E.coalgebra.dim)
    budget = _budget(args)
    res = entwining_ker_membership(E, alpha, gamma, budget=budget, seed=args.seed)
    return _membership("entwining-ker", res, args, budget,
                       lambda: entwining_coring_automorphism(E, alpha, gamma))


def cmd_dk_ker(args) -> Result:
    f, payload = _load_doc(args.graded, "graded")
    Gd = doc_io.graded_from_payload(f, payload)
    payload = _load_doc(args.triple, "morphism", f)[1]
    f_map = doc_io._ints_from_json(doc_io._get(payload, "f"), "f")
    phi_map = doc_io._ints_from_json(doc_io._get(payload, "phi"), "phi")
    alpha = _square(f, payload, "alpha", Gd.algebra.dim)
    budget = _budget(args)
    res = graded_triple_ker_membership(Gd, f_map, phi_map, alpha,
                                       budget=budget, seed=args.seed)
    return _membership("dk-ker", res, args, budget,
                       lambda: graded_triple_coring_automorphism(Gd, f_map, phi_map, alpha))


# -- parser ---------------------------------------------------------------------

# subcommand -> (help, shared options, positional arguments as "name" or
# "name: help"); subcommand <name> runs cmd_<name>
COMMANDS = {
    "validate": ("run the kind-appropriate axiom checker", "", ["file"]),
    "build": ("emit a structure document for a named family", "", []),
    "inner": ("decide inner-ness of a coring automorphism", "cross", ["coring", "morphism"]),
    "exactseq": ("enumerate Aut and verify the exact sequence", "search", ["coring"]),
    "dual": ("emit a convolution dual algebra", "", ["coring"]),
    "convinv": ("two-sided convolution inverse of a dual element", "", ["coring", "element"]),
    "cotensor": ("cotensor product of (twisted) regular bicomodules", "", ["coring"]),
    "cointegral": ("solve for a cointegral (coseparability)", "", ["coring"]),
    "graded-ker": ("graded fast-path kernel membership", "cross", ["graded", "morphism"]),
    "entwining-ker": ("entwining fast-path kernel membership", "cross",
                      ["entwining", "morphism: morphism document with alpha and gamma matrices"]),
    "dk-ker": ("graded-triple (DK tower) kernel membership", "cross",
               ["graded", "triple: morphism document with f, phi (permutations) and alpha"]),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once: ``parse_args`` fills a fresh namespace each call."""
    p = argparse.ArgumentParser(
        prog="corings",
        description="exact computations with corings, comodules and their duals")
    sub = p.add_subparsers(dest="command", required=True)
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--budget", type=_budget_arg, default=None)
    search.add_argument("--seed", type=int, default=0)
    cross = argparse.ArgumentParser(add_help=False, parents=[search])
    cross.add_argument("--cross-check", action="store_true",
                       help="also run a second route and fail on disagreement")
    shared = {"": [], "search": [search], "cross": [cross]}
    cmd = {}
    for name, (text, options, positionals) in COMMANDS.items():
        cmd[name] = sub.add_parser(name, help=text, parents=shared[options])
        for arg in positionals:
            arg, _, arg_help = arg.partition(": ")
            cmd[name].add_argument(arg, help=arg_help or None)

    b = cmd["build"]
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

    e = cmd["exactseq"]
    source = e.add_mutually_exclusive_group()
    source.add_argument("--enumerate", action="store_true")
    e.add_argument("--full-rho", action="store_true",
                   help="enumerate base automorphisms too (default: rho = id)")
    source.add_argument("--morphisms", nargs="*", default=None)
    cmd["dual"].add_argument("--side", choices=["right", "left"], default="right")
    cmd["dual"].add_argument("-o", "--output", default=None)
    cmd["convinv"].add_argument("-o", "--output", default=None)
    ct = cmd["cotensor"]
    ct.add_argument("--twist-left", default=None, help="morphism file twisting the left factor")
    ct.add_argument("--twist-right", default=None, help="morphism file twisting the right factor")
    return p


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return PARSE_ERROR if e.code not in (0, None) else 0
    # looked up when called, so a rebinding of a cmd_* function reaches it
    command = globals()["cmd_" + args.command.replace("-", "_")]
    started = time.time()
    try:
        code, prose, machine = command(args)
        for line in prose:
            print(line)
        print(f"elapsed: {time.time() - started:.3f}s")
        print("MACHINE " + json.dumps(machine, sort_keys=True, separators=(",", ":")))
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
    except (InvalidStructureError, BalancednessError, KernelInvarianceError) as e:
        print(f"invalid structure: {e}", file=sys.stderr)
        return FAIL
    except OracleDisagreementError as e:
        print(f"oracle disagreement: {e}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
