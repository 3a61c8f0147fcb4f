"""JSON structure documents: the on-disk format for algebras, corings,
comodules, entwining/DK/graded data, morphisms and dual elements.

Documents are UTF-8 JSON with a declared format version.  Exact scalars are
serialized as strings over Q ("num/den", lowest terms) and as integer
residues in [0, p) over a prime field; no floating point can enter.
Comultiplications and coactions are stored through their ambient-tensor
representatives, which load-time projection maps back onto the canonical
quotient coordinates, so documents are independent of pivot choices.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

import numpy as np

from .algebra import Algebra, AlgebraMorphism, Bimodule, right_module
from .comodule import Comodule
from .convolution import LEFT, RIGHT, DualElement
from .coring import Coring, CoringMorphism
from .families import Bialgebra, DKStructure, EntwiningStructure, GradedData, coalgebra
from .fields import FieldSpec, Matrix
from .tensor import tensor_over

FORMAT_VERSION = 1

KINDS = ("algebra", "coring", "comodule", "entwining", "dk", "graded",
         "morphism", "dual-element")


class DocumentError(ValueError):
    """Malformed document: bad JSON, schema, or scalar syntax."""


def _field_to_json(f: FieldSpec) -> dict:
    if f.kind == "Q":
        return {"kind": "Q"}
    return {"kind": "Fp", "p": f.p}


def _field_from_json(obj) -> FieldSpec:
    try:
        if obj["kind"] == "Q":
            return FieldSpec.rationals()
        if obj["kind"] == "Fp":
            return FieldSpec.prime(int(obj["p"]))
    except (KeyError, TypeError, ValueError) as e:
        raise DocumentError(f"bad field spec {obj!r}: {e}") from None
    raise DocumentError(f"unknown field kind {obj!r}")


def _scalar_to_json(f: FieldSpec, x):
    if f.kind == "Q":
        fr = Fraction(x)
        return f"{fr.numerator}/{fr.denominator}" if fr.denominator != 1 else str(fr.numerator)
    return int(x)


def _scalar_from_json(f: FieldSpec, x):
    if f.kind == "Q":
        if not isinstance(x, str):
            raise DocumentError(f"rational scalars must be strings, got {x!r}")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise DocumentError(f"bad rational {x!r}: {e}") from None
    if isinstance(x, bool) or not isinstance(x, int):
        raise DocumentError(f"prime-field scalars must be integers, got {x!r}")
    if not (0 <= x < f.p):
        raise DocumentError(f"residue {x} out of range [0, {f.p})")
    return x


def _matrix_to_json(m: Matrix) -> list:
    f = m.field
    return [[_scalar_to_json(f, x) for x in row] for row in m.a.tolist()]


def _matrix_from_json(f: FieldSpec, obj, rows: int, cols: int, what: str) -> Matrix:
    if not isinstance(obj, list) or len(obj) != rows or \
            any(not isinstance(r, list) or len(r) != cols for r in obj):
        raise DocumentError(f"{what} must be a {rows}x{cols} matrix")
    data = [[_scalar_from_json(f, x) for x in row] for row in obj]
    return Matrix.from_rows(f, data)


def _vector_from_json(f: FieldSpec, obj, n: int, what: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != n:
        raise DocumentError(f"{what} must be a vector of length {n}")
    return np.array([_scalar_from_json(f, x) for x in obj], dtype=f.dtype)


# -- per-kind payloads --------------------------------------------------------

def algebra_to_payload(A: Algebra) -> dict:
    f = A.field
    return {
        "dim": A.dim,
        "mult": [[[_scalar_to_json(f, x) for x in A.mult[i, j, :]]
                  for j in range(A.dim)] for i in range(A.dim)],
        "unit": [_scalar_to_json(f, x) for x in A.unit],
    }


def algebra_from_payload(f: FieldSpec, payload, names=None) -> Algebra:
    d = _dim_from_json(payload, "algebra", least=1)
    mult_obj = _get(payload, "mult")
    unit_obj = _get(payload, "unit")
    if not isinstance(mult_obj, list) or len(mult_obj) != d or \
            any(not isinstance(r, list) or len(r) != d for r in mult_obj):
        raise DocumentError("structure tensor shape mismatch")
    mult = f.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            row = mult_obj[i][j]
            if not isinstance(row, list) or len(row) != d:
                raise DocumentError("structure tensor shape mismatch")
            for k2 in range(d):
                mult[i, j, k2] = _scalar_from_json(f, row[k2])
    unit = _vector_from_json(f, unit_obj, d, "unit")
    return Algebra(f, mult, unit, names=names)


def _actions_to_json(mats: list[Matrix]) -> list:
    return [_matrix_to_json(m) for m in mats]


def _actions_from_json(f: FieldSpec, obj, count: int, dim: int, what: str) -> list[Matrix]:
    if not isinstance(obj, list) or len(obj) != count:
        raise DocumentError(f"{what} needs one matrix per algebra basis vector")
    return [_matrix_from_json(f, m, dim, dim, what) for m in obj]


def coring_to_payload(C: Coring) -> dict:
    return {
        "base": algebra_to_payload(C.base),
        "dim": C.dim,
        "left_action": _actions_to_json(C.bimodule.left_action),
        "right_action": _actions_to_json(C.bimodule.right_action),
        "delta_ambient": _matrix_to_json(C.delta_ambient),
        "epsilon": _matrix_to_json(C.epsilon),
    }


def coring_from_payload(f: FieldSpec, payload, name: str = "coring") -> Coring:
    base = algebra_from_payload(f, _get(payload, "base"))
    d = _dim_from_json(payload, "coring", least=1)
    lact = _actions_from_json(f, _get(payload, "left_action"), base.dim, d, "left_action")
    ract = _actions_from_json(f, _get(payload, "right_action"), base.dim, d, "right_action")
    bim = Bimodule(base, base, d, lact, ract)
    damb = _matrix_from_json(f, _get(payload, "delta_ambient"), d * d, d, "delta_ambient")
    eps = _matrix_from_json(f, _get(payload, "epsilon"), base.dim, d, "epsilon")
    return Coring(base, bim, tensor_over(bim, bim).project @ damb, eps, name=name)


def comodule_to_payload(M: Comodule) -> dict:
    return {
        "coring": coring_to_payload(M.coring),
        "dim": M.dim,
        "right_action": _actions_to_json(M.module.right_action),
        "rho_ambient": _matrix_to_json(M.rho_ambient()),
    }


def comodule_from_payload(f: FieldSpec, payload) -> Comodule:
    C = coring_from_payload(f, _get(payload, "coring"))
    d = _dim_from_json(payload, "comodule")
    ract = _actions_from_json(f, _get(payload, "right_action"), C.base.dim, d, "right_action")
    module = right_module(C.base, d, ract)
    ramb = _matrix_from_json(f, _get(payload, "rho_ambient"), d * C.dim, d, "rho_ambient")
    return Comodule(C, module, tensor_over(module, C.bimodule).project @ ramb)


def entwining_to_payload(E: EntwiningStructure) -> dict:
    return {
        "algebra": algebra_to_payload(E.algebra),
        "coalgebra": coalgebra_to_payload(E.coalgebra),
        "psi": _matrix_to_json(E.psi),
    }


def coalgebra_to_payload(C: Coring) -> dict:
    return {"dim": C.dim, "delta": _matrix_to_json(C.delta_ambient),
            "epsilon": _matrix_to_json(C.epsilon)}


def coalgebra_from_payload(f: FieldSpec, obj) -> Coring:
    d = _dim_from_json(obj, "coalgebra", least=1)
    damb = _matrix_from_json(f, _get(obj, "delta"), d * d, d, "coalgebra delta")
    eps = _matrix_from_json(f, _get(obj, "epsilon"), 1, d, "coalgebra epsilon")
    return coalgebra(f, damb, eps, name="coalgebra")


def entwining_from_payload(f: FieldSpec, payload) -> EntwiningStructure:
    A = algebra_from_payload(f, _get(payload, "algebra"))
    C = coalgebra_from_payload(f, _get(payload, "coalgebra"))
    psi = _matrix_from_json(f, _get(payload, "psi"), A.dim * C.dim, C.dim * A.dim, "psi")
    return EntwiningStructure(A, C, psi)


def dk_to_payload(D: DKStructure) -> dict:
    return {
        "bialgebra": {
            "algebra": algebra_to_payload(D.bialgebra.algebra),
            "delta": _matrix_to_json(D.bialgebra.delta),
            "epsilon": _matrix_to_json(D.bialgebra.epsilon),
        },
        "algebra": algebra_to_payload(D.algebra),
        "coaction": _matrix_to_json(D.coaction),
        "coalgebra": coalgebra_to_payload(D.coalgebra),
        "action": _matrix_to_json(D.action),
    }


def dk_from_payload(f: FieldSpec, payload) -> DKStructure:
    bi_obj = _get(payload, "bialgebra")
    Halg = algebra_from_payload(f, _get(bi_obj, "algebra"))
    H = Bialgebra(Halg,
                  _matrix_from_json(f, _get(bi_obj, "delta"), Halg.dim**2, Halg.dim, "H delta"),
                  _matrix_from_json(f, _get(bi_obj, "epsilon"), 1, Halg.dim, "H epsilon"))
    A = algebra_from_payload(f, _get(payload, "algebra"))
    C = coalgebra_from_payload(f, _get(payload, "coalgebra"))
    coact = _matrix_from_json(f, _get(payload, "coaction"), A.dim * Halg.dim, A.dim, "coaction")
    act = _matrix_from_json(f, _get(payload, "action"), C.dim, C.dim * Halg.dim, "action")
    return DKStructure(H, A, coact, C, act)


def graded_to_payload(Gd: GradedData) -> dict:
    return {
        "group": [list(map(int, r)) for r in Gd.group],
        "gset": [list(map(int, r)) for r in Gd.gset],
        "algebra": algebra_to_payload(Gd.algebra),
        "degrees": list(map(int, Gd.degrees)),
    }


def graded_from_payload(f: FieldSpec, payload) -> GradedData:
    tables = []
    for key in ("group", "gset"):
        rows = _get(payload, key)
        if not isinstance(rows, list):
            raise DocumentError(f"{key} must be a table")
        tables.append([_ints_from_json(r, f"{key} row") for r in rows])
    A = algebra_from_payload(f, _get(payload, "algebra"))
    degrees = _ints_from_json(_get(payload, "degrees"), "degrees")
    if len(degrees) != A.dim:
        raise DocumentError("degrees must list one group index per basis vector")
    return GradedData(tables[0], tables[1], A, degrees)


def morphism_from_payload(f: FieldSpec, payload, coring: Coring) -> CoringMorphism:
    phi = _matrix_from_json(f, _get(payload, "phi"), coring.dim, coring.dim, "phi")
    rho = _matrix_from_json(f, _get(payload, "rho"), coring.base.dim, coring.base.dim, "rho")
    return CoringMorphism(coring, coring, phi, AlgebraMorphism(coring.base, coring.base, rho))


def dual_element_to_payload(p: DualElement) -> dict:
    side = "right" if p.side == RIGHT else "left"
    return {"side": side, "values": _matrix_to_json(p.values)}


def dual_element_from_payload(f: FieldSpec, payload, coring: Coring) -> DualElement:
    side_txt = _get(payload, "side")
    if side_txt not in ("right", "left"):
        raise DocumentError(f"dual element side must be right or left, got {side_txt!r}")
    vals = _matrix_from_json(f, _get(payload, "values"), coring.base.dim, coring.dim, "values")
    return DualElement(coring, RIGHT if side_txt == "right" else LEFT, vals)


def _get(obj, key):
    try:
        return obj[key]
    except (KeyError, TypeError):
        raise DocumentError(f"missing field {key!r}") from None


def _ints_from_json(obj, what: str) -> list[int]:
    """A list of integers (not bools), such as a group table row."""
    if not isinstance(obj, list) or any(isinstance(x, bool) or not isinstance(x, int)
                                        for x in obj):
        raise DocumentError(f"{what} must be a list of integers, got {obj!r}")
    return list(obj)


def _dim_from_json(obj, what: str, least: int = 0) -> int:
    """The ``dim`` field of a payload: an integer (not a bool) >= least."""
    d = _get(obj, "dim")
    if isinstance(d, bool) or not isinstance(d, int) or d < least:
        raise DocumentError(f"{what} dim must be an integer >= {least}, got {d!r}")
    return d


# -- document envelope --------------------------------------------------------

def document(kind: str, field: FieldSpec, payload: dict,
             names: Optional[list[str]] = None) -> dict:
    if kind not in KINDS:
        raise DocumentError(f"unknown document kind {kind!r}")
    doc = {
        "format_version": FORMAT_VERSION,
        "field": _field_to_json(field),
        "kind": kind,
        "payload": payload,
    }
    if names:
        doc["names"] = list(names)
    return doc


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise DocumentError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    ver = doc.get("format_version")
    if ver != FORMAT_VERSION:
        raise DocumentError(f"unsupported format version {ver!r}")
    if doc.get("kind") not in KINDS:
        raise DocumentError(f"unknown document kind {doc.get('kind')!r}")
    _field_from_json(doc.get("field"))
    if "payload" not in doc:
        raise DocumentError("missing payload")
    return doc


def parse_field(doc: dict) -> FieldSpec:
    return _field_from_json(doc["field"])
