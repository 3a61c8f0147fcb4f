"""The command-line surface: round-trips, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from corings import GF, QQ, cli, matrix_coring, regular_bicomodule, scalar_algebra
from corings.cli import main
from corings import io as doc_io
from corings.comodule import NOT_ISOMORPHIC, IsoSearchResult
from corings.picard import NOT_INNER, InnerTestResult

F2, F3 = GF(2), GF(3)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    machine = None
    for line in out.splitlines():
        if line.startswith("MACHINE "):
            machine = json.loads(line[len("MACHINE "):])
    return code, out, machine


@pytest.mark.parametrize("family,extra", [
    ("trivial", ["--dim", "2", "--field", "F2"]),
    ("matrix", ["-n", "2", "--field", "F2"]),
    ("matrix", ["-n", "2", "--base-group", "2", "--field", "F3"]),
    ("grouplike", ["-n", "3", "--field", "F5"]),
    ("graded-coring", ["--group", "2", "--field", "F3"]),
    ("entwining", ["--group", "2", "--field", "F3"]),
    ("graded", ["--group", "2", "--field", "F2"]),
])
def test_build_validate_roundtrip(tmp_path, capsys, family, extra):
    out = str(tmp_path / "doc.json")
    code, _, _ = run(capsys, "build", family, *extra, "-o", out)
    assert code == 0
    code, _, machine = run(capsys, "validate", out)
    assert code == 0
    assert machine["ok"] is True


def test_validate_broken_counit_names_axiom(tmp_path, capsys):
    out = str(tmp_path / "mc2.json")
    run(capsys, "build", "matrix", "-n", "2", "--field", "F2", "-o", out)
    doc = doc_io.load(out)
    doc["payload"]["epsilon"][0][1] = 1  # eps(e_12) = 1
    doc_io.save(out, doc)
    code, _, machine = run(capsys, "validate", out)
    assert code == 1
    failed = [c["name"] for c in machine["checks"] if not c["ok"]]
    assert failed


def test_comodule_document_roundtrip(tmp_path, capsys):
    """The regular right comodule of Mc2(F2), written as a document, loads
    back to the same coaction and validates; a zero coaction fails."""
    M = regular_bicomodule(matrix_coring(scalar_algebra(F2), 2)).as_right
    payload = doc_io.comodule_to_payload(M)
    path = str(tmp_path / "comodule.json")
    doc_io.save(path, doc_io.document("comodule", F2, payload))
    back = doc_io.comodule_from_payload(F2, doc_io.load(path)["payload"])
    assert back.rho == M.rho and back.rho_ambient() == M.rho_ambient()
    code, _, machine = run(capsys, "validate", path)
    assert code == 0 and machine["kind"] == "comodule" and machine["ok"] is True
    payload["rho_ambient"] = [[0] * len(row) for row in payload["rho_ambient"]]
    doc_io.save(path, doc_io.document("comodule", F2, payload))
    code, _, machine = run(capsys, "validate", path)
    assert code == 1 and machine["ok"] is False


def test_malformed_rational_is_parse_error(tmp_path, capsys):
    out = str(tmp_path / "t.json")
    run(capsys, "build", "trivial", "--dim", "1", "--field", "Q", "-o", out)
    doc = doc_io.load(out)
    doc["payload"]["base"]["unit"][0] = "3/0"
    with open(out, "w") as fh:
        json.dump(doc, fh)
    code = main(["validate", out])
    assert code == 3


@pytest.mark.parametrize("where,value", [
    (("dim",), "x"),                 # coring dim
    (("base", "dim"), "x"),          # algebra dim
    (("base", "dim"), True),
    (("base", "mult"), 5),
    (("base", "mult"), [[5]]),
])
def test_malformed_document_is_parse_error(tmp_path, capsys, where, value):
    out = str(tmp_path / "t.json")
    run(capsys, "build", "trivial", "--dim", "1", "--field", "Q", "-o", out)
    doc = doc_io.load(out)
    obj = doc["payload"]
    for key in where[:-1]:
        obj = obj[key]
    obj[where[-1]] = value
    doc_io.save(out, doc)
    assert main(["validate", out]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", [["validate"], ["exactseq", "--enumerate"], ["cointegral"],
                                     ["dual"], ["cotensor"]])
def test_zero_dimensional_coring_is_parse_error(tmp_path, capsys, command):
    """A coring document of dim 0, well formed otherwise, is refused on
    load, as algebra and coalgebra documents of dim 0 are."""
    out = str(tmp_path / "z.json")
    run(capsys, "build", "trivial", "--dim", "1", "--field", "F3", "-o", out)
    doc = doc_io.load(out)
    doc["payload"].update(dim=0, left_action=[[]], right_action=[[]], delta_ambient=[],
                          epsilon=[[]])
    doc_io.save(out, doc)
    assert main([command[0], out, *command[1:]]) == 3
    assert "coring dim must be an integer >= 1" in capsys.readouterr().err


def test_invalid_json_is_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 3


def test_inner_identity(tmp_path, capsys):
    cpath = str(tmp_path / "kz2.json")
    run(capsys, "build", "grouplike", "-n", "2", "--field", "F2", "-o", cpath)
    mpath = str(tmp_path / "id.json")
    doc_io.save(mpath, doc_io.document("morphism", F2, {
        "phi": [[1, 0], [0, 1]], "rho": [[1]],
    }))
    code, out, machine = run(capsys, "inner", cpath, mpath, "--cross-check")
    assert code == 0
    assert machine["status"] == "inner"
    assert machine["oracle_agreement"] is True


def test_inner_swap_not_inner(tmp_path, capsys):
    cpath = str(tmp_path / "kz2.json")
    run(capsys, "build", "grouplike", "-n", "2", "--field", "F2", "-o", cpath)
    mpath = str(tmp_path / "swap.json")
    doc_io.save(mpath, doc_io.document("morphism", F2, {
        "phi": [[0, 1], [1, 0]], "rho": [[1]],
    }))
    code, _, machine = run(capsys, "inner", cpath, mpath, "--cross-check")
    assert code == 0
    assert machine["status"] == "not-inner"


def test_inner_budget_exhaustion_exit_2(tmp_path, capsys):
    cpath = str(tmp_path / "kz3.json")
    run(capsys, "build", "grouplike", "-n", "3", "--field", "F2", "-o", cpath)
    mpath = str(tmp_path / "id.json")
    doc_io.save(mpath, doc_io.document("morphism", F2, {
        "phi": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "rho": [[1]],
    }))
    code, _, machine = run(capsys, "inner", cpath, mpath, "--budget", "1")
    assert code == 2
    assert machine["status"] == "undecided"


def test_exactseq_truncated_enumeration_exit_2(tmp_path, capsys):
    # grouplike(4)/F5 has 24 automorphisms; budget 50 stops the scan early
    cpath = str(tmp_path / "kz4.json")
    run(capsys, "build", "grouplike", "-n", "4", "--field", "F5", "-o", cpath)
    code, _, machine = run(capsys, "exactseq", cpath, "--enumerate", "--budget", "50")
    assert machine["complete"] is False
    assert code == 2


@pytest.mark.parametrize("command", ["inner", "exactseq", "graded-ker", "entwining-ker", "dk-ker"])
@pytest.mark.parametrize("budget", ["-5", "ten"])
def test_bad_budget_is_parse_error(tmp_path, capsys, command, budget):
    # valid documents, so the budget is the only fault
    docs = {name: str(tmp_path / f"{name}.json") for name in ("c", "g", "e", "id", "gid", "m", "t")}
    run(capsys, "build", "grouplike", "-n", "2", "--field", "F3", "-o", docs["c"])
    run(capsys, "build", "graded", "--group", "2", "--field", "F3", "-o", docs["g"])
    run(capsys, "build", "entwining", "--group", "2", "--field", "F3", "-o", docs["e"])
    doc_io.save(docs["id"], doc_io.document("morphism", F3, {"phi": [[1, 0], [0, 1]], "rho": [[1]]}))
    doc_io.save(docs["gid"], doc_io.document("morphism", F3, {
        "phi": [[int(i == j) for j in range(4)] for i in range(4)], "rho": [[1, 0], [0, 1]]}))
    doc_io.save(docs["m"], doc_io.document("morphism", F3, {
        "alpha": [[1, 0], [0, 1]], "gamma": [[0, 1], [1, 0]]}))
    doc_io.save(docs["t"], doc_io.document("morphism", F3, {
        "f": [0, 1], "phi": [1, 0], "alpha": [[1, 0], [0, 1]]}))
    argv = {"inner": [docs["c"], docs["id"]], "exactseq": [docs["c"], "--enumerate"],
            "graded-ker": [docs["g"], docs["gid"]], "entwining-ker": [docs["e"], docs["m"]],
            "dk-ker": [docs["g"], docs["t"]]}[command]
    assert main([command, *argv]) in (0, 2)
    capsys.readouterr()
    assert main([command, *argv, "--budget", budget]) == 3
    assert "--budget" in capsys.readouterr().err


def test_exactseq_matrix_coring(tmp_path, capsys):
    cpath = str(tmp_path / "mc2.json")
    run(capsys, "build", "matrix", "-n", "2", "--field", "F2", "-o", cpath)
    code, _, machine = run(capsys, "exactseq", cpath, "--enumerate")
    assert code == 0
    assert machine["aut"] == 6 and machine["inn"] == 6 and machine["out"] == 1


def test_exactseq_kz3(tmp_path, capsys):
    cpath = str(tmp_path / "kz3.json")
    run(capsys, "build", "grouplike", "-n", "3", "--field", "F2", "-o", cpath)
    code, _, machine = run(capsys, "exactseq", cpath, "--enumerate")
    assert code == 0
    assert machine["aut"] == 6 and machine["inn"] == 1 and machine["out"] == 6


def test_exactseq_trivial(tmp_path, capsys):
    cpath = str(tmp_path / "triv.json")
    run(capsys, "build", "trivial", "--dim", "1", "--field", "F2", "-o", cpath)
    code, _, machine = run(capsys, "exactseq", cpath, "--enumerate")
    assert code == 0
    assert machine["aut"] == 1


def _mc2_and_morphism(tmp_path, capsys, phi):
    cpath = str(tmp_path / "mc2.json")
    run(capsys, "build", "matrix", "-n", "2", "--field", "F2", "-o", cpath)
    mpath = str(tmp_path / "phi.json")
    doc_io.save(mpath, doc_io.document("morphism", F2, {"phi": phi, "rho": [[1]]}))
    return cpath, mpath


def test_exactseq_given_identity_morphism(tmp_path, capsys):
    """A given list was never enumerated: MACHINE says it is not all of
    Aut, and no budget cut it short, so no incompleteness warning."""
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    cpath, mpath = _mc2_and_morphism(tmp_path, capsys, identity)
    code, out, machine = run(capsys, "exactseq", cpath, "--morphisms", mpath)
    assert code == 0
    assert machine["aut"] == 1 and machine["inn"] == 1 and machine["complete"] is False
    assert "warning" not in out


def test_exactseq_given_zero_morphism_is_invalid(tmp_path, capsys):
    cpath, mpath = _mc2_and_morphism(tmp_path, capsys, [[0] * 4 for _ in range(4)])
    capsys.readouterr()
    code = main(["exactseq", cpath, "--morphisms", mpath])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("invalid structure: ")
    assert "Traceback" not in err


def test_dual_and_convinv(tmp_path, capsys):
    cpath = str(tmp_path / "kz2f3.json")
    run(capsys, "build", "grouplike", "-n", "2", "--field", "F3", "-o", cpath)
    code, _, machine = run(capsys, "dual", cpath, "--side", "right")
    assert code == 0 and machine["algebra_ok"] and machine["dim"] == 2
    epath = str(tmp_path / "p.json")
    doc_io.save(epath, doc_io.document("dual-element", F3, {
        "side": "right", "values": [[1, 2]],
    }))
    code, _, machine = run(capsys, "convinv", cpath, epath)
    assert code == 0
    assert machine["inverse"]["values"] == [[1, 2]]
    doc_io.save(epath, doc_io.document("dual-element", F3, {
        "side": "right", "values": [[1, 0]],
    }))
    code, _, machine = run(capsys, "convinv", cpath, epath)
    assert code == 1
    assert machine["status"] == "not-invertible"


def test_cotensor_command(tmp_path, capsys):
    cpath = str(tmp_path / "kz2.json")
    run(capsys, "build", "grouplike", "-n", "2", "--field", "F2", "-o", cpath)
    code, _, machine = run(capsys, "cotensor", cpath)
    assert code == 0
    assert machine["dim"] == 2  # C box C = C
    mpath = str(tmp_path / "swap.json")
    doc_io.save(mpath, doc_io.document("morphism", F2, {
        "phi": [[0, 1], [1, 0]], "rho": [[1]],
    }))
    code, _, machine = run(capsys, "cotensor", cpath, "--twist-left", mpath)
    assert code == 0 and machine["dim"] == 2


@pytest.mark.parametrize("entry,message", [
    ((0, 0, 0), "ambient map does not descend to the quotient"),
    ((0, 2, 0), "right action does not preserve the cotensor kernel"),
], ids=["unbalanced", "kernel-not-invariant"])
def test_cotensor_of_broken_coring_over_a_base_fails_in_one_line(tmp_path, capsys, entry, message):
    """One flipped right-action entry of Mc2 over F2[Z2] breaks the coring
    so that cotensor's quotient or its kernel restriction fails; main turns
    either error into exit 1 and one stderr line."""
    cpath = str(tmp_path / "mc2z2.json")
    run(capsys, "build", "matrix", "-n", "2", "--base-group", "2", "--field", "F2", "-o", cpath)
    doc = doc_io.load(cpath)
    i, j, t = entry
    action = doc["payload"]["right_action"]
    action[i][j][t] = 1 - action[i][j][t]
    doc_io.save(cpath, doc)
    assert main(["cotensor", cpath]) == 1
    assert capsys.readouterr().err == f"invalid structure: {message}\n"


def test_cointegral_command(tmp_path, capsys):
    cpath = str(tmp_path / "g.json")
    run(capsys, "build", "graded-coring", "--group", "2", "--field", "F3", "-o", cpath)
    code, _, machine = run(capsys, "cointegral", cpath)
    assert code == 0 and machine["revalidates"] is True


def test_graded_ker_command(tmp_path, capsys):
    gpath = str(tmp_path / "graded.json")
    run(capsys, "build", "graded", "--group", "2", "--field", "F3", "-o", gpath)
    mpath = str(tmp_path / "id.json")
    doc_io.save(mpath, doc_io.document("morphism", F3, {
        "phi": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        "rho": [[1, 0], [0, 1]],
    }))
    code, _, machine = run(capsys, "graded-ker", gpath, mpath, "--cross-check")
    assert code == 0
    assert machine["status"] == "inner" and machine["oracle_agreement"] is True


def test_entwining_ker_command(tmp_path, capsys):
    epath = str(tmp_path / "ent.json")
    run(capsys, "build", "entwining", "--group", "2", "--field", "F3", "-o", epath)
    mpath = str(tmp_path / "m.json")
    doc_io.save(mpath, doc_io.document("morphism", F3, {
        "alpha": [[1, 0], [0, 1]], "gamma": [[0, 1], [1, 0]],
    }))
    code, _, machine = run(capsys, "entwining-ker", epath, mpath, "--cross-check")
    assert code == 0
    assert machine["oracle_agreement"] is True


def test_dk_ker_command(tmp_path, capsys):
    gpath = str(tmp_path / "graded.json")
    run(capsys, "build", "graded", "--group", "2", "--field", "F3", "-o", gpath)
    tpath = str(tmp_path / "triple.json")
    doc_io.save(tpath, doc_io.document("morphism", F3, {
        "f": [0, 1], "phi": [1, 0], "alpha": [[1, 0], [0, 1]],
    }))
    code, _, machine = run(capsys, "dk-ker", gpath, tpath, "--cross-check")
    assert code == 0
    assert machine["oracle_agreement"] is True


def test_machine_block_deterministic(tmp_path, capsys):
    cpath = str(tmp_path / "mc2.json")
    run(capsys, "build", "matrix", "-n", "2", "--field", "F2", "-o", cpath)
    _, out1, m1 = run(capsys, "exactseq", cpath, "--enumerate", "--seed", "7")
    _, out2, m2 = run(capsys, "exactseq", cpath, "--enumerate", "--seed", "7")
    line1 = [l for l in out1.splitlines() if l.startswith("MACHINE ")]
    line2 = [l for l in out2.splitlines() if l.startswith("MACHINE ")]
    assert line1 == line2


def test_budget_env_var(tmp_path, capsys, monkeypatch):
    cpath = str(tmp_path / "kz3.json")
    run(capsys, "build", "grouplike", "-n", "3", "--field", "F2", "-o", cpath)
    mpath = str(tmp_path / "id.json")
    doc_io.save(mpath, doc_io.document("morphism", F2, {
        "phi": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "rho": [[1]],
    }))
    monkeypatch.setenv("CORINGS_BUDGET", "1")
    code, _, machine = run(capsys, "inner", cpath, mpath)
    assert code == 2 and machine["status"] == "undecided"
    monkeypatch.setenv("CORINGS_BUDGET", "not-a-number")
    assert main(["inner", cpath, mpath]) == 3


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "corings.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "exactseq" in proc.stdout


def _assert_parse_error(argv, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("key,value", [
    ("degrees", ["x", 1]),
    ("group", [["x", 1], [1, 0]]),
    ("gset", [[0, 1], [1, True]]),
])
def test_malformed_graded_integers_are_parse_errors(tmp_path, capsys, key, value):
    path = str(tmp_path / "g.json")
    run(capsys, "build", "graded", "--group", "2", "--field", "F3", "-o", path)
    doc = doc_io.load(path)
    doc["payload"][key] = value
    doc_io.save(path, doc)
    _assert_parse_error(["validate", path], capsys)


@pytest.mark.parametrize("key,value", [("f", ["x", 1]), ("phi", [1, 0.5])])
def test_malformed_triple_integers_are_parse_errors(tmp_path, capsys, key, value):
    gpath, tpath = str(tmp_path / "g.json"), str(tmp_path / "t.json")
    run(capsys, "build", "graded", "--group", "2", "--field", "F3", "-o", gpath)
    payload = {"f": [0, 1], "phi": [1, 0], "alpha": [[1, 0], [0, 1]]}
    payload[key] = value
    doc_io.save(tpath, doc_io.document("morphism", F3, payload))
    _assert_parse_error(["dk-ker", gpath, tpath], capsys)


@pytest.mark.parametrize("command,family", [("graded-ker", "graded"),
                                            ("entwining-ker", "entwining"),
                                            ("dk-ker", "graded")])
def test_wrong_kind_second_document_is_parse_error(tmp_path, capsys, command, family):
    # a coring document where the morphism (or triple) document belongs
    first, coring = str(tmp_path / "first.json"), str(tmp_path / "coring.json")
    run(capsys, "build", family, "--group", "2", "--field", "F3", "-o", first)
    run(capsys, "build", "grouplike", "-n", "2", "--field", "F3", "-o", coring)
    assert main([command, first, coring]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {coring} is not a morphism document\n"


def _declared_over(field, kind, payload):
    """A document of this kind over ``field``; over Q each matrix entry is
    written as a string, as rational scalars are."""
    if field.kind == "Q":
        payload = {key: [[str(x) for x in row] for row in val]
                   if isinstance(val, list) and val and isinstance(val[0], list) else val
                   for key, val in payload.items()}
    return doc_io.document(kind, field, payload)


_IDENTITY4 = [[int(i == j) for j in range(4)] for i in range(4)]

# command -> (family and options of its first document, the second document's
# kind and payload, the command line with {first} and {second} in it)
SECOND_DOCUMENTS = {
    "inner": (["grouplike", "-n", "2"], "morphism", {"phi": [[1, 0], [0, 1]], "rho": [[1]]},
              ["inner", "{first}", "{second}"]),
    "exactseq": (["grouplike", "-n", "2"], "morphism", {"phi": [[1, 0], [0, 1]], "rho": [[1]]},
                 ["exactseq", "{first}", "--morphisms", "{second}"]),
    "cotensor-left": (["grouplike", "-n", "2"], "morphism", {"phi": [[0, 1], [1, 0]], "rho": [[1]]},
                      ["cotensor", "{first}", "--twist-left", "{second}"]),
    "cotensor-right": (["grouplike", "-n", "2"], "morphism",
                       {"phi": [[0, 1], [1, 0]], "rho": [[1]]},
                       ["cotensor", "{first}", "--twist-right", "{second}"]),
    "convinv": (["grouplike", "-n", "2"], "dual-element", {"side": "right", "values": [[1, 2]]},
                ["convinv", "{first}", "{second}"]),
    "graded-ker": (["graded", "--group", "2"], "morphism",
                   {"phi": _IDENTITY4, "rho": [[1, 0], [0, 1]]},
                   ["graded-ker", "{first}", "{second}"]),
    "entwining-ker": (["entwining", "--group", "2"], "morphism",
                      {"alpha": [[1, 0], [0, 1]], "gamma": [[0, 1], [1, 0]]},
                      ["entwining-ker", "{first}", "{second}"]),
    "dk-ker": (["graded", "--group", "2"], "morphism",
               {"f": [0, 1], "phi": [1, 0], "alpha": [[1, 0], [0, 1]]},
               ["dk-ker", "{first}", "{second}"]),
}


@pytest.mark.parametrize("declared", [GF(5), QQ], ids=["F5", "Q"])
@pytest.mark.parametrize("command", list(SECOND_DOCUMENTS))
def test_second_document_over_another_field_is_parse_error(tmp_path, capsys, command, declared):
    """A second document is read in the first one's field: one declaring
    another field is a parse error whose one stderr line names both, and
    the same document declaring F3 passes."""
    family, kind, payload, argv = SECOND_DOCUMENTS[command]
    paths = {"first": str(tmp_path / "first.json"), "second": str(tmp_path / "second.json")}
    run(capsys, "build", *family, "--field", "F3", "-o", paths["first"])
    argv = [a.format(**paths) for a in argv]
    doc_io.save(paths["second"], _declared_over(F3, kind, payload))
    assert main(argv) == 0
    capsys.readouterr()
    doc_io.save(paths["second"], _declared_over(declared, kind, payload))
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == f"error: {paths['second']} is over {declared}, but the command works over F_3\n"


def test_exactseq_enumerate_and_morphisms_are_exclusive(tmp_path, capsys):
    cpath, mpath = _kz2_identity(tmp_path, capsys)
    assert main(["exactseq", cpath, "--morphisms", mpath]) == 0
    capsys.readouterr()
    assert main(["exactseq", cpath, "--enumerate", "--morphisms", mpath]) == 3
    assert "not allowed with argument" in capsys.readouterr().err


def test_full_rho_exactseq_completes_on_trivial_f5_z3(tmp_path, capsys):
    """F5[Z3] has two automorphisms, fixing 1 and fixing or swapping g and
    g^2; the base scan over the 5^6 unit-preserving matrices completes."""
    cpath = str(tmp_path / "triv.json")
    run(capsys, "build", "trivial", "--dim", "3", "--field", "F5", "-o", cpath)
    code, _, machine = run(capsys, "exactseq", cpath, "--enumerate", "--full-rho")
    assert code == 0
    assert machine["complete"] is True
    assert (machine["aut"], machine["inn"], machine["out"]) == (2, 1, 2)


def test_bool_residue_is_parse_error(tmp_path, capsys):
    path = str(tmp_path / "t.json")
    run(capsys, "build", "trivial", "--dim", "1", "--field", "F2", "-o", path)
    doc = doc_io.load(path)
    doc["payload"]["base"]["unit"] = [True]
    doc_io.save(path, doc)
    _assert_parse_error(["validate", path], capsys)


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_without_traceback(tmp_path, unbuffered):
    """A reader that is gone before the first write (``corings ... | head``
    after head exits) gives exit 1 and nothing on stderr."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "corings.cli", "build", "trivial", "--field", "F2",
             "-o", str(tmp_path / "t.json")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 1


@pytest.mark.parametrize("key,value", [("phi", [5, 0]), ("f", [0, 7]), ("phi", [1])])
def test_out_of_range_triple_is_invalid_structure(tmp_path, capsys, key, value):
    """Maps that leave the group or the G-set fail their shape checks; the
    checks that would index with them are not run."""
    gpath, tpath = str(tmp_path / "g.json"), str(tmp_path / "t.json")
    run(capsys, "build", "graded", "--group", "2", "--field", "F3", "-o", gpath)
    payload = {"f": [0, 1], "phi": [1, 0], "alpha": [[1, 0], [0, 1]]}
    payload[key] = value
    doc_io.save(tpath, doc_io.document("morphism", F3, payload))
    assert main(["dk-ker", gpath, tpath]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid structure: invalid graded triple") and "Traceback" not in err
    assert "[FAIL] " + ("phi-map-shape" if key == "phi" else "f-group-morphism") in err
    assert "phi-equivariant" not in err and "alpha-degree-compatible" not in err


@pytest.mark.parametrize("args", [
    ["grouplike", "--field", "Fx"],
    ["grouplike", "--field", "F4"],
    ["grouplike", "-n", "0"],
    ["matrix", "-n", "0"],
    ["trivial", "--dim", "0"],
    ["graded", "--group", "0"],
    ["graded-coring", "--trivial-action", "--points", "0"],
])
def test_build_usage_errors_are_parse_errors(tmp_path, capsys, args):
    assert main(["build", *args, "-o", str(tmp_path / "x.json")]) == 3
    err = capsys.readouterr().err
    assert "error: argument" in err and "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("build,action,message", [
    # grouplike(2) with a non-scalar right action: the counit is no longer
    # one-sided linear, so C* has no unit
    (["grouplike", "-n", "2", "--field", "F3"], [[[1, 1], [0, 1]]],
     "counit is not one-sided linear"),
    # Mc2(F2) with a singular right action: convolution leaves the hom space
    (["matrix", "-n", "2", "--field", "F2"], [[[0, 0, 0, 0], [0, 1, 0, 0],
                                               [0, 0, 1, 0], [0, 0, 0, 1]]],
     "convolution left the dual hom space"),
])
def test_dual_of_an_invalid_coring_is_invalid_structure(tmp_path, capsys, build, action,
                                                        message):
    path = str(tmp_path / "c.json")
    run(capsys, "build", *build, "-o", path)
    doc = doc_io.load(path)
    doc["payload"]["right_action"] = action
    doc_io.save(path, doc)
    assert main(["dual", path, "--side", "right"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid structure: " + message) and "Traceback" not in err


@pytest.mark.parametrize("key,value", [("degrees", [0, 2]), ("group", [[]])])
def test_graded_bad_degrees_or_group_fail_validation(tmp_path, capsys, key, value):
    """Checks that index the group table by degrees run only on in-range
    degrees and a valid group table."""
    path = str(tmp_path / "g.json")
    run(capsys, "build", "graded", "--group", "2", "--field", "F3", "-o", path)
    doc = doc_io.load(path)
    doc["payload"][key] = value
    doc_io.save(path, doc)
    code, _, machine = run(capsys, "validate", path)
    assert code == 1 and machine["ok"] is False
    checks = {c["name"]: c["ok"] for c in machine["checks"]}
    assert checks["degrees-shape"] is False
    assert "grading-multiplicative" not in checks and "unit-homogeneous" not in checks


@pytest.mark.parametrize("a_mult,a_unit", [(1, 1), (3, 2)])
def test_dk_over_a_rescaled_basis_validates(tmp_path, capsys, a_mult, a_unit):
    """A valid Doi-Koppinen triple over F5 whose units are not basis vectors:
    H = k on b0 = 2 (b0^2 = 2 b0, 1 = 3 b0, Delta b0 = 3 b0 (x) b0, eps b0 = 2),
    A = k on a0 = 1 or a0 = 3, C = grouplike(1) with c.b0 = 2c.  The unital
    checks compare u (x) u reduced mod 5."""
    payload = {
        "bialgebra": {"algebra": {"dim": 1, "mult": [[[2]]], "unit": [3]},
                      "delta": [[3]], "epsilon": [[2]]},
        "algebra": {"dim": 1, "mult": [[[a_mult]]], "unit": [a_unit]},
        "coaction": [[3]],
        "coalgebra": {"dim": 1, "delta": [[1]], "epsilon": [[1]]},
        "action": [[2]],
    }
    path = str(tmp_path / "dk.json")
    doc_io.save(path, doc_io.document("dk", GF(5), payload))
    code, _, machine = run(capsys, "validate", path)
    assert code == 0 and machine["ok"] is True


SUBCOMMANDS = ["validate", "build", "inner", "exactseq", "dual", "convinv", "cotensor",
               "cointegral", "graded-ker", "entwining-ker", "dk-ker"]
SEARCH_COMMANDS = {"inner", "exactseq", "graded-ker", "entwining-ker", "dk-ker"}
CROSS_CHECK_COMMANDS = {"inner", "graded-ker", "entwining-ker", "dk-ker"}


def _kz2_identity(tmp_path, capsys):
    cpath, mpath = str(tmp_path / "kz2.json"), str(tmp_path / "id.json")
    run(capsys, "build", "grouplike", "-n", "2", "--field", "F2", "-o", cpath)
    doc_io.save(mpath, doc_io.document("morphism", F2, {"phi": [[1, 0], [0, 1]], "rho": [[1]]}))
    return cpath, mpath


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    """One process, one parser: a call's options and defaults do not leak
    into the next call."""
    assert cli.build_parser() is cli.build_parser()
    qpath, f2path = str(tmp_path / "q.json"), str(tmp_path / "f2.json")
    assert run(capsys, "build", "grouplike", "--field", "Q", "-o", qpath)[0] == 0
    assert run(capsys, "build", "grouplike", "-o", f2path)[0] == 0
    assert doc_io.parse_field(doc_io.load(qpath)) == QQ
    assert doc_io.parse_field(doc_io.load(f2path)) == F2
    cpath, mpath = _kz2_identity(tmp_path, capsys)
    code, out, machine = run(capsys, "inner", cpath, mpath, "--cross-check")
    assert code == 0 and machine["cross_check"] == "isomorphic"
    code, out, machine = run(capsys, "inner", cpath, mpath)
    assert code == 0 and machine["status"] == "inner"
    assert "cross_check" not in machine and "oracle_agreement" not in machine
    assert "bicomodule oracle" not in out


def test_inner_oracle_disagreement_fails(tmp_path, capsys, monkeypatch):
    cpath, mpath = _kz2_identity(tmp_path, capsys)
    monkeypatch.setattr(cli, "inner_via_bicomodule",
                        lambda m, budget, seed: IsoSearchResult(NOT_ISOMORPHIC))
    code, out, machine = run(capsys, "inner", cpath, mpath, "--cross-check")
    assert code == 1
    assert machine["status"] == "inner" and machine["cross_check"] == NOT_ISOMORPHIC
    assert machine["oracle_agreement"] is False
    assert "ORACLE DISAGREEMENT" in out.splitlines()


def test_graded_ker_oracle_disagreement_fails(tmp_path, capsys, monkeypatch):
    gpath, mpath = str(tmp_path / "graded.json"), str(tmp_path / "id.json")
    run(capsys, "build", "graded", "--group", "2", "--field", "F3", "-o", gpath)
    doc_io.save(mpath, doc_io.document("morphism", F3, {
        "phi": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        "rho": [[1, 0], [0, 1]],
    }))
    monkeypatch.setattr(cli, "is_inner", lambda m, budget, seed: InnerTestResult(m, NOT_INNER))
    code, out, machine = run(capsys, "graded-ker", gpath, mpath, "--cross-check")
    assert code == 1
    assert machine["status"] == "inner" and machine["cross_check"] == NOT_INNER
    assert machine["oracle_agreement"] is False
    assert "ORACLE DISAGREEMENT" in out.splitlines()


def _help(capsys, command):
    code = main([command, "--help"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_help_and_options(capsys, command):
    """Every subcommand has --help; the search options and --cross-check
    appear exactly on the commands that take them."""
    code, out = _help(capsys, command)
    assert code == 0 and out.startswith(f"usage: corings {command}")
    assert ("--budget" in out and "--seed" in out) == (command in SEARCH_COMMANDS)
    assert ("--cross-check" in out) == (command in CROSS_CHECK_COMMANDS)


def test_exactseq_rejects_cross_check(tmp_path, capsys):
    cpath, _ = _kz2_identity(tmp_path, capsys)
    assert main(["exactseq", cpath, "--enumerate", "--cross-check"]) == 3
    assert "unrecognized arguments: --cross-check" in capsys.readouterr().err
