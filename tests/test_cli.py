"""The command-line surface: round-trips, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from corings import GF
from corings.cli import main
from corings import io as doc_io

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
