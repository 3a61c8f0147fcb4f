"""Fuzz of the document loaders and the command line: one mutated node in a
small valid document must never let an exception escape ``main``.

Each case takes a document (the corings grouplike/F3, grouplike/Q and
matrix/F2, the graded Z2/F3 data, the right dual of grouplike/F3 as an
algebra, the entwining of graded Z2/F3, or its Doi-Koppinen triple), deletes
one key or list item, overwrites one node with a hostile value, or flips one
0/1 entry (a well-formed document of a broken structure), and runs
``validate``, ``cointegral`` and ``dual`` on it (and ``exactseq`` at a small
budget on the coring documents).  Every run must end in one of the
contract's exit codes: 0 pass, 1 fail, 2 undecided, 3 parse error."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from corings import GF, dk_from_graded
from corings import io as doc_io
from corings.cli import main

from conftest import kz2_graded


def _dk_document(path):
    dk = dk_from_graded(kz2_graded(GF(3)))
    doc_io.save(str(path), doc_io.document("dk", GF(3), doc_io.dk_to_payload(dk)))


# each base document: the command line that writes it to the path appended
# after "-o" (the path of an earlier base in braces), or a function writing it
BASES = {
    "grouplike/F3": ["build", "grouplike", "-n", "2", "--field", "F3"],
    "grouplike/Q": ["build", "grouplike", "-n", "2", "--field", "Q"],
    "matrix/F2": ["build", "matrix", "-n", "2", "--field", "F2"],
    "graded Z2/F3": ["build", "graded", "--group", "2", "--field", "F3"],
    "algebra C*/F3": ["dual", "{grouplike/F3}", "--side", "right"],
    "entwining Z2/F3": ["build", "entwining", "--group", "2", "--field", "F3"],
    "dk Z2/F3": _dk_document,
}
CORINGS = {"grouplike/F3", "grouplike/Q", "matrix/F2"}
HOSTILE = (None, True, -1, 10**20, "1/0", [], [[]], {}, 1.5)
FLIP = {0: 1, 1: 0, "0": "1", "1": "0"}
CONTRACT = {0, 1, 2, 3}


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths, docs = {}, {}
    for n, (name, make) in enumerate(BASES.items()):
        path = paths[name] = root / f"base{n}.json"
        if callable(make):
            make(path)
        else:
            argv = [str(paths[a[1:-1]]) if a.startswith("{") else a for a in make]
            assert _quiet_main([*argv, "-o", str(path)]) == 0
        docs[name] = json.loads(path.read_text())
    return root, docs


def _nodes(node, path=()):
    """Every path into a JSON tree, the root first."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


@st.composite
def mutations(draw, docs):
    name = draw(st.sampled_from(sorted(docs)))
    doc = copy.deepcopy(docs[name])
    path = draw(st.sampled_from(list(_nodes(doc))))
    if not path:
        return name, path, "set", draw(st.sampled_from(HOSTILE))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    leaf = parent[path[-1]]
    flippable = type(leaf) in (int, str) and leaf in FLIP
    action = draw(st.sampled_from(("delete", "set") + (("flip",) if flippable else ())))
    if action == "delete":
        del parent[path[-1]]
    elif action == "flip":
        parent[path[-1]] = FLIP[leaf]
    else:
        parent[path[-1]] = draw(st.sampled_from(HOSTILE))
    return name, path, action, doc


def test_fuzzed_documents_keep_the_exit_code_contract(documents):
    root, docs = documents
    target = root / "mutated.json"

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(case=mutations(docs))
    def check(case):
        name, path, action, doc = case
        target.write_text(json.dumps(doc))
        commands = [["validate"], ["cointegral"], ["dual", "--side", "right"]]
        if name in CORINGS:
            commands.append(["exactseq", "--budget", "50"])
        for command in commands:
            argv = [command[0], str(target), *command[1:]]
            code = _quiet_main(argv)
            assert code in CONTRACT, (name, path, action, argv, code)

    check()
