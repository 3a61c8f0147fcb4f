"""Fuzz of the document loaders and the command line: one mutated node in a
small valid document must never let an exception escape ``main``.

Each case builds a document (grouplike/F3, grouplike/Q, matrix/F2 or graded
Z2/F3), deletes one key or list item, overwrites one node with a hostile
value, or flips one 0/1 entry (a well-formed document of a broken
structure), and runs ``validate``, ``cointegral`` and ``dual`` on it (and
``exactseq`` at a small budget on the coring documents).  Every run must end
in one of the contract's exit codes: 0 pass, 1 fail, 2 undecided, 3 parse
error."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from corings.cli import main

BASES = {
    "grouplike/F3": ["grouplike", "-n", "2", "--field", "F3"],
    "grouplike/Q": ["grouplike", "-n", "2", "--field", "Q"],
    "matrix/F2": ["matrix", "-n", "2", "--field", "F2"],
    "graded Z2/F3": ["graded", "--group", "2", "--field", "F3"],
}
HOSTILE = (None, True, -1, 10**20, "1/0", [], [[]], {}, 1.5)
FLIP = {0: 1, 1: 0, "0": "1", "1": "0"}
CONTRACT = {0, 1, 2, 3}


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    docs = {}
    for name, args in BASES.items():
        path = root / "base.json"
        assert _quiet_main(["build", *args, "-o", str(path)]) == 0
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
        if name != "graded Z2/F3":
            commands.append(["exactseq", "--budget", "50"])
        for command in commands:
            argv = [command[0], str(target), *command[1:]]
            code = _quiet_main(argv)
            assert code in CONTRACT, (name, path, action, argv, code)

    check()
