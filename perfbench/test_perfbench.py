"""The benchmark's own tests: span arithmetic, the scorer, the seed contract,
the referee and the tracer's install/uninstall.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json

import pytest

import run

run.bootstrap()

import corings  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, SpanTable, layer_metrics, op_coverage, self_times  # noqa: E402


def span(name, start, end, parent=-1, op=0, attrs=None):
    return Span(name, start, end, parent, op, attrs or {})


# -- span arithmetic ------------------------------------------------------------

SYNTHETIC = SpanTable.of([
    span("bench.op", 0.0, 10.0),                      # 0
    span("coring.check", 1.0, 7.0, parent=0),         # 1
    span("fields.normalize", 2.0, 3.0, parent=1),     # 2
    span("fields.elim.fp", 3.5, 6.5, parent=1,        # 3
         attrs={"cells": 12}),
    span("fields.normalize", 4.0, 5.0, parent=3),     # 4
    span("bench.refcheck", 8.0, 9.5, parent=0),       # 5
])


def test_self_time_subtracts_direct_children_only():
    assert self_times(SYNTHETIC).tolist() == [10.0 - 6.0 - 1.5, 6.0 - 1.0 - 3.0, 1.0, 2.0, 1.0, 1.5]


def test_layer_metrics_aggregate_self_time_and_counters():
    m = layer_metrics(SYNTHETIC)
    assert m["fields.normalize.calls"] == 2
    assert m["fields.normalize.self_s"] == 2.0
    assert m["fields.elim.fp.self_s"] == 2.0
    assert m["fields.elim.calls"] == 1 and m["fields.elim.cells"] == 12
    assert m["fields.self_s"] == 4.0 and m["fields.share"] == 0.4
    assert m["coring.check.self_s"] == 2.0
    assert m["bench.refcheck.self_s"] == 1.5
    assert m["bench.op.self_s"] == 2.5
    # the op's direct children cover 6 + 1.5 of its 10 seconds
    assert op_coverage(SYNTHETIC).tolist() == [0.75]
    assert m["trace.coverage_min"] == 0.75


def test_cli_self_time_counts_as_uncovered():
    spans = SpanTable.of([
        span("bench.op", 0, 10, op=0),
        span("cli.main", 0, 8, parent=0, op=0),
        span("coring.check", 1, 7, parent=1, op=0),
        span("bench.refcheck", 8, 9.5, parent=0, op=0),
        span("bench.op", 10, 14, op=1),
        span("cli.main", 10, 14, parent=4, op=1),
    ])
    # op 0: own 0.5 s and cli 2 s of 10 s uncovered; op 1: all cli
    assert op_coverage(spans).tolist() == [0.75, 0.0]
    # over all ops: 7.5 of 14 seconds covered
    assert layer_metrics(spans)["trace.coverage"] == pytest.approx(7.5 / 14)


def test_unit_search_points_and_enumeration_counters():
    spans = SpanTable.of([
        span("bench.op", 0, 10),
        span("picard.enumerate", 1, 9, parent=0, attrs={"automorphisms": 1}),
        span("fields.linalg.is_invertible", 2, 3, parent=1),
        span("fields.linalg.is_invertible", 3, 4, parent=1),
        span("unitsearch.search", 5, 8, parent=1, attrs={"status": "witness"}),
        span("fields.linalg.is_invertible", 6, 7, parent=4),
    ])
    m = layer_metrics(spans)
    assert m["picard.candidates"] == 2 and m["picard.automorphisms"] == 1
    assert m["picard.accept_ratio"] == 0.5
    assert m["unitsearch.points"] == 1 and m["unitsearch.witness"] == 1
    assert m["unitsearch.points_per_s"] == 1 / 3


# -- the scorer -------------------------------------------------------------------

EXPECT = ref.exact(0, aut=2, inn=1)


def line(**fields):
    return json.dumps(fields, sort_keys=True)


def test_scorer_accepts_the_reference_answer():
    s = ref.Scorer()
    assert s.score("op", 0, line(aut=2, inn=1, extra=True), EXPECT) == ref.OK


def test_scorer_flags_a_wrong_verdict():
    s = ref.Scorer()
    assert s.score("op", 0, line(aut=0, inn=0), EXPECT) == ref.FAILED
    assert "aut" in s.failures[0][1]


def test_scorer_flags_a_wrong_exit_code():
    s = ref.Scorer()
    assert s.score("op", 1, line(aut=2, inn=1), EXPECT) == ref.FAILED
    assert "exit code 1" in s.failures[0][1]


def test_scorer_flags_a_machine_line_that_changes_between_runs():
    s = ref.Scorer()
    assert s.score("op", 0, line(aut=2, inn=1, witness=[1, 0]), EXPECT) == ref.OK
    assert s.score("op", 0, line(aut=2, inn=1, witness=[1, 0]), EXPECT) == ref.OK
    assert s.score("op", 0, line(aut=2, inn=1, witness=[0, 1]), EXPECT) == ref.FAILED
    assert s.counts == {ref.OK: 2, ref.UNDECIDED: 0, ref.FAILED: 1}


def test_scorer_counts_an_accepted_exit_2_as_undecided():
    expect = ref.EXACTSEQ["grouplike(4)/F5 budget 20000"]
    s = ref.Scorer()
    assert s.score("a", 2, line(complete=False), expect) == ref.UNDECIDED
    assert s.score("b", 0, line(aut=0, inn=0, out=None, complete=False), expect) == ref.FAILED


# -- the seed contract --------------------------------------------------------------

def cli_argvs(workload):
    """The argv of every CLI op, captured without running it."""
    seen = []

    def timed(stage, fn, argv):
        seen.append(list(argv))
        return 0, None

    for op in workload.ops:
        op.call(timed)
    return seen


@pytest.mark.parametrize("name", ["graded-f3-cli", "rational-cli", "exactseq-oracles"])
def test_seed_changes_only_the_search_seed_of_cli_ops(name, tmp_path):
    a = workloads.WORKLOADS[name](1, str(tmp_path))
    b = workloads.WORKLOADS[name](2, str(tmp_path))
    assert [op.key for op in a.ops] == [op.key for op in b.ops]
    argv_a, argv_b = cli_argvs(a), cli_argvs(b)
    for x, y in zip(argv_a, argv_b):
        if "--seed" in x:
            i = x.index("--seed")
            assert x[:i] == y[:i] and x[i + 2:] == y[i + 2:]
            assert x[0] in ("inner", "exactseq", "graded-ker", "dk-ker")
        else:
            assert x == y
    searches = [x for x in argv_a if "--seed" in x]
    assert bool(searches) == (name != "graded-f3-cli")     # that pipeline never searches
    assert all(x[x.index("--seed") + 1] != y[y.index("--seed") + 1]
                            for x, y in zip(searches, [y for y in argv_b if "--seed" in y]))


def test_the_runner_knows_every_workload():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_seed_changes_only_the_sweep_sample():
    a, b = workloads.sweep_sample(1), workloads.sweep_sample(2)
    assert a == workloads.sweep_sample(1)
    assert len(a) == len(b)
    stride = workloads.ANCHOR_EVERY + 1
    assert a[::stride] == b[::stride]          # the anchors sit at the same places
    sample_a = [x for i, x in enumerate(a) if i % stride]
    sample_b = [x for i, x in enumerate(b) if i % stride]
    assert len(set(sample_a)) == len(sample_a) == workloads.SWEEP_SAMPLE
    assert sample_a != sample_b


# -- the referee ------------------------------------------------------------------------

def test_referee_agrees_with_the_library_on_sampled_psi(tmp_path):
    wl = workloads.entwining_sweep(3, str(tmp_path))
    verdicts = set()
    for op in wl.ops[:160]:
        code, machine = op.call(lambda stage, fn, *args: fn(*args))
        assert op.expect().mismatch(code, json.loads(machine)) is None, op.key
        verdicts.add(json.loads(machine)["entwining"])
    assert verdicts == {True, False}


# -- the tracer -------------------------------------------------------------------------

def test_tracer_catches_internal_calls_and_uninstalls(tmp_path):
    original = corings.coring.check_coring
    C = corings.grouplike_coalgebra(2, corings.GF(2))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert corings.check_coring is not original
        assert corings.families.check_coring is corings.check_coring
        with tracer.op(0):
            assert corings.check_coring(C).ok
    finally:
        tracer.uninstall()
    assert corings.check_coring is original and corings.coring.check_coring is original
    assert corings.fields.Matrix.__matmul__.__name__ == "__matmul__"
    assert not hasattr(corings.fields.Matrix.__matmul__, "__wrapped__")
    names = set(tracer.table().names)
    assert {"bench.op", "coring.check", "fields.arith.matmul", "tensor.chain"} <= names
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == tracer.size and lines[0]["name"] == "bench.op"
    assert any("attrs" in line for line in lines if line["name"] == "tensor.chain")


# -- calibration ------------------------------------------------------------------------

def test_a_calibrated_run_is_scaled_by_its_median_kernel_time(monkeypatch):
    import calibration

    samples = iter([1.0, 9.0, 3.0, 2.0])
    monkeypatch.setattr(calibration, "sample", lambda: next(samples))
    clock = iter(range(100))
    monkeypatch.setattr(run.time, "perf_counter", lambda: float(next(clock)))
    ops = [workloads.Op(f"op{i}", lambda timed: (0, None), lambda: ref.exact(0))
           for i in range(3)]
    wl = workloads.Workload("fake", ops, whole_rounds=False, tail_pct=50, calibrated=True)
    records = run.run_ops(wl, 0, ref.Scorer(), limit=3)
    # one sample before each op (the clock moves 1 s per reading) and one after
    # the last; their median is 2.5
    assert [r.scale for r in records] == [calibration.REFERENCE_S / 2.5] * 3


def test_uncalibrated_workloads_keep_raw_times():
    ops = [workloads.Op("op", lambda timed: (0, None), lambda: ref.exact(0))]
    wl = workloads.Workload("fake", ops, whole_rounds=True, tail_pct=50, calibrated=False)
    records = run.run_ops(wl, 0, ref.Scorer(), limit=3)
    assert [r.scale for r in records] == [1.0, 1.0, 1.0]


def test_a_known_defect_is_reported_but_not_scored():
    wrong = workloads.Op("defect", lambda timed: (0, line(aut=0, inn=0)), lambda: EXPECT)
    right = workloads.Op("fixed", lambda timed: (0, line(aut=2, inn=1)), lambda: EXPECT)
    wl = workloads.Workload("fake", [], whole_rounds=True, tail_pct=50, calibrated=False,
                            known_defects=[wrong, right])
    still, fixed = run.known_defects(wl)
    assert still.startswith("KNOWN DEFECT defect (run once, not scored): exit 0 with MACHINE")
    assert fixed.startswith("KNOWN DEFECT FIXED fixed")


def test_exactseq_oracles_scores_every_op_but_the_known_defect(tmp_path):
    wl = workloads.exactseq_oracles(0, str(tmp_path))
    keys = [op.key for op in wl.ops]
    assert [op.key for op in wl.known_defects] == [f"exactseq {workloads.KNOWN_DEFECT}"]
    assert f"exactseq {workloads.KNOWN_DEFECT}" not in keys
    assert f"build {workloads.KNOWN_DEFECT}" in keys
