"""The demos, run unmodified end to end: exit 0, nothing on stderr, and the
pinned transcript on stdout.  For the CLI pipeline (demos/06_cli_pipeline.sh)
the temporary directory is normalised and the ``elapsed:`` lines are
dropped first; the Python demos 01-05 print no timings and are compared
byte for byte."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
GOLDEN = DATA / "demo06_stdout.txt"
PYTHON_DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def normalise(stdout: str, tmpdir: str) -> str:
    out = re.sub(re.escape(tmpdir) + r"/tmp\.\w+", "$WORKDIR", stdout)
    return "".join(line for line in out.splitlines(keepends=True)
                   if not line.startswith("elapsed:"))


def run_demo(tmp_path: pathlib.Path, src: pathlib.Path = ROOT / "src"):
    """Run the demo with a ``corings`` shim for ``python -m corings.cli`` on
    PATH; returns the finished process and the TMPDIR it used."""
    bindir, work = tmp_path / "bin", tmp_path / "work"
    bindir.mkdir()
    work.mkdir()
    shim = bindir / "corings"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m corings.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PATH=f"{bindir}{os.pathsep}{os.environ.get('PATH', '')}",
               PYTHONPATH=str(src), TMPDIR=str(work))
    proc = subprocess.run(["sh", str(ROOT / "demos" / "06_cli_pipeline.sh")],
                          capture_output=True, text=True, env=env, timeout=600)
    return proc, str(work)


def test_demo_pipeline_transcript(tmp_path):
    proc, work = run_demo(tmp_path)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert normalise(proc.stdout, work) == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("demo", PYTHON_DEMOS, ids=[d.stem for d in PYTHON_DEMOS])
def test_python_demo_transcript(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, timeout=600)
    assert proc.returncode == 0
    assert proc.stderr == ""
    golden = DATA / f"demo{demo.name[:2]}_stdout.txt"
    assert proc.stdout == golden.read_text(encoding="utf-8")
