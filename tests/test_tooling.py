"""The test configuration itself, where a failing test is reported, not
fatal, and the README's quick start, which must run as written."""

import shlex
import shutil
import subprocess
import sys
from pathlib import Path

from helpers import CORPUS_PROPARA
from proctrack.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_leaves_the_rest_running(tmp_path):
    """Under the repository's warning filters, a falsified hypothesis test
    is one failure and the next test still runs; a warning raised while
    hypothesis reports the example must not become an INTERNALERROR."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout.splitlines()[-1]
    assert "INTERNALERROR" not in run.stdout + run.stderr


def test_readme_quick_start_runs_as_written(tmp_path, monkeypatch):
    """Each command of the README's quick start exits 0 when run in a
    directory that holds the fixture corpus as the corpus.jsonl it reads."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    assert lines and all(line.startswith("proctrack ") for line in lines), lines
    shutil.copy(CORPUS_PROPARA, tmp_path / "corpus.jsonl")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == EXIT_OK, line
    assert sorted(path.name for path in (tmp_path / "run").iterdir()) == [
        "predictions.jsonl", "report.json", "report.txt"]
