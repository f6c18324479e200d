"""scripts/compare_outputs.py on the fixtures against the last commit. Only
what this checkout decides on its own is asserted: the script runs, lists
every help page and every command's outputs, and the checkout gives the
same file for each under another PYTHONHASHSEED. Whether a file differs
from the last commit's depends on what is committed, not on the code, so
the base-against-head lines are left to the report that CI writes."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("stats", "format-qa", "estimate-transitions", "synth", "decode", "resolve",
            "evaluate", "tune", "pipeline")


def _is_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                          "--show-toplevel", "HEAD"], capture_output=True, text=True)
    return top.returncode == 0 and Path(top.stdout.splitlines()[0]).resolve() == ROOT


@pytest.mark.skipif(not _is_checkout(), reason="needs git and a checkout of this repository")
def test_fixture_outputs_do_not_depend_on_the_hash_seed():
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "compare_outputs.py"),
                          "--base", "HEAD", "--fixtures"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode in (0, 1), run.stdout + run.stderr   # 2: a side could not run
    lines = run.stdout.splitlines()
    assert [line for line in lines
            if line.split()[1].startswith("hashseed-") and not line.startswith("same ")] == []
    names = {line.split()[1] for line in lines}
    for prefix in ("", "hashseed-12345/"):
        assert {f"{prefix}help/{page}/stdout.txt" for page in ("proctrack", *COMMANDS)} <= names
        for vocab in ("propara", "recipes"):
            assert {f"{prefix}fixtures/{vocab}/{command}/stdout.txt"
                    for command in COMMANDS} <= names
            assert f"{prefix}fixtures/{vocab}/pipeline/out/predictions.jsonl" in names
