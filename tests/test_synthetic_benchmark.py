"""The synthetic end-to-end benchmark script."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_synthetic_benchmark.py"), *args],
        env=env, capture_output=True, text=True, timeout=300)


def test_tuned_run_exits_zero_and_writes_its_report(tmp_path):
    run = _run("--train-procedures", "20", "--eval-procedures", "3", "--tune",
               "--out-dir", str(tmp_path))
    assert run.returncode == 0, run.stderr
    # The final run decodes with the tuned weights.
    config = json.loads((tmp_path / "report.json").read_text())["config"]
    assert (f"tuned weights: tau_exp={config['tau_exp']} tau_imp={config['tau_imp']} "
            in run.stdout)
    for name in ("train.jsonl", "eval.jsonl", "model.json", "emissions.jsonl",
                 "predictions.jsonl", "report.txt"):
        assert (tmp_path / name).stat().st_size > 0


def test_negative_seed_exits_two(tmp_path):
    run = _run("--seed", "-1", "--out-dir", str(tmp_path))
    assert run.returncode == 2, run.stderr
    assert "error: seed must be >= 0, got -1" in run.stderr
    assert list(tmp_path.iterdir()) == []
