"""The synthetic end-to-end benchmark script, and the error boundary that
both scripts exit through."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from proctrack.cli import build_parser
from proctrack.decoder import DecodeConfig

ROOT = Path(__file__).resolve().parent.parent


def _run(*args, script="run_synthetic_benchmark.py"):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=300)


def test_tuned_run_exits_zero_and_writes_its_report(tmp_path):
    run = _run("--train-procedures", "20", "--eval-procedures", "3", "--tune",
               "--out-dir", str(tmp_path))
    assert run.returncode == 0, run.stderr
    # The final run decodes with the tuned weights, which `tune` prints.
    config = json.loads((tmp_path / "report.json").read_text())["config"]
    assert (f"best tau_exp={config['tau_exp']} tau_imp={config['tau_imp']} "
            in run.stdout)
    best = json.loads((tmp_path / "tune.json").read_text())["best"]
    assert (best["tau_exp"], best["tau_imp"]) == (config["tau_exp"], config["tau_imp"])
    for name in ("train.jsonl", "eval.jsonl", "model.json", "emissions.jsonl",
                 "predictions.jsonl", "report.txt"):
        assert (tmp_path / name).stat().st_size > 0


def test_negative_seed_exits_two(tmp_path):
    out_dir = tmp_path / "fresh" / "run"
    run = _run("--seed", "-1", "--out-dir", str(out_dir))
    assert run.returncode == 2, run.stderr
    assert "error: seed must be >= 0, got -1" in run.stderr
    assert not out_dir.exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--train-procedures", "--eval-procedures"])
def test_a_procedure_count_below_one_names_its_flag(tmp_path, flag):
    out_dir = tmp_path / "fresh" / "run"
    run = _run(flag, "0", "--out-dir", str(out_dir))
    assert run.returncode == 2, run.stderr
    assert f"error: argument {flag}: must be >= 1, got 0" in run.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value, message", [
    ("--state-noise", "1.5", "error: state_noise must be in [0, 1), got 1.5"),
    ("--tau-exp", "0", "error: tau values must be finite and positive, got (0.0, 0.7)"),
])
def test_a_flag_checked_after_the_corpora_writes_nothing(tmp_path, flag, value, message):
    # The corpora are generated before these flags are used, and no file
    # (corpus, model or emissions) is written before every flag is checked.
    out_dir = tmp_path / "fresh" / "run"
    run = _run("--train-procedures", "5", "--eval-procedures", "2", flag, value,
               "--out-dir", str(out_dir))
    assert run.returncode == 2, run.stderr
    assert message in run.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("script", ["run_synthetic_benchmark.py", "convert_datasets.py"])
def test_an_out_dir_that_is_a_file_exits_four(tmp_path, script):
    (tmp_path / "grids.v1.train.json").write_text(json.dumps(
        {"para_id": "10", "sentence_texts": ["Rain falls."], "participants": ["water"],
         "states": [["sky", "ground"]]}) + "\n")
    out_file = tmp_path / "taken"
    out_file.write_text("a file\n")
    args = (["--data-dir", str(tmp_path), "--splits", "train"]
            if script == "convert_datasets.py"
            else ["--train-procedures", "5", "--eval-procedures", "2"])
    run = _run(*args, "--out-dir", str(out_file), script=script)
    assert run.returncode == 4, run.stderr
    assert "i/o error: " in run.stderr
    assert "Traceback" not in run.stderr
    assert out_file.read_text() == "a file\n"


def test_tau_flags_default_to_decode_config():
    # The CLI's `decode` and `pipeline` and this script take the weights'
    # defaults from DecodeConfig, which holds the only copy of them.
    spec = importlib.util.spec_from_file_location(
        "run_synthetic_benchmark", ROOT / "scripts" / "run_synthetic_benchmark.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    inputs = ["--corpus", "c", "--vocab", "propara", "--emissions", "e", "--model", "m",
              "--out", "o"]
    parsed = [build_parser().parse_args([command, *inputs]) for command in ("decode", "pipeline")]
    parsed.append(script.build_parser().parse_args(["--out-dir", "o"]))
    for args in parsed:
        assert DecodeConfig(args.tau_exp, args.tau_imp) == DecodeConfig()
