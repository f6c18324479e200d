"""The benchmark's tracer still finds and counts every layer it wraps.

perfbench/trace.py replaces module-level names in the package with timing
and counting wrappers; a refactor that stops calling one of them (or calls
a loader through a name bound at import), or that changes what the tuner
passes to `viterbi`, breaks the benchmark's per-layer numbers without
failing any other test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import CORPUS_PROPARA, EMISSIONS_PROPARA, MODEL_PROPARA
from proctrack.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
PIPELINE_OUTPUTS = ("predictions.jsonl", "report.json", "report.txt")


def _argv(command, out):
    argv = [command, "--corpus", str(CORPUS_PROPARA), "--vocab", "propara",
            "--emissions", str(EMISSIONS_PROPARA), "--model", str(MODEL_PROPARA),
            "--jobs", "1", "--out", str(out)]
    if command == "tune":
        argv[1:1] = ["--grid", "0.5:0.7:0.1"]
    return argv


def _outputs(command, out):
    if command == "tune":
        return {"tune.json": out.read_bytes()}
    return {name: (out / name).read_bytes() for name in PIPELINE_OUTPUTS}


@pytest.mark.parametrize("command", ["tune", "pipeline"])
def test_traced_run_counts_every_layer_and_writes_the_same_outputs(tmp_path, command):
    suffix = ".json" if command == "tune" else ""
    plain, traced = tmp_path / f"plain{suffix}", tmp_path / f"traced{suffix}"
    assert main(_argv(command, plain)) == EXIT_OK

    result_path = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace.py"), "--result", str(result_path),
         "--", *_argv(command, traced)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert result["exit"] == 0
    assert result["unpatched"] == []
    # The CLI reads each input once, through the names the tracer wraps; a
    # loader that imported them by name would zero these spans.
    once = ["corpus.load_corpus", "transitions.load_model", "decoder.load_emissions"]
    if command == "pipeline":
        once.append("pipeline.write_outputs")
    calls = {name: result["spans"].get(name, {}).get("calls") for name in once}
    assert calls == dict.fromkeys(once, 1)
    counters = result["counters"]
    assert counters["decoder.viterbi_calls"] > 0
    if command == "tune":
        assert counters["tuner.cells"] == 9
        assert counters["tuner.distinct_path_ratio"] > 0
    else:
        # Mention detection is counted only through the module-level name;
        # a refactor that bypasses it would zero decoder.explicit_step_share.
        report = json.loads((plain / "report.json").read_text(encoding="utf-8"))
        decoded = report["coverage"]["decoded_entities"]
        assert result["spans"]["decoder.detect_mentions"]["calls"] == decoded > 0
        assert counters["decoder.explicit_step_share"] > 0
    assert _outputs(command, traced) == _outputs(command, plain)
