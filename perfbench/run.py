#!/usr/bin/env python3
"""Benchmark of the proctrack CLI: `pipeline` and `tune` on seeded synthetic workloads.

Run from the repository root:

    python3 perfbench/run.py --workload recipes-pipeline --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

The inputs of a workload are generated from --seed before any timing
starts (see workloads.py). Then:

* --trace 0 runs the real CLI (`--jobs 1`) in a fresh child process, one at
  a time, for --seconds, and reports the end-to-end metrics. setup_s times a
  fresh process that imports proctrack and loads the corpus, model and
  emissions; these probes are spread evenly over the window, between CLI
  runs.
* --trace 1 alternates untraced CLI runs with traced runs of trace.py,
  which runs the same CLI command with the functions it calls wrapped in
  timers and counters. It reports the per-layer metrics.
* --workload all runs both modes on every workload.

Every child run is checked: it exits 0, its predictions load through
load_predictions with zero violations, and its output files are byte for
byte the same as those of every other run of the workload on the same
inputs and source tree, traced runs included. The exact counters of the
traced runs must repeat across runs. A run that fails a check counts in
`failed` and stays in the timing sample.

Timings are medians over the samples of a run; the sample count is printed
with each. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; metric names and units come from
BENCHMARK.json. The full record of a run (samples, run stamp, workload
shape, counters) is written to .perfbench/results/. Its run stamp holds a
fixed CPU-loop time taken at the start and at the end of the run, so a run
on a host that slowed down can be told from a change in the program.

Seeds 1 to 400 and 7919 were used while the benchmark was written. Seed
104729 was never run then, so a later claim can be re-checked on it.
`workloads.py --seed N` prints the shape of every workload at a seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 11
MIN_SAMPLES = 3
MIN_TRACED = 2
CHILD_TIMEOUT_S = 60.0
# Every run must end well inside 180 s, whatever the program does.
RUN_DEADLINE_S = 150.0

SETUP_CODE = """\
import sys
import proctrack
vocabulary = proctrack.get_vocabulary(sys.argv[1])
procedures, _ = proctrack.load_corpus(sys.argv[2], vocabulary)
proctrack.load_model(sys.argv[3])
proctrack.load_emissions(sys.argv[4], procedures, vocabulary)
"""


class Child:
    """One finished child process: wall time, peak RSS and how it ended."""

    def __init__(self, argv, log_path: Path, timeout: float):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                    stdout=subprocess.DEVNULL, stderr=log)
            self.timed_out = False

            def kill():
                self.timed_out = True
                proc.kill()

            watchdog = threading.Timer(timeout, kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = proc.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024
        self.log_path = log_path

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.timed_out


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "proctrack").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def cpu_probe_s() -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs now."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(400_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def stamp() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "cpu_probe_s_start": cpu_probe_s(),
    }


def grid_cells() -> int:
    from proctrack import default_grid

    return len(default_grid()) ** 2


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
        self.scratch = WORK / "tmp" / tag
        self.result_path = WORK / "results" / f"{tag}.json"
        self.attempted = 0
        self.failures = []
        self.checked = {}          # output digests -> error message or None
        self.reference = None      # output digests every run must match
        self.samples = []          # untraced CLI runs
        self.setup = []            # setup probes
        self.traced_runs = []      # every traced run
        self.traced = []           # (Child, trace result) of those that passed
        self.shape = None
        self.digest_path = None    # digests of earlier runs on these inputs and source
        self.macro_f1 = None       # from the CLI's report.json or tune --out
        self.inputs = self.scratch / "inputs"

    # -- children ---------------------------------------------------------

    def spawn(self, argv, label: str) -> Child:
        left = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        timeout = max(1.0, min(CHILD_TIMEOUT_S, left))
        self.attempted += 1
        child = Child(argv, self.scratch / f"{label}-{self.attempted}.log", timeout)
        if not child.ok:
            why = "timed out" if child.timed_out else f"exit {child.returncode}"
            tail = child.log_path.read_text(errors="replace")[-400:]
            self.fail(f"{label}: {why}: {tail.strip()}")
        return child

    def fail(self, message: str):
        self.failures.append(message)

    def check_outputs(self, out_dir: Path, label: str) -> bool:
        """Same bytes as every other run; new contents are validated once."""
        try:
            digests = {name: sha256(out_dir / name) for name in self.workload.outputs}
        except OSError as exc:
            self.fail(f"{label}: missing output: {exc}")
            return False
        key = tuple(sorted(digests.items()))
        if key not in self.checked:
            from proctrack import ToolkitError

            try:
                self.checked[key] = self.validate(out_dir)
            except (OSError, ValueError, KeyError, ToolkitError) as exc:
                self.checked[key] = f"unreadable outputs: {exc!r}"
        error = self.checked[key]
        if error is None and self.reference is None:
            self.reference = digests
        elif error is None and digests != self.reference:
            error = f"outputs differ from the first valid run: {digests} vs {self.reference}"
        if error:
            self.fail(f"{label}: {error}")
        return error is None

    def validate(self, out_dir: Path) -> str | None:
        from proctrack import get_vocabulary, load_corpus, load_predictions
        from workloads import CORPUS, TUNE_OUTPUT

        if self.workload.command == "tune":
            payload = json.loads((out_dir / TUNE_OUTPUT).read_text(encoding="utf-8"))
            table = payload["table"]
            if len(table) != grid_cells():
                return f"tune table has {len(table)} cells, expected {grid_cells()}"
            if payload["best"]["macro_f1"] != max(row["macro_f1"] for row in table):
                return "tune best cell is not the table's maximum"
            return None
        vocabulary = get_vocabulary(self.workload.vocab)
        procedures, _ = load_corpus(self.inputs / CORPUS, vocabulary)
        grids, violations = load_predictions(out_dir / "predictions.jsonl",
                                             procedures, vocabulary)
        if violations:
            return f"{len(violations)} grid violations in predictions.jsonl"
        tracks = sum(len(grid.entries) for grid in grids.values())
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        coverage = report["coverage"]
        if tracks != self.shape["entities"] or coverage != {
                "decoded_entities": self.shape["entities"], "missing_emissions": 0}:
            return f"predictions cover {tracks} tracks, report says {coverage}"
        return None

    # -- phases -----------------------------------------------------------

    def prepare(self):
        from workloads import generate

        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)
        self.shape = generate(self.workload, self.seed, self.inputs)
        self.persisted_digests()

    def persisted_digests(self):
        """Outputs must also match earlier runs on the same inputs and source."""
        import numpy
        from workloads import CORPUS, EMISSIONS, MODEL

        key = hashlib.sha256()
        for part in (src_digest(), numpy.__version__,
                     *(sha256(self.inputs / name) for name in (CORPUS, MODEL, EMISSIONS))):
            key.update(part.encode() + b"\0")
        path = WORK / "digests" / f"{self.workload.name}-seed{self.seed}-{key.hexdigest()[:16]}.json"
        if path.exists():
            self.reference = json.loads(path.read_text(encoding="utf-8"))
        self.digest_path = path

    def time_setup(self):
        from workloads import CORPUS, EMISSIONS, MODEL

        inputs = [str(self.inputs / name) for name in (CORPUS, MODEL, EMISSIONS)]
        argv = [sys.executable, "-c", SETUP_CODE, self.workload.vocab, *inputs]
        self.setup.append(self.spawn(argv, "setup"))

    def cli_sample(self) -> Child:
        out_dir = self.scratch / "cli-out"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        argv = [sys.executable, "-m", "proctrack.cli",
                *self.workload.cli_args(self.inputs, out_dir)]
        child = self.spawn(argv, "cli")
        # Valid runs all wrote the same bytes, so one F1 stands for all.
        if child.ok and self.check_outputs(out_dir, "cli") and self.macro_f1 is None:
            if self.workload.command == "tune":
                payload = json.loads((out_dir / self.workload.outputs[0]).read_text(
                    encoding="utf-8"))
                self.macro_f1 = payload["best"]["macro_f1"]
            else:
                report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
                self.macro_f1 = report["document_level"]["macro"]["f1"]
        self.samples.append(child)
        return child

    def traced_sample(self):
        out_dir = self.scratch / "traced-out"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        result_path = self.scratch / "trace.json"
        result_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "trace.py"), "--result", str(result_path),
                "--", *self.workload.cli_args(self.inputs, out_dir)]
        child = self.spawn(argv, "traced")
        self.traced_runs.append(child)
        if not (child.ok and self.check_outputs(out_dir, "traced")):
            return
        try:
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            self.fail(f"traced: no readable result: {exc!r}")
            return
        if self.traced and result["counters"] != self.traced[0][1]["counters"]:
            self.fail(f"traced: counters changed between runs: {result['counters']} "
                      f"vs {self.traced[0][1]['counters']}")
            return
        self.traced.append((child, result))

    def window_open(self, durations, minimum: int, end: float) -> bool:
        now = time.perf_counter()
        if now - self.started > RUN_DEADLINE_S - CHILD_TIMEOUT_S:
            return False
        if len(durations) < minimum:
            return True
        return now + statistics.median(durations) <= end

    def execute(self):
        self.prepare()
        if self.trace:
            # Alternate untraced and traced runs, so both see the same host.
            end = time.perf_counter() + self.seconds
            while True:
                plain = [c.wall_s for c in self.samples]
                traced = [c.wall_s for c in self.traced_runs]
                if len(plain) <= len(traced):
                    if not self.window_open(plain, MIN_TRACED, end):
                        break
                    self.cli_sample()
                elif self.window_open(traced, MIN_TRACED, end):
                    self.traced_sample()
                else:
                    break
        else:
            # Set-up probes are spread evenly over the window: the host's
            # speed drifts in phases of several seconds.
            start = time.perf_counter()
            end = start + self.seconds
            while self.window_open([c.wall_s for c in self.samples], MIN_SAMPLES, end):
                due = 1 + int(SETUP_REPEATS * (time.perf_counter() - start) / self.seconds)
                if len(self.setup) < min(due, SETUP_REPEATS):
                    self.time_setup()
                self.cli_sample()
            while len(self.setup) < SETUP_REPEATS:
                self.time_setup()
        if not self.failures and self.reference is not None:
            self.digest_path.parent.mkdir(parents=True, exist_ok=True)
            self.digest_path.write_text(json.dumps(self.reference, indent=2) + "\n",
                                        encoding="utf-8")

    # -- metrics ----------------------------------------------------------

    def end_to_end(self) -> dict:
        walls = [c.wall_s for c in self.samples]
        wall = statistics.median(walls)
        decodes = self.shape["entities"]
        if self.workload.command == "tune":
            decodes *= grid_cells()
        q1, q3 = quartiles(walls)
        setup = [c.wall_s for c in self.setup]
        n, ns = len(walls), len(setup)
        return {
            "wall_s": (wall, "s", f"median of {n} runs, q1 {q1:.4f} q3 {q3:.4f}"),
            "setup_s": (statistics.median(setup), "s", f"median of {ns} set-ups"),
            "entities_per_s": (decodes / wall, "1/s",
                               f"{decodes} entity decodes / median wall_s"),
            "peak_rss_mb": (statistics.median(c.peak_rss_mb for c in self.samples), "MB",
                            f"median of {n} runs"),
            "macro_f1": self.reported_f1(),
        }

    def reported_f1(self):
        if self.macro_f1 is None:
            return 0.0, "ratio", "no valid run"
        return self.macro_f1, "ratio", "document-level macro F1, the same bytes in every run"

    def per_layer(self, spec) -> dict:
        from workloads import EMISSIONS

        if not self.traced:
            return {}
        results = [r for _, r in self.traced]
        n = len(results)

        def span(name):
            return statistics.median(r["spans"].get(name, {}).get("seconds", 0.0)
                                     for r in results)

        metrics = {}
        for name in ("corpus.load_corpus", "transitions.load_model",
                     "decoder.load_emissions", "decoder.detect_mentions",
                     "decoder.weight_emissions", "decoder.viterbi",
                     "decoder.argmax_states", "consistency.resolve",
                     "evaluator.document", "evaluator.sentence", "evaluator.split",
                     "evaluator.recipes", "pipeline.run_pipeline",
                     "pipeline.write_outputs", "tuner.tune"):
            metrics[f"{name}_s"] = (span(name), "s", f"median of {n} traced runs")
        first = results[0]
        if "tuner.cells" in first["counters"]:
            metrics["tuner.cell_s"] = (
                statistics.median(r["spans"]["tuner.tune"]["seconds"]
                                  / r["counters"]["tuner.cells"] for r in results),
                "s", "tuner.tune_s / tuner.cells, median of traced runs")
        for name, value in first["counters"].items():
            metrics[name] = (value, "count", f"exact, repeated in {n} traced runs")
        for entry in spec:
            if entry["name"].startswith("consistency.repairs."):
                metrics.setdefault(entry["name"], (0, "count", "rule never fired"))
            elif entry["name"].startswith("tuner."):
                metrics.setdefault(entry["name"], (0, "count", "no tune on this workload"))
        metrics["evaluator.macro_f1"] = self.reported_f1()
        metrics["decoder.emission_mb"] = (
            self.shape["file_bytes"][EMISSIONS] / 1e6, "MB", "emissions file size")
        traced = statistics.median(c.wall_s for c, _ in self.traced)
        plain = statistics.median(c.wall_s for c in self.samples)
        metrics["trace.overhead_frac"] = (
            traced / plain - 1, "ratio",
            f"median traced run {traced:.4f} s vs median untraced {plain:.4f} s")
        return metrics


def format_metrics(title: str, metrics: dict, spec: list) -> list[str]:
    """One line per metric; those BENCHMARK.json does not bound come last."""
    lines = [title]
    units = {entry["name"]: entry["unit"] for entry in spec}
    for name in list(units) + [name for name in metrics if name not in units]:
        value, unit, note = metrics[name]
        if name not in units:
            note = f"{note} (reported, not bounded)"
        lines.append(f"  {name:<40} {value:>14.6g} {units.get(name, unit):<6} {note}")
    return lines


def run_workload(workload, seed, seconds, trace, spec) -> tuple[dict, dict]:
    run = Run(workload, seed, seconds, trace)
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "stamp": stamp()}
    try:
        run.execute()
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        computed = run.per_layer(wanted) if trace else run.end_to_end()
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        run.fail(f"metrics not measured: {missing}")
    computed.update({m["name"]: (0.0, m["unit"], "not measured") for m in wanted
                     if m["name"] in missing})
    record["stamp"]["loadavg_end"] = os.getloadavg()
    record["stamp"]["cpu_probe_s_end"] = cpu_probe_s()
    failed = min(len(run.failures), run.attempted)
    if not trace:
        computed["failed_frac"] = (failed / max(run.attempted, 1), "ratio",
                                   f"{failed} of {run.attempted} child runs failed")
    summary = {
        "correct": not run.failures and run.attempted > 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": computed[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    record.update(
        shape=run.shape,
        failures=run.failures,
        samples=[{"wall_s": c.wall_s, "peak_rss_mb": c.peak_rss_mb, "exit": c.returncode}
                 for c in run.samples],
        setup_s=[c.wall_s for c in run.setup],
        traced=[{"wall_s": c.wall_s, **r} for c, r in run.traced],
        notes={name: note for name, (_, _, note) in computed.items()},
        summary=summary,
    )
    run.result_path.parent.mkdir(parents=True, exist_ok=True)
    run.result_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    mode = "per-layer, traced" if trace else "end-to-end, untraced"
    lines = format_metrics(f"{workload.name} seed {seed} ({mode}): {run.attempted} child runs, "
                           f"{failed} failed", computed, wanted)
    for run_result in record["traced"][:1]:
        if run_result["unpatched"]:
            lines.append(f"  NOT TRACED (the program no longer has these names): "
                         f"{run_result['unpatched']}")
    for failure in run.failures:
        lines.append(f"  FAILED {failure}")
    print("\n".join(lines), flush=True)
    return summary, record


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "proctrack" / "__init__.py").is_file():
        print(f"error: no proctrack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import proctrack
    from workloads import WORKLOADS

    if Path(proctrack.__file__).resolve().parent != SRC / "proctrack":
        print(f"error: imported proctrack from {proctrack.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if sorted(WORKLOADS) != sorted(names):
        print("error: BENCHMARK.json and workloads.py name different workloads",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        summary, record = run_workload(WORKLOADS[args.workload], args.seed,
                                       args.seconds, bool(args.trace), spec)
        print("stamp " + json.dumps(record["stamp"]))
        print(json.dumps(summary))
        return 0

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (False, True):
            summary, record = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                           trace, spec)
            total["correct"] &= summary["correct"]
            total["attempted"] += summary["attempted"]
            total["failed"] += summary["failed"]
            for metric, value in summary["metrics"].items():
                total["metrics"][f"{name}.{metric}"] = value
    print("stamp " + json.dumps(record["stamp"]))
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
