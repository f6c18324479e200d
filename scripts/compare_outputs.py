#!/usr/bin/env python3
"""Compare this checkout's outputs with those of another commit, file by file.

    python3 scripts/compare_outputs.py --base REF [--fixtures]

REF's tree is extracted with `git archive REF | tar -x` into a temporary
directory, which writes nothing into .git and needs no network. The other
side is this checkout as it stands. Each side runs in its own Python
processes, with PYTHONPATH at that side's src/ (and perfbench/ to generate
inputs), under this interpreter and its numpy. The script itself imports
nothing from proctrack.

Compared, with one name per file:

* help/: `proctrack --help` and each command's `--help`, under COLUMNS=80;
* inputs/seedN/<workload>/: for seeds 1 and 104729 and each benchmark
  workload, the files that each side's `perfbench/workloads.generate`
  writes;
* seedN/<workload>/: each side's CLI on the base's inputs: the command
  that the base's `Workload.cli_args` builds for the benchmark, less its
  `--jobs` pair, which one side may lack (`workload/`), and the same
  command with `--per-procedure` for `pipeline` or
  `--grid 0.01:1.5:0.01` for `tune` (`per-procedure/`, `fine-grid/`);
* fixtures/<vocab>/<command>/: with --fixtures, in place of inputs/ and
  seedN/, every command on the fixture corpus, emissions and model of
  each vocabulary in tests/fixtures/;
* hashseed-12345/: the head side once more under PYTHONHASHSEED=12345,
  against its first run under PYTHONHASHSEED=0.

A command's stdout, ended by its exit code, and its stderr are files too.
Each line reads `same <name>`, or `differs <name> <sha256> <sha256>` with
the base's (or first run's) digest first and `missing` for a file that one
side lacks. Exit code: 0 when every file is the same, 1 on any difference,
2 when REF cannot be extracted or a side cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
SEEDS = (1, 104729)
HASH_SEEDS = ("0", "12345")
CHILD_TIMEOUT_S = 1800
# The run each workload command gets beside its own: (label, extra arguments).
EXTRA_RUNS = {"pipeline": ("per-procedure", ["--per-procedure"]),
              "tune": ("fine-grid", ["--grid", "0.01:1.5:0.01"])}

# Every child starts here: argv[1] is the side's src/, and the package must
# be the one under it, not an installed copy.
PRELUDE = """\
import json, sys
from pathlib import Path
from proctrack import cli
if Path(cli.__file__).resolve().parents[1] != Path(sys.argv[1]).resolve():
    raise SystemExit(f"proctrack imported from {cli.__file__}, not from {sys.argv[1]}")
"""

# argv[2] is the directory to write into, argv[3] a JSON list of [label,
# argv]. Each command runs through `cli.main` with <directory>/<label> as
# the working directory, so outputs named relatively land there and stdout
# names no side's directory. The help pages come first: the top level's
# usage line lists the commands.
RUN_CODE = """\
import contextlib, io, logging, os, re, traceback

def run(label, argv):
    where = Path(sys.argv[2], label)
    where.mkdir(parents=True, exist_ok=True)
    os.chdir(where)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:               # --help or a usage error
            code = exc.code
        except Exception:                       # a traceback breaks the CLI's contract
            code = "traceback"
            traceback.print_exc()
    logging.getLogger().handlers.clear()        # the next main() logs to its own stderr
    (where / "stdout.txt").write_text(f"{out.getvalue()}exit {code}\\n", encoding="utf-8")
    (where / "stderr.txt").write_text(err.getvalue(), encoding="utf-8")
    return out.getvalue()

usage = run("help/proctrack", ["--help"])
for command in re.search(r"{([^}]*)}", usage).group(1).split(","):
    run(f"help/{command}", [command, "--help"])
for label, argv in json.loads(sys.argv[3]):
    run(label, argv)
"""

# argv[2] is the directory to write into, argv[3] a JSON list of seeds.
# Prints the argv of each workload's command on the inputs, by run label.
# The outputs go to the run's working directory.
GENERATE_CODE = """\
import workloads

commands = {}
for seed in json.loads(sys.argv[3]):
    for name, workload in workloads.WORKLOADS.items():
        inputs = Path(sys.argv[2], f"seed{seed}", name)
        workloads.generate(workload, seed, inputs)
        argv = workload.cli_args(inputs, Path("."))
        if "--jobs" in argv:
            del argv[argv.index("--jobs"):argv.index("--jobs") + 2]
        commands[f"seed{seed}/{name}"] = argv
print(json.dumps(commands))
"""


def child(side: Path, code: str, directory: Path, payload, hash_seed=HASH_SEEDS[0]) -> str:
    """Run PRELUDE + `code` on `side`'s source; returns its stdout."""
    path = os.pathsep.join(str(side / name) for name in ("src", "perfbench"))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed, "COLUMNS": "80"}
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + code, str(side / "src"), str(directory),
         json.dumps(payload)],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode:
        raise RuntimeError(f"{side} exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout


def fixture_runs() -> list:
    """[label, argv] of every command on each vocabulary's fixtures. `resolve`
    and `evaluate` read what `decode` and `pipeline` wrote before them."""
    runs = []
    for vocab in ("propara", "recipes"):
        corpus = ["--corpus", str(FIXTURES / f"corpus_{vocab}.jsonl"), "--vocab", vocab]
        emissions = str(FIXTURES / f"emissions_{vocab}.jsonl")
        decode = ["--emissions", emissions, "--model", str(FIXTURES / f"model_{vocab}.json")]
        for command, argv in (
                ("stats", []),
                ("format-qa", ["--out", "qa.jsonl"]),
                ("estimate-transitions", ["--min-count", "2", "--out", "model.json"]),
                ("synth", ["--state-noise", "0.2", "--location-noise", "0.2",
                           "--bias-implicit", "0.1", "--seed", "7", "--out", "emissions.jsonl"]),
                ("decode", [*decode, "--relax", "--out", "decoded.jsonl"]),
                ("resolve", ["--decoded", "../decode/decoded.jsonl", "--emissions", emissions,
                             "--out", "resolved.jsonl"]),
                ("pipeline", [*decode, "--relax", "--per-procedure", "--out", "out"]),
                ("evaluate", ["--predictions", "../pipeline/out/predictions.jsonl",
                              "--per-procedure", "--out", "scores.json"]),
                ("tune", [*decode, "--out", "tune.json"])):
            runs.append([f"fixtures/{vocab}/{command}", [command, *corpus, *argv]])
    return runs


def digests(directory: Path) -> dict[str, str]:
    return {path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def report(first: Path, second: Path, prefix: str = "") -> list[str]:
    """One line per file under either directory."""
    a, b = digests(first), digests(second)
    lines = []
    for name in sorted(a.keys() | b.keys()):
        x, y = a.get(name, "missing"), b.get(name, "missing")
        lines.append(f"same {prefix}{name}" if x == y else f"differs {prefix}{name} {x} {y}")
    return lines


def compare(base: Path, work: Path, fixtures: bool) -> list[str]:
    lines = []
    if fixtures:
        runs = fixture_runs()
    else:
        commands = json.loads(child(base, GENERATE_CODE, work / "inputs" / "base", SEEDS))
        child(ROOT, GENERATE_CODE, work / "inputs" / "head", SEEDS)
        lines += report(work / "inputs" / "base", work / "inputs" / "head", "inputs/")
        runs = []
        for label, argv in commands.items():
            extra_label, extra = EXTRA_RUNS[argv[0]]
            runs += [[f"{label}/workload", argv], [f"{label}/{extra_label}", argv + extra]]
    child(base, RUN_CODE, work / "base", runs)
    for hash_seed in HASH_SEEDS:
        child(ROOT, RUN_CODE, work / f"head-{hash_seed}", runs, hash_seed)
    lines += report(work / "base", work / f"head-{HASH_SEEDS[0]}")
    lines += report(work / f"head-{HASH_SEEDS[0]}", work / f"head-{HASH_SEEDS[1]}",
                    f"hashseed-{HASH_SEEDS[1]}/")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare this checkout's outputs with another commit's, file by file")
    parser.add_argument("--base", required=True, help="the commit to compare with (a git revision)")
    parser.add_argument("--fixtures", action="store_true",
                        help="run every command on tests/fixtures/ instead of the workloads")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as work:
        work = Path(work)
        base = work / "tree"
        base.mkdir()
        try:
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base],
                                     capture_output=True, check=True).stdout
            subprocess.run(["tar", "-x", "-f", "-", "-C", str(base)], input=archive, check=True)
            lines = compare(base, work, args.fixtures)
        except subprocess.CalledProcessError as exc:
            print(f"error: {' '.join(exc.cmd)}: {(exc.stderr or b'').decode().strip()}",
                  file=sys.stderr)
            return 2
        except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print("\n".join(lines))
    return int(any(not line.startswith("same ") for line in lines))


if __name__ == "__main__":
    sys.exit(main())
