"""Benchmark workloads and the seeded generator that builds their inputs.

Every input is synthetic: a train split feeds `estimate`, a separate eval
split gets noisy emissions from `synth_emissions`, and the CLI then runs on
the eval split. Nothing is downloaded, and one seed always gives the same
files.

Print the shape of every workload at a seed with

    PYTHONPATH=src python3 perfbench/workloads.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import math
import tempfile
import zlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from proctrack import (
    OracleConfig,
    detect_mentions,
    estimate,
    get_vocabulary,
    make_corpus,
    save_corpus,
    save_emissions,
    save_model,
    synth_emissions,
)

TRAIN_PROCEDURES = 1000
STATE_NOISE = 0.1
LOCATION_NOISE = 0.1
IMPLICIT_BIAS = 0.2
# make_corpus draws 1 to 4 entities and 9 to 13 steps per procedure.
MEAN_ENTITY_STEPS_PER_PROCEDURE = 2.5 * 11

CORPUS = "corpus.jsonl"
MODEL = "model.json"
EMISSIONS = "emissions.jsonl"
PIPELINE_OUTPUTS = ("predictions.jsonl", "report.json", "report.txt")
TUNE_OUTPUT = "tune.json"


@dataclass(frozen=True)
class Workload:
    name: str
    vocab: str
    command: str          # "pipeline" or "tune"
    entity_steps: int     # eval split size: sum of steps over entity tracks
    relax: bool

    @property
    def outputs(self) -> tuple[str, ...]:
        return PIPELINE_OUTPUTS if self.command == "pipeline" else (TUNE_OUTPUT,)

    def cli_args(self, inputs: Path, out_dir: Path) -> list[str]:
        """Arguments of the `proctrack` command this workload times."""
        args = [self.command,
                "--corpus", str(inputs / CORPUS), "--vocab", self.vocab,
                "--emissions", str(inputs / EMISSIONS), "--model", str(inputs / MODEL),
                "--jobs", "1"]
        if self.relax:
            args.append("--relax")
        out = out_dir if self.command == "pipeline" else out_dir / TUNE_OUTPUT
        return args + ["--out", str(out)]


# Sizes are set so that a 55 s run holds about 25 pipeline or 18 tune samples
# on a 2-core host. Between them the two workloads run every layer: loading,
# mention detection, argmax, sentence, split and recipes eval, run_pipeline
# and write_outputs on the pipeline; 6-label Viterbi, the propara resolve
# rules and the tuner on tune.
WORKLOADS = {w.name: w for w in (
    # The pipeline over a whole split: 2-label Viterbi is per-step overhead,
    # resolve takes the nonexistent branch, and it runs the recipes location
    # eval and the relaxed transition matrices.
    Workload("recipes-pipeline", "recipes", "pipeline", 55_000, relax=True),
    # The default 225-cell tau grid on a small split: 6-label decode, resolve
    # and document eval run once per cell; loading and mentions are near zero.
    Workload("propara-tune", "propara", "tune", 1_100, relax=False),
)}


def _seeds(workload: Workload, seed: int) -> list[int]:
    sequence = np.random.SeedSequence([seed, zlib.crc32(workload.name.encode())])
    return [int(child.generate_state(1)[0]) for child in sequence.spawn(3)]


def generate(workload: Workload, seed: int, directory: Path) -> dict:
    """Write corpus, model and emissions for one seed; return their shape.

    The eval split is the shortest prefix of a generated corpus that holds
    at least `workload.entity_steps` entity-steps. Decode and resolve work
    grow with entity-steps, so the work barely moves with the seed.
    """
    vocabulary = get_vocabulary(workload.vocab)
    train_seed, eval_seed, noise_seed = _seeds(workload, seed)
    _, train_grids = make_corpus(TRAIN_PROCEDURES, vocabulary, seed=train_seed)
    model = estimate(train_grids.values(), vocabulary)

    budget = math.ceil(1.2 * workload.entity_steps / MEAN_ENTITY_STEPS_PER_PROCEDURE) + 10
    procedures, grids = make_corpus(budget, vocabulary, seed=eval_seed)
    steps = 0
    for keep, procedure in enumerate(procedures, start=1):
        steps += len(procedure.entities) * procedure.num_steps
        if steps >= workload.entity_steps:
            break
    else:
        raise RuntimeError(f"{budget} procedures hold only {steps} entity-steps")
    procedures = procedures[:keep]
    grids = {p.id: grids[p.id] for p in procedures}

    oracle = OracleConfig(state_noise=STATE_NOISE, location_noise=LOCATION_NOISE,
                          corruption_bias={"implicit": IMPLICIT_BIAS}, seed=noise_seed)
    emissions = synth_emissions(procedures, grids, vocabulary, oracle)

    directory.mkdir(parents=True, exist_ok=True)
    save_corpus(procedures, grids, directory / CORPUS)
    save_model(model, directory / MODEL)
    save_emissions(emissions, directory / EMISSIONS)

    mentioned = sum(sum(detect_mentions(procedure, entity))
                    for procedure in procedures for entity in procedure.entities)
    histogram = Counter(p.num_steps for p in procedures)
    return {
        "procedures": len(procedures),
        "entities": sum(len(p.entities) for p in procedures),
        "entity_steps": steps,
        "steps_histogram": {str(t): histogram[t] for t in sorted(histogram)},
        "explicit_step_share": mentioned / steps,
        "file_bytes": {name: (directory / name).stat().st_size
                       for name in (CORPUS, MODEL, EMISSIONS)},
    }


def main(argv=None) -> int:
    """Print the shape of every workload at one seed, as JSON."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as directory:
        shapes = {name: generate(workload, args.seed, Path(directory) / name)
                  for name, workload in WORKLOADS.items()}
    print(json.dumps({"seed": args.seed, "shapes": shapes}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
