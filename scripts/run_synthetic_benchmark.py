#!/usr/bin/env python3
"""Generate a synthetic benchmark, run the pipeline on it, and report.

Builds a train and an eval corpus with known gold, then runs the
command-line tools on them: `estimate-transitions` on the train half,
`synth` for noisy emissions on the eval half, `tune` (with --tune, writing
tune.json) and `pipeline`, which decodes, repairs, and scores with the
tuned weights or the given ones. Every flag is checked before anything is
written, and the run exits with the command-line tools' exit codes. All
files land in --out-dir, so each step can be replayed with the same
commands.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from proctrack import OracleConfig, cli, get_vocabulary, make_corpus, save_corpus
from proctrack.decoder import DecodeConfig


def benchmark(args) -> int:
    out_dir = Path(args.out_dir)
    vocabulary = get_vocabulary(args.vocab)
    # The procedure counts are checked while parsing; every other flag goes
    # through the check of the code that takes it before the first write, so
    # a bad flag leaves --out-dir as it was.
    corpora = {"train": make_corpus(args.train_procedures, vocabulary, seed=args.seed),
               "eval": make_corpus(args.eval_procedures, vocabulary, seed=args.seed + 1)}
    OracleConfig(state_noise=args.state_noise, location_noise=args.location_noise,
                 corruption_bias={"implicit": args.bias_implicit}, seed=args.seed + 2)
    DecodeConfig(tau_exp=args.tau_exp, tau_imp=args.tau_imp)

    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (procedures, grids) in corpora.items():
        save_corpus(procedures, grids, out_dir / f"{name}.jsonl")

    def command(name, split, *flags):
        return [name, "--corpus", str(out_dir / f"{split}.jsonl"), "--vocab", args.vocab,
                *map(str, flags)]

    inputs = ("--model", out_dir / "model.json", "--emissions", out_dir / "emissions.jsonl")
    steps = [
        command("estimate-transitions", "train", "--out", out_dir / "model.json"),
        command("synth", "eval", "--state-noise", args.state_noise,
                "--location-noise", args.location_noise,
                "--bias-implicit", args.bias_implicit, "--seed", args.seed + 2,
                "--out", out_dir / "emissions.jsonl"),
    ]
    if args.tune:
        steps.append(command("tune", "eval", *inputs, "--out", out_dir / "tune.json"))
    for argv in steps:
        if code := cli.main(argv):
            return code
    taus = (json.loads((out_dir / "tune.json").read_text())["best"] if args.tune
            else {"tau_exp": args.tau_exp, "tau_imp": args.tau_imp})
    return cli.main(command("pipeline", "eval", *inputs, "--tau-exp", taus["tau_exp"],
                            "--tau-imp", taus["tau_imp"], "--seed", args.seed,
                            "--out", out_dir))


def procedure_count(text: str) -> int:
    """A --train-procedures or --eval-procedures value, checked here so that
    the error names its flag."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="synthetic end-to-end benchmark with known gold")
    parser.add_argument("--vocab", default="propara",
                        choices=("propara", "recipes"))
    parser.add_argument("--train-procedures", type=procedure_count, default=200)
    parser.add_argument("--eval-procedures", type=procedure_count, default=100)
    parser.add_argument("--seed", type=int, default=11,
                        help="base seed; train, eval, and noise derive from it")
    parser.add_argument("--state-noise", type=float, default=0.1)
    parser.add_argument("--location-noise", type=float, default=0.1)
    parser.add_argument("--bias-implicit", type=float, default=0.0,
                        help="extra state noise on steps that do not mention the entity")
    parser.add_argument("--tau-exp", type=float, default=DecodeConfig.tau_exp)
    parser.add_argument("--tau-imp", type=float, default=DecodeConfig.tau_imp)
    parser.add_argument("--tune", action="store_true",
                        help="grid-search the weights before the final run")
    parser.add_argument("--out-dir", required=True)
    return parser


def main(argv=None) -> int:
    return cli.run(benchmark, build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
