#!/usr/bin/env python3
"""Generate a synthetic benchmark, run the pipeline on it, and report.

Builds a train and an eval corpus with known gold, estimates the
transition model from the train half, fabricates noisy emissions for the
eval half, then decodes, repairs, and scores. With --tune the emission
weights are grid-searched first and the best cell is used for the final
run. All files land in --out-dir, so the run can be replayed with the
command-line tools afterwards.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from proctrack import (
    DecodeConfig,
    OracleConfig,
    estimate,
    get_vocabulary,
    make_corpus,
    run_pipeline,
    save_corpus,
    save_emissions,
    save_model,
    synth_emissions,
    tune,
    write_outputs,
)
from proctrack.errors import ToolkitError


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="synthetic end-to-end benchmark with known gold")
    parser.add_argument("--vocab", default="propara",
                        choices=("propara", "recipes"))
    parser.add_argument("--train-procedures", type=int, default=200)
    parser.add_argument("--eval-procedures", type=int, default=100)
    parser.add_argument("--seed", type=int, default=11,
                        help="base seed; train, eval, and noise derive from it")
    parser.add_argument("--state-noise", type=float, default=0.1)
    parser.add_argument("--location-noise", type=float, default=0.1)
    parser.add_argument("--bias-implicit", type=float, default=0.0,
                        help="extra state noise on steps that do not mention the entity")
    parser.add_argument("--tau-exp", type=float, default=0.6)
    parser.add_argument("--tau-imp", type=float, default=0.7)
    parser.add_argument("--tune", action="store_true",
                        help="grid-search the weights before the final run")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    vocabulary = get_vocabulary(args.vocab)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        train_procs, train_grids = make_corpus(
            args.train_procedures, vocabulary, seed=args.seed)
        eval_procs, eval_grids = make_corpus(
            args.eval_procedures, vocabulary, seed=args.seed + 1)
        save_corpus(train_procs, train_grids, out_dir / "train.jsonl")
        save_corpus(eval_procs, eval_grids, out_dir / "eval.jsonl")

        model = estimate(train_grids.values(), vocabulary)
        save_model(model, out_dir / "model.json")

        bias = {"implicit": args.bias_implicit} if args.bias_implicit else None
        oracle = OracleConfig(state_noise=args.state_noise,
                              location_noise=args.location_noise,
                              corruption_bias=bias, seed=args.seed + 2)
        emissions = synth_emissions(eval_procs, eval_grids, vocabulary, oracle)
        save_emissions(emissions, out_dir / "emissions.jsonl")

        config = DecodeConfig(tau_exp=args.tau_exp, tau_imp=args.tau_imp)
        if args.tune:
            result = tune(eval_procs, eval_grids, emissions, model, vocabulary)
            print(f"tuned weights: tau_exp={result.tau_exp} "
                  f"tau_imp={result.tau_imp} macro_f1={result.f1:.4f}")
            config = DecodeConfig(tau_exp=result.tau_exp, tau_imp=result.tau_imp)

        outcome = run_pipeline(eval_procs, eval_grids, emissions, model,
                               vocabulary, config, seed=args.seed)
        print(write_outputs(outcome, eval_procs, out_dir), end="")
        print(f"wrote corpus, model, emissions, and reports to {out_dir}")
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
