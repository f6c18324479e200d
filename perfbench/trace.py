"""Traced run of one proctrack CLI command, for the per-layer metrics.

Runs in a process of its own:

    PYTHONPATH=src python3 perfbench/trace.py --result FILE -- pipeline --corpus ...

It replaces the module-level names that `proctrack pipeline` and
`proctrack tune` look up (the loaders, `run_pipeline`, `tune`, the decoder,
consistency and evaluator functions they call, and `write_outputs`) with
wrappers that time each call from outside and count the work it did. Then it
calls `proctrack.cli.main` with the given arguments, so the program runs its
own code path and writes its usual outputs; the caller compares those byte
for byte with the outputs of untraced runs.
"""

from __future__ import annotations

import argparse
import json
import time
from collections import defaultdict
from pathlib import Path

from proctrack import cli, corpus, decoder, pipeline, transitions, tuner

# (module, name the program looks up there, span the calls are timed under).
TRACED = (
    (corpus, "load_corpus", "corpus.load_corpus"),
    (transitions, "load_model", "transitions.load_model"),
    (decoder, "load_emissions", "decoder.load_emissions"),
    (pipeline, "run_pipeline", "pipeline.run_pipeline"),
    (pipeline, "write_outputs", "pipeline.write_outputs"),
    (tuner, "tune", "tuner.tune"),
    *((module, name, f"decoder.{name}")
      for module in (pipeline, tuner)
      for name in ("detect_mentions", "weight_emissions", "viterbi")),
    (pipeline, "argmax_states", "decoder.argmax_states"),
    (pipeline, "resolve", "consistency.resolve"),
    (tuner, "resolve", "consistency.resolve"),
    (pipeline, "eval_document_level", "evaluator.document"),
    (tuner, "eval_document_level", "evaluator.document"),
    (pipeline, "eval_sentence_level", "evaluator.sentence"),
    (pipeline, "eval_split", "evaluator.split"),
    (pipeline, "eval_recipes_locations", "evaluator.recipes"),
)


class Trace:
    """Seconds and calls per span, plus exact counts of the work done."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.unpatched = []
        self.mentioned_steps = 0
        self.flagged_steps = 0
        self.viterbi_calls = 0
        self.entity_steps = 0
        self.repairs = defaultdict(int)
        # id of a weighted array -> id of the logits it was weighted from.
        # The logits live as long as the emissions, so their id names one
        # entity track for the whole run.
        self.logits_of = {}
        self.tune_decodes = 0
        self.tune_paths = defaultdict(set)
        self.cells = 0

    def install(self):
        for module, name, span in TRACED:
            fn = getattr(module, name, None)
            if fn is None:
                self.unpatched.append(f"{module.__name__}.{name}")
                continue
            setattr(module, name, self.wrap(fn, span, self.observer(module, name)))

    def wrap(self, fn, span, observe):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            self.seconds[span] += time.perf_counter() - start
            self.calls[span] += 1
            if observe is not None:
                observe(args, out)
            return out
        return traced

    def observer(self, module, name):
        if name == "detect_mentions":
            return self.saw_mentions
        if name == "weight_emissions":
            return self.saw_weighting
        if name == "viterbi":
            return self.saw_tune_decode if module is tuner else self.saw_decode
        if name == "resolve":
            return self.saw_resolve
        if name == "tune":
            return self.saw_tune
        return None

    def saw_mentions(self, args, flags):
        self.mentioned_steps += sum(flags)
        self.flagged_steps += len(flags)

    def saw_weighting(self, args, weighted):
        self.logits_of[id(weighted)] = id(args[0])

    def saw_decode(self, args, out):
        self.viterbi_calls += 1
        self.entity_steps += len(out[0])
        return self.logits_of.pop(id(args[0]), None)

    def saw_tune_decode(self, args, out):
        entity = self.saw_decode(args, out)
        self.tune_decodes += 1
        self.tune_paths[entity].add(tuple(out[0]))

    def saw_resolve(self, args, resolved):
        for repair in resolved.repairs:
            self.repairs[repair.rule] += 1

    def saw_tune(self, args, result):
        self.cells = len(result.table)

    def counters(self) -> dict:
        counts = {
            "decoder.viterbi_calls": self.viterbi_calls,
            "decoder.entity_steps": self.entity_steps,
            "decoder.explicit_step_share": self.mentioned_steps / max(self.flagged_steps, 1),
            **{f"consistency.repairs.{rule}": n for rule, n in sorted(self.repairs.items())},
        }
        if self.cells:
            distinct = sum(len(paths) for paths in self.tune_paths.values())
            counts.update({
                "tuner.cells": self.cells,
                "tuner.decodes": self.tune_decodes,
                "tuner.distinct_path_ratio": distinct / len(self.tune_paths) / self.cells,
            })
        return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("cli", nargs=argparse.REMAINDER,
                        help="-- then the arguments of the proctrack command")
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    trace = Trace()
    trace.install()
    start = time.perf_counter()
    code = cli.main(cli_args)
    cli_s = time.perf_counter() - start

    result = {
        "exit": code,
        "cli_s": cli_s,
        "unpatched": trace.unpatched,
        "spans": {name: {"seconds": trace.seconds[name], "calls": trace.calls[name]}
                  for name in sorted(trace.seconds)},
        "counters": trace.counters(),
    }
    args.result.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
