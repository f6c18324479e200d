"""Command-line front end.

Subcommands: stats, format-qa, estimate-transitions, synth, decode,
resolve, evaluate, tune, pipeline. Exit codes: 0 success, 2 validation
error, 3 decode error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import logging
import sys

# The modules `_load`, `run` and `build_parser` need; each command imports
# the rest of what it runs, so a command compiles only its own modules.
from . import corpus, decoder, transitions
from .errors import NoValidPathError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DECODE = 3
EXIT_IO = 4

log = logging.getLogger(__name__)


def _add_decode_args(sub, taus=True):
    sub.add_argument("--emissions", required=True)
    sub.add_argument("--model", required=True)
    if taus:
        sub.add_argument("--tau-exp", type=float, default=decoder.DecodeConfig.tau_exp)
        sub.add_argument("--tau-imp", type=float, default=decoder.DecodeConfig.tau_imp)
    sub.add_argument("--relax", action="store_true",
                     help="when no legal path exists, decode the paths with the fewest "
                          "vetoed (-inf) starts and transitions")


def _load(args, gold=False):
    """Every input the command takes: (vocabulary, procedures, gold grids,
    model or None, emissions or None). With `gold`, the corpus must carry
    gold grids; the model must use the vocabulary --vocab names."""
    vocabulary = corpus.get_vocabulary(args.vocab)
    procedures, grids = corpus.load_corpus(args.corpus, vocabulary)
    if gold and not grids:
        raise ValidationError(f"{args.command} needs gold grids in the corpus file")
    model = emissions = None
    if "model" in args:
        model = transitions.load_model(args.model)
        if model.vocabulary != vocabulary:
            def describe(v):
                return f"{v.name!r} {list(v.labels)} nonexistent {sorted(v.nonexistent_states)}"
            raise ValidationError(f"{args.model}: model vocabulary {describe(model.vocabulary)} "
                                  f"does not match --vocab {describe(vocabulary)}")
    if "emissions" in args:
        emissions = decoder.load_emissions(args.emissions, procedures, vocabulary)
    return vocabulary, procedures, grids, model, emissions


def cmd_stats(args) -> int:
    _, procedures, *_ = _load(args)
    stats = corpus.split_stats(procedures)
    print(corpus.format_stats_table({args.corpus: stats}))
    return EXIT_OK


def cmd_format_qa(args) -> int:
    from . import qaformat
    vocabulary, procedures, grids, *_ = _load(args)
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    count = qaformat.export_instances(procedures, grids, vocabulary,
                                      args.out, kinds=kinds)
    print(f"wrote {count} instances to {args.out}")
    return EXIT_OK


def cmd_estimate_transitions(args) -> int:
    vocabulary, procedures, grids, *_ = _load(args, gold=True)
    model = transitions.estimate(grids.values(), vocabulary)
    # The audit checks --min-count, so it runs before the model is written.
    rare = None if args.min_count is None else transitions.audit_rare_transitions(
        model, args.min_count)
    transitions.save_model(model, args.out)
    if rare is not None:
        for p, q, count in rare:
            print(f"rare transition {p} -> {q}: seen {count} time(s)")
        if not rare:
            print(f"no transitions seen fewer than {args.min_count} times")
    print(f"wrote transition model ({model.sequence_count} sequences) to {args.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    from . import synth
    vocabulary, procedures, grids, *_ = _load(args)
    config = synth.OracleConfig(
        state_noise=args.state_noise, location_noise=args.location_noise, seed=args.seed,
        corruption_bias={"explicit": args.bias_explicit, "implicit": args.bias_implicit})
    sets = synth.synth_emissions(procedures, grids, vocabulary, config)
    decoder.save_emissions(sets, args.out)
    total = sum(len(s.tracks) for s in sets.values())
    print(f"wrote emissions for {total} entities to {args.out}")
    return EXIT_OK


def cmd_decode(args) -> int:
    from . import pipeline
    _, procedures, _, model, emissions = _load(args)
    config = decoder.DecodeConfig(tau_exp=args.tau_exp, tau_imp=args.tau_imp)
    count = corpus.write_records(args.out, (
        {"procedure_id": procedure.id, "entity_id": entity_id, "states": states,
         "score": score}
        for procedure in procedures if procedure.id in emissions
        for entity_id, states, score, _ in pipeline.decode_unit(
            procedure, emissions[procedure.id].tracks.items(), model, config,
            relax=args.relax)))
    print(f"decoded {count} entities to {args.out}")
    return EXIT_OK


def cmd_resolve(args) -> int:
    from . import consistency
    vocabulary, procedures, _, _, emissions = _load(args)
    by_id = {p.id: p for p in procedures}
    grids: dict[str, corpus.AnnotationGrid] = {}

    def parse(record):
        proc_id = corpus.check_str(record.get("procedure_id"), "'procedure_id'")
        entity_id = corpus.check_str(record.get("entity_id"), "'entity_id'")
        states = corpus.check_str_list(record.get("states"), "'states'")
        procedure = by_id.get(proc_id)
        if procedure is None:
            raise ValidationError(f"unknown procedure id {proc_id!r}")
        entity = procedure.entity(entity_id)
        eset = emissions.get(procedure.id)
        track = eset.tracks.get(entity.id) if eset else None
        if track is None:
            raise ValidationError(f"no emissions for ({proc_id!r}, {entity_id!r})")
        grid = grids.setdefault(procedure.id, corpus.AnnotationGrid(procedure.id, {}))
        if entity.id in grid.entries:
            raise ValidationError(f"duplicate decoded states for ({proc_id!r}, {entity_id!r})")
        grid.entries[entity.id] = consistency.resolve(
            states, track.location_preds, vocabulary).track()

    corpus.read_records(args.decoded, parse)
    corpus.save_corpus(procedures, grids, args.out)
    total = sum(len(g.entries) for g in grids.values())
    print(f"resolved {total} tracks to {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from . import pipeline
    vocabulary, procedures, gold_grids, *_ = _load(args, gold=True)
    pred_grids, violations = corpus.load_predictions(
        args.predictions, procedures, vocabulary)
    by_rule: dict[str, list[str]] = {}
    for proc_id, violation in violations:
        by_rule.setdefault(violation.rule, []).append(
            f"{proc_id}/{violation.entity_id} step {violation.step}")
    for rule, where in sorted(by_rule.items()):
        log.warning("inconsistent predictions: rule %s violated %d time(s), e.g. %s",
                    rule, len(where), ", ".join(where[:3]))
    # Score what `pipeline` scores: it decodes only the entities with gold.
    scored = {proc_id: corpus.AnnotationGrid(proc_id, {
                  entity_id: track for entity_id, track in grid.entries.items()
                  if entity_id in gold_grids[proc_id].entries})
              for proc_id, grid in pred_grids.items() if proc_id in gold_grids}
    dropped = sum(len(g.entries) for g in pred_grids.values()) - sum(
        len(g.entries) for g in scored.values())
    if dropped:
        log.warning("left out %d predicted track(s) without gold", dropped)
    scores = pipeline.score(gold_grids, scored, vocabulary, args.per_procedure)
    print(corpus.write_json(args.out, pipeline.score_dict(scores)), end="")
    return EXIT_OK


def cmd_tune(args) -> int:
    from . import tuner
    vocabulary, procedures, gold_grids, model, emissions = _load(args, gold=True)
    grid = tuner.parse_grid(args.grid) if args.grid else None
    result = tuner.tune(procedures, gold_grids, emissions, model, vocabulary,
                        grid=grid, relax=args.relax)
    if args.out:
        corpus.write_json(args.out, {
            "best": {"tau_exp": result.tau_exp, "tau_imp": result.tau_imp,
                     "macro_f1": result.f1},
            "table": [{"tau_exp": te, "tau_imp": ti, "macro_f1": f1}
                      for te, ti, f1 in result.table],
        })
    print(f"best tau_exp={result.tau_exp} tau_imp={result.tau_imp} "
          f"macro_f1={result.f1:.4f}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    from . import pipeline
    vocabulary, procedures, gold_grids, model, emissions = _load(args, gold=True)
    config = decoder.DecodeConfig(tau_exp=args.tau_exp, tau_imp=args.tau_imp)
    result = pipeline.run_pipeline(
        procedures, gold_grids, emissions, model, vocabulary, config,
        relax=args.relax, seed=args.seed, per_procedure=args.per_procedure)
    print(pipeline.write_outputs(result, procedures, args.out), end="")
    print(f"wrote predictions and reports to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proctrack",
        description="entity state tracking: QA formatting, decoding, scoring")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        """A subparser for `name` that runs `func` on a corpus, for the
        command's own arguments to follow --corpus and --vocab."""
        sub = commands.add_parser(name, help=help)
        sub.add_argument("--corpus", required=True, help="corpus file (JSON lines)")
        sub.add_argument("--vocab", required=True, choices=sorted(corpus.VOCABULARIES),
                         help="state vocabulary")
        sub.set_defaults(func=func)
        return sub

    command("stats", cmd_stats, "corpus size and shape")

    sub = command("format-qa", cmd_format_qa, "export QA instances")
    sub.add_argument("--kinds", default="state,location",
                     help="comma-separated subset of: state,location")
    sub.add_argument("--out", required=True)

    sub = command("estimate-transitions", cmd_estimate_transitions,
                  "count gold transitions into a model file")
    sub.add_argument("--out", required=True)
    sub.add_argument("--min-count", type=int, default=None,
                     help="report transitions seen fewer than this many times")

    sub = command("synth", cmd_synth, "fabricate noisy emissions for gold")
    sub.add_argument("--state-noise", type=float, default=0.0)
    sub.add_argument("--location-noise", type=float, default=0.0)
    sub.add_argument("--bias-explicit", type=float, default=0.0)
    sub.add_argument("--bias-implicit", type=float, default=0.0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True)

    sub = command("decode", cmd_decode, "Viterbi-decode state sequences")
    _add_decode_args(sub)
    sub.add_argument("--out", required=True)

    sub = command("resolve", cmd_resolve, "repair locations around decoded states")
    sub.add_argument("--decoded", required=True, help="output of decode")
    sub.add_argument("--emissions", required=True)
    sub.add_argument("--out", required=True)

    sub = command("evaluate", cmd_evaluate, "score prediction grids")
    sub.add_argument("--predictions", required=True)
    sub.add_argument("--per-procedure", action="store_true")
    sub.add_argument("--out", default=None)

    sub = command("tune", cmd_tune, "grid-search the emission weights")
    _add_decode_args(sub, taus=False)
    sub.add_argument("--grid", default=None,
                     help=f"start:stop:step, at most {decoder.GRID_MAX_VALUES} values "
                          "(default 0.1:1.5:0.1)")
    sub.add_argument("--jobs", type=int, default=1,
                     help="accepted and ignored: tune runs in one process")
    sub.add_argument("--out", default=None)

    sub = command("pipeline", cmd_pipeline, "decode, resolve, and score in one go")
    _add_decode_args(sub)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--jobs", type=int, default=1,
                     help="accepted and ignored: the pipeline runs in one process")
    sub.add_argument("--per-procedure", action="store_true")
    sub.add_argument("--out", required=True)

    return parser


def run(func, *args) -> int:
    """Call func(*args) and map a toolkit or I/O failure to its exit code and
    an `error:` line on stderr, never a traceback. Every entry point (this
    module's commands and the scripts) returns through here."""
    try:
        return func(*args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NoValidPathError as exc:
        print(f"decode error: {exc}", file=sys.stderr)
        return EXIT_DECODE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    return run(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
