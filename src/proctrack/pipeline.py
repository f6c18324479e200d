"""End-to-end run: decode every entity, repair locations, score, report.

Entities with no emissions never abort a run: they are logged, scored as
empty tracks, and surfaced in the report's coverage block. report.json
holds the report's payload and report.txt is rendered from that payload, so
the two carry the same numbers; neither embeds paths or timestamps, so
identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import logging
import os
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass

from .consistency import resolve
from .corpus import AnnotationGrid, StateVocabulary, save_corpus, write_json, write_text
from .decoder import (
    DecodeConfig,
    argmax_states,
    detect_mentions,
    viterbi,
    weight_emissions,
)
from .errors import ToolkitError
from .evaluator import (
    DocumentReport,
    QuestionScore,
    SentenceReport,
    SplitReport,
    eval_document_level,
    eval_recipes_locations,
    eval_sentence_level,
    eval_split,
)
from .transitions import TransitionModel

log = logging.getLogger(__name__)


@dataclass
class Scores:
    """Every score `evaluate` reports; `run_pipeline` adds the rest."""

    document: DocumentReport
    sentence: SentenceReport
    recipes_location: QuestionScore | None
    per_procedure: dict[str, DocumentReport] | None


@dataclass
class PipelineResult(Scores):
    pred_grids: dict[str, AnnotationGrid]
    split_argmax: SplitReport
    split_decoded: SplitReport
    repair_counts: dict[str, int]
    missing: list[tuple[str, str]]
    config: DecodeConfig
    vocabulary: StateVocabulary
    seed: int | None = None


def join(procedures, gold_grids, emissions):
    """Pair every gold entity with its emission track. Returns (units, missing):
    one (procedure, [(entity_id, track), ...]) per procedure with gold, in
    corpus order, and the (procedure id, entity id) pairs without emissions,
    which one warning counts and samples."""
    units = []
    missing: list[tuple[str, str]] = []
    for procedure in procedures:
        gold = gold_grids.get(procedure.id)
        if gold is None:
            continue
        eset = emissions.get(procedure.id)
        tracks = []
        for entity_id in gold.entries:
            track = eset.tracks.get(entity_id) if eset else None
            if track is None:
                missing.append((procedure.id, entity_id))
            else:
                tracks.append((entity_id, track))
        units.append((procedure, tracks))
    if missing:
        log.warning("no emissions for %d gold track(s), scored as empty tracks, e.g. %s",
                    len(missing), ", ".join(f"{p}/{e}" for p, e in missing[:3]))
    return units, missing


def decode_unit(procedure, tracks, model: TransitionModel, config: DecodeConfig,
                relax: bool = False):
    """Decode one procedure's (entity_id, track) pairs. Returns one
    (entity_id, states, path score, mention flags) row per track; an error
    while weighting or decoding names the entity."""
    out = []
    for entity_id, track in tracks:
        flags = detect_mentions(procedure, procedure.entity(entity_id))
        try:
            weighted = weight_emissions(track.state_logits, flags, config)
            states, path_score = viterbi(weighted, model, relax=relax)
        except ToolkitError as exc:
            raise type(exc)(
                f"procedure {procedure.id!r}, entity {entity_id!r}: {exc}") from exc
        out.append((entity_id, states, path_score, flags))
    return out


def score(gold_grids, pred_grids, vocabulary: StateVocabulary,
          per_procedure: bool = False) -> Scores:
    """Score prediction grids against gold. Location changes are scored for
    recipes only; per_procedure adds each gold procedure's document score."""
    recipes = None
    if vocabulary.name == "recipes":
        recipes = eval_recipes_locations(gold_grids, pred_grids, vocabulary)
    per_proc = None
    if per_procedure:
        per_proc = {
            proc_id: eval_document_level(
                {proc_id: gold_grids[proc_id]},
                {proc_id: pred_grids.get(proc_id, AnnotationGrid(proc_id, {}))})
            for proc_id in sorted(gold_grids)
        }
    return Scores(eval_document_level(gold_grids, pred_grids),
                  eval_sentence_level(gold_grids, pred_grids), recipes, per_proc)


def run_pipeline(procedures, gold_grids, emissions, model: TransitionModel,
                 vocabulary: StateVocabulary, config: DecodeConfig | None = None,
                 relax: bool = False, seed: int | None = None,
                 per_procedure: bool = False) -> PipelineResult:
    config = config or DecodeConfig()
    units, missing = join(procedures, gold_grids, emissions)

    # Every procedure with gold gets a grid, empty when all of its entities
    # lacked emissions, so the evaluator counts it against recall.
    pred_grids: dict[str, AnnotationGrid] = {}
    split_rows = []         # (gold track, flags, argmax states, decoded states)
    repair_counts = Counter()
    for procedure, tracks in units:
        rows = decode_unit(procedure, tracks, model, config, relax)
        proc_id = procedure.id
        grid = pred_grids[proc_id] = AnnotationGrid(proc_id, {})
        for (_, track), (entity_id, states, _score, flags) in zip(tracks, rows):
            resolved = resolve(states, track.location_preds, vocabulary)
            repair_counts.update(repair.rule for repair in resolved.repairs)
            grid.entries[entity_id] = resolved.track()
            split_rows.append((gold_grids[proc_id].entries[entity_id], flags,
                               argmax_states(track.state_logits, model.vocabulary), states))

    scores = score(gold_grids, pred_grids, vocabulary, per_procedure)
    split_argmax, split_decoded = eval_split(split_rows)
    return PipelineResult(
        **vars(scores),
        pred_grids=pred_grids,
        split_argmax=split_argmax,
        split_decoded=split_decoded,
        repair_counts=dict(sorted(repair_counts.items())),
        missing=missing,
        config=config,
        vocabulary=vocabulary,
        seed=seed,
    )


def to_payload(score):
    """Any evaluator score, or other dataclass, as its report.json block, with
    fields in declaration order and a count n_x named x. A document's macro_x
    fields fold into one "macro" block, which is trailing since they are
    declared last. A value that is not a dataclass, None included, is
    returned as it is."""
    if not is_dataclass(score):
        return score
    block = {}
    for f in fields(score):
        value = to_payload(getattr(score, f.name))
        if f.name.startswith("macro_"):
            block.setdefault("macro", {})[f.name.removeprefix("macro_")] = value
        else:
            block[f.name.removeprefix("n_")] = value
    return block


def score_dict(scores: Scores) -> dict:
    """The score blocks of report.json, which `evaluate` prints as they are."""
    payload = {
        "document_level": to_payload(scores.document),
        "sentence_level": to_payload(scores.sentence),
        "recipes_location_changes": to_payload(scores.recipes_location),
    }
    if scores.per_procedure is not None:
        payload["per_procedure"] = {proc_id: to_payload(doc)
                                    for proc_id, doc in scores.per_procedure.items()}
    return payload


def report_dict(result: PipelineResult) -> dict:
    payload = {
        "config": {"vocabulary": result.vocabulary.name, **to_payload(result.config),
                   "seed": result.seed},
        "coverage": {
            "decoded_entities": sum(len(grid.entries) for grid in result.pred_grids.values()),
            "missing_emissions": len(result.missing),
        },
        "consistency_repairs": result.repair_counts,
        **score_dict(result),
        "split_accuracy": {
            "argmax": to_payload(result.split_argmax),
            "decoded": to_payload(result.split_decoded),
        },
    }
    if result.per_procedure is not None:
        # Re-inserted so that it stays the last block.
        payload["per_procedure"] = payload.pop("per_procedure")
    return payload


def render_report(report: dict) -> str:
    """report.txt, rendered from the payload `report_dict` built, so that
    every number in it is the one in report.json."""
    def fmt(x):
        return "  none" if x is None else f"{x:.4f}"

    def prf(name, s):
        row = f"  {name:<12} {s['precision']:>8.4f} {s['recall']:>8.4f} {s['f1']:>8.4f}"
        if "pred" in s:
            row += f" {s['pred']:>6d} {s['gold']:>6d} {s['correct']:>6d}"
        return row

    lines = ["document-level",
             f"  {'question':<12} {'P':>8} {'R':>8} {'F1':>8} "
             f"{'pred':>6} {'gold':>6} {'hit':>6}"]
    lines += [prf(name, s) for name, s in report["document_level"].items()]
    lines.append("sentence-level")
    for name, cat in report["sentence_level"].items():
        if isinstance(cat, dict):
            lines.append(f"  {name:<12} {cat['score']:>8.4f} "
                         f"({cat['correct']}/{cat['scored']})")
        else:
            lines.append(f"  {name:<12} {cat:>8.4f}")
    if report["recipes_location_changes"] is not None:
        lines += ["location-changes", prf("changes", report["recipes_location_changes"])]
    lines.append("split-accuracy")
    for name, split in report["split_accuracy"].items():
        lines.append(f"  {name:<12} " + "  ".join(
            f"{bucket} {fmt(b['accuracy'])} ({b['correct']}/{b['steps']})"
            for bucket, b in split.items()))
    lines.append(f"repairs {sum(report['consistency_repairs'].values())} "
                 f"missing-emissions {report['coverage']['missing_emissions']}")
    return "\n".join(lines) + "\n"


def write_outputs(result: PipelineResult, procedures, out_dir) -> str:
    """Write predictions.jsonl, report.json and report.txt, made before any
    file is written, to `out_dir`; returns the text of report.txt."""
    report = report_dict(result)
    text = render_report(report)
    os.makedirs(out_dir, exist_ok=True)
    save_corpus(procedures, result.pred_grids, os.path.join(out_dir, "predictions.jsonl"))
    write_json(os.path.join(out_dir, "report.json"), report)
    write_text(os.path.join(out_dir, "report.txt"), text)
    return text
