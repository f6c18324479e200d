"""End-to-end run: decode every entity, repair locations, score, report.

Entities with no emissions never abort a run: they are logged, scored as
empty tracks, and surfaced in the report's coverage block. The report is
written both as JSON and as a plain-text table; neither embeds paths or
timestamps, so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field

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
    decoded_states: dict = field(default_factory=dict)


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
    (entity_id, states, path score, argmax states, mention flags) row per
    track; an error while weighting or decoding names the entity."""
    out = []
    for entity_id, track in tracks:
        flags = detect_mentions(procedure, procedure.entity(entity_id))
        try:
            weighted = weight_emissions(track.state_logits, flags, config)
            states, path_score = viterbi(weighted, model, relax=relax)
        except ToolkitError as exc:
            raise type(exc)(
                f"procedure {procedure.id!r}, entity {entity_id!r}: {exc}") from exc
        raw = argmax_states(track.state_logits, model.vocabulary)
        out.append((entity_id, states, path_score, raw, flags))
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
    decoded_states: dict[tuple[str, str], list[str]] = {}
    raw_states: dict[tuple[str, str], list[str]] = {}
    flags_map: dict[tuple[str, str], tuple[bool, ...]] = {}
    repair_counts: dict[str, int] = {}
    for procedure, tracks in units:
        rows = decode_unit(procedure, tracks, model, config, relax)
        proc_id = procedure.id
        grid = pred_grids[proc_id] = AnnotationGrid(proc_id, {})
        for (_, track), (entity_id, states, _score, raw, flags) in zip(tracks, rows):
            resolved = resolve(states, track.location_preds, vocabulary)
            for repair in resolved.repairs:
                repair_counts[repair.rule] = repair_counts.get(repair.rule, 0) + 1
            grid.entries[entity_id] = resolved.track()
            decoded_states[proc_id, entity_id] = states
            raw_states[proc_id, entity_id] = raw
            flags_map[proc_id, entity_id] = flags

    scores = score(gold_grids, pred_grids, vocabulary, per_procedure)
    return PipelineResult(
        **vars(scores),
        pred_grids=pred_grids,
        split_argmax=eval_split(gold_grids, raw_states, flags_map),
        split_decoded=eval_split(gold_grids, decoded_states, flags_map),
        repair_counts=dict(sorted(repair_counts.items())),
        missing=missing,
        config=config,
        vocabulary=vocabulary,
        seed=seed,
        decoded_states=decoded_states,
    )


def question_dict(score: QuestionScore) -> dict:
    return {
        "precision": score.precision,
        "recall": score.recall,
        "f1": score.f1,
        "pred": score.n_pred,
        "gold": score.n_gold,
        "correct": score.n_correct,
    }


def document_dict(document) -> dict:
    payload = {name: question_dict(score)
               for name, score in document.questions().items()}
    payload["macro"] = {
        "precision": document.macro_precision,
        "recall": document.macro_recall,
        "f1": document.macro_f1,
    }
    return payload


def split_dict(split: SplitReport) -> dict:
    def bucket(b):
        return {"accuracy": b.accuracy, "correct": b.n_correct, "steps": b.n_steps}
    return {"explicit": bucket(split.explicit), "implicit": bucket(split.implicit)}


def score_dict(scores: Scores) -> dict:
    """The score blocks of report.json, which `evaluate` prints as they are."""
    def category(cat):
        return {"score": cat.score, "correct": cat.n_correct, "scored": cat.n_scored}

    sentence = scores.sentence
    payload = {
        "document_level": document_dict(scores.document),
        "sentence_level": {
            "cat1": category(sentence.cat1),
            "cat2": category(sentence.cat2),
            "cat3": category(sentence.cat3),
            "macro": sentence.macro,
            "micro": sentence.micro,
        },
        "recipes_location_changes": (
            question_dict(scores.recipes_location)
            if scores.recipes_location is not None else None),
    }
    if scores.per_procedure is not None:
        payload["per_procedure"] = {
            proc_id: document_dict(doc)
            for proc_id, doc in scores.per_procedure.items()
        }
    return payload


def report_dict(result: PipelineResult) -> dict:
    payload = {
        "config": {
            "vocabulary": result.vocabulary.name,
            "tau_exp": result.config.tau_exp,
            "tau_imp": result.config.tau_imp,
            "seed": result.seed,
        },
        "coverage": {
            "decoded_entities": len(result.decoded_states),
            "missing_emissions": len(result.missing),
        },
        "consistency_repairs": result.repair_counts,
        **score_dict(result),
        "split_accuracy": {
            "argmax": split_dict(result.split_argmax),
            "decoded": split_dict(result.split_decoded),
        },
    }
    if result.per_procedure is not None:
        # Re-inserted so that it stays the last block.
        payload["per_procedure"] = payload.pop("per_procedure")
    return payload


def render_report(result: PipelineResult) -> str:
    lines = []
    doc = result.document

    def fmt(x):
        return "  none" if x is None else f"{x:.4f}"

    lines.append("document-level")
    lines.append(f"  {'question':<12} {'P':>8} {'R':>8} {'F1':>8} "
                 f"{'pred':>6} {'gold':>6} {'hit':>6}")
    for name, score in doc.questions().items():
        lines.append(
            f"  {name:<12} {score.precision:>8.4f} {score.recall:>8.4f} "
            f"{score.f1:>8.4f} {score.n_pred:>6d} {score.n_gold:>6d} "
            f"{score.n_correct:>6d}")
    lines.append(f"  {'macro':<12} {doc.macro_precision:>8.4f} "
                 f"{doc.macro_recall:>8.4f} {doc.macro_f1:>8.4f}")
    sent = result.sentence
    lines.append("sentence-level")
    for name, cat in (("cat1", sent.cat1), ("cat2", sent.cat2), ("cat3", sent.cat3)):
        lines.append(f"  {name:<12} {cat.score:>8.4f} "
                     f"({cat.n_correct}/{cat.n_scored})")
    lines.append(f"  {'macro':<12} {sent.macro:>8.4f}")
    lines.append(f"  {'micro':<12} {sent.micro:>8.4f}")
    if result.recipes_location is not None:
        s = result.recipes_location
        lines.append("location-changes")
        lines.append(f"  {'changes':<12} {s.precision:>8.4f} {s.recall:>8.4f} "
                     f"{s.f1:>8.4f} {s.n_pred:>6d} {s.n_gold:>6d} {s.n_correct:>6d}")
    lines.append("split-accuracy")
    for name, split in (("argmax", result.split_argmax),
                        ("decoded", result.split_decoded)):
        lines.append(
            f"  {name:<12} explicit {fmt(split.explicit.accuracy)} "
            f"({split.explicit.n_correct}/{split.explicit.n_steps})  "
            f"implicit {fmt(split.implicit.accuracy)} "
            f"({split.implicit.n_correct}/{split.implicit.n_steps})")
    lines.append(f"repairs {sum(result.repair_counts.values())} "
                 f"missing-emissions {len(result.missing)}")
    return "\n".join(lines) + "\n"


def write_outputs(result: PipelineResult, procedures, out_dir) -> str:
    """Write predictions.jsonl, report.json and report.txt, made before any
    file is written, to `out_dir`; returns the text of report.txt."""
    report, text = report_dict(result), render_report(result)
    os.makedirs(out_dir, exist_ok=True)
    save_corpus(procedures, result.pred_grids, os.path.join(out_dir, "predictions.jsonl"))
    write_json(os.path.join(out_dir, "report.json"), report)
    write_text(os.path.join(out_dir, "report.txt"), text)
    return text
