"""Scoring protocols: document events, sentence categories, location changes."""

import re

import pytest

from proctrack.corpus import (
    PROPARA,
    RECIPES,
    AnnotationGrid,
    LocationValue,
    Track,
)
from proctrack.errors import ValidationError
from proctrack.evaluator import (
    _document_tuples,
    document_report,
    eval_document_level,
    eval_recipes_locations,
    eval_sentence_level,
    eval_split,
)
from proctrack.synth import make_corpus


def _track(states, tokens):
    return Track(
        states=tuple(states),
        locations=tuple(LocationValue.from_token(t) for t in tokens),
    )


def _conversion_grid():
    """Three entities over three steps: A is consumed into B at step 2 in the
    soil while C moves from pond to river at step 3."""
    entries = {
        "A": _track(
            ["exist", "destroy", "outside_after"], ["soil", "soil", "-", "-"]
        ),
        "B": _track(
            ["outside_before", "create", "exist"], ["-", "-", "soil", "soil"]
        ),
        "C": _track(["exist", "exist", "move"], ["pond", "pond", "pond", "river"]),
    }
    return {"mix": AnnotationGrid(procedure_id="mix", entries=entries)}


def _no_events_grid():
    entries = {
        name: _track(["exist"] * 3, ["?"] * 4) for name in ("A", "B", "C")
    }
    return {"mix": AnnotationGrid(procedure_id="mix", entries=entries)}


def test_document_identity_is_perfect():
    gold = _conversion_grid()
    report = eval_document_level(gold, gold)
    for score in (report.inputs, report.outputs, report.conversions, report.moves):
        assert score.precision == 1.0
        assert score.recall == 1.0
        assert score.f1 == 1.0
    assert report.macro_f1 == 1.0
    assert report.macro_precision == 1.0
    assert report.macro_recall == 1.0


def test_document_report_is_rebuilt_from_its_counts():
    gold = _conversion_grid()
    report = eval_document_level(gold, _no_events_grid())
    assert report.counts() == [(0, 1, 0), (0, 1, 0), (0, 1, 0), (0, 1, 0)]
    assert document_report(report.counts()) == report


def test_document_events_extracted_from_hand_grid():
    gold = _conversion_grid()
    report = eval_document_level(gold, gold)
    assert report.inputs.n_gold == 1
    assert report.outputs.n_gold == 1
    assert report.conversions.n_gold == 1
    assert report.moves.n_gold == 1


def test_document_missed_move_costs_recall_not_precision():
    gold = _conversion_grid()
    pred = _conversion_grid()
    pred["mix"].entries["C"] = _track(
        ["exist", "exist", "exist"], ["pond", "pond", "pond", "pond"]
    )
    report = eval_document_level(gold, pred)
    assert report.moves.precision == 1.0
    assert report.moves.recall == 0.0
    assert report.moves.f1 == 0.0
    assert report.inputs.f1 == 1.0
    assert report.outputs.f1 == 1.0
    assert report.conversions.f1 == 1.0
    assert report.macro_f1 == pytest.approx(0.75)
    assert report.macro_recall == pytest.approx(0.75)
    assert report.macro_precision == 1.0


def test_document_conversion_requires_shared_location():
    gold = _conversion_grid()
    pred = _conversion_grid()
    pred["mix"].entries["B"] = _track(
        ["outside_before", "create", "exist"], ["-", "-", "oven", "oven"]
    )
    report = eval_document_level(gold, pred)
    assert report.conversions.n_pred == 0
    assert report.conversions.recall == 0.0


def test_document_conversions_join_every_destruction_and_creation_at_one_step_and_place():
    """Two entities destroyed and two created in the kettle at step 2 give
    four conversions. One created there at step 3 joins none, and neither
    does a destruction meeting a creation at "-", which only a rule-breaking
    prediction can hold."""
    entries = {
        "malt": _track(["exist", "destroy", "outside_after"], ["kettle", "kettle", "-", "-"]),
        "hops": _track(["exist", "destroy", "outside_after"], ["kettle", "kettle", "-", "-"]),
        "wort": _track(["outside_before", "create", "exist"], ["-", "-", "kettle", "kettle"]),
        "steam": _track(["outside_before", "create", "exist"], ["-", "-", "kettle", "kettle"]),
        "foam": _track(["outside_before", "outside_before", "create"], ["-", "-", "-", "kettle"]),
        "ghost": _track(["outside_before", "destroy", "outside_after"], ["-"] * 4),
        "spark": _track(["outside_before", "create", "exist"], ["-"] * 4),
    }
    kettle = LocationValue.from_token("kettle").key
    _, _, conversions, _ = _document_tuples({"brew": AnnotationGrid("brew", entries)})
    assert conversions == {("brew", 2, died, born, kettle)
                           for died in ("malt", "hops") for born in ("wort", "steam")}


def test_document_missing_entity_counts_as_empty_track():
    gold = _conversion_grid()
    pred = _conversion_grid()
    del pred["mix"].entries["C"]
    report = eval_document_level(gold, pred)
    assert report.moves.precision == 1.0
    assert report.moves.recall == 0.0


def test_document_rejects_unknown_prediction_entity():
    gold = _conversion_grid()
    pred = _conversion_grid()
    pred["mix"].entries["D"] = _track(["exist"] * 3, ["?"] * 4)
    with pytest.raises(ValidationError):
        eval_document_level(gold, pred)


def test_sentence_identity_is_perfect():
    gold = _conversion_grid()
    report = eval_sentence_level(gold, gold)
    assert report.cat1.score == 1.0
    assert report.cat2.score == 1.0
    assert report.cat3.score == 1.0
    assert report.macro == 1.0
    assert report.micro == 1.0


def test_sentence_categories_count_hand_case():
    gold = _conversion_grid()
    pred = _conversion_grid()
    pred["mix"].entries["C"] = _track(
        ["exist", "exist", "exist"], ["pond", "pond", "pond", "pond"]
    )
    report = eval_sentence_level(gold, pred)
    assert (report.cat1.n_correct, report.cat1.n_scored) == (8, 9)
    assert (report.cat2.n_correct, report.cat2.n_scored) == (2, 3)
    assert (report.cat3.n_correct, report.cat3.n_scored) == (2, 3)
    assert report.micro == pytest.approx(12 / 15)
    assert report.macro == pytest.approx((8 / 9 + 2 / 3 + 2 / 3) / 3)


def test_sentence_no_events_predictor_scores_gold_negative_fraction():
    gold = _conversion_grid()
    report = eval_sentence_level(gold, _no_events_grid())
    assert report.cat1.score == pytest.approx(6 / 9)
    assert report.cat2.score == 0.0
    assert report.cat3.score == 0.0


def test_sentence_cat2_needs_exact_step_sets():
    gold = _conversion_grid()
    pred = _conversion_grid()
    # Right event, wrong step: move at 2 instead of 3.
    pred["mix"].entries["C"] = _track(
        ["exist", "move", "exist"], ["pond", "pond", "river", "river"]
    )
    report = eval_sentence_level(gold, pred)
    assert report.cat1.score == 1.0
    assert (report.cat2.n_correct, report.cat2.n_scored) == (2, 3)


def test_recipes_location_changes_identity_and_offsets():
    gold = {
        "stew": AnnotationGrid(
            procedure_id="stew",
            entries={
                "egg": _track(
                    ["exist", "exist", "absence"], ["shelf", "bowl", "bowl", "-"]
                )
            },
        )
    }
    assert eval_recipes_locations(gold, gold, RECIPES).f1 == 1.0
    off_by_one = {
        "stew": AnnotationGrid(
            procedure_id="stew",
            entries={
                "egg": _track(
                    ["exist", "exist", "absence"], ["shelf", "shelf", "bowl", "-"]
                )
            },
        )
    }
    shifted = eval_recipes_locations(gold, off_by_one, RECIPES)
    assert shifted.n_correct == 1  # only the final "-" change lines up
    assert shifted.f1 == pytest.approx(0.5)


def test_recipes_four_of_five_with_one_spurious_is_point_eight():
    def grid(tokens_by_entity):
        return {
            "stew": AnnotationGrid(
                procedure_id="stew",
                entries={
                    entity: _track(["exist"] * (len(tokens) - 1), tokens)
                    for entity, tokens in tokens_by_entity.items()
                },
            )
        }

    gold = grid(
        {
            "egg": ["shelf", "bowl", "pan", "plate"],
            "flour": ["bag", "bowl", "bowl", "bowl"],
            "milk": ["fridge", "fridge", "bowl", "bowl"],
        }
    )
    pred = grid(
        {
            "egg": ["shelf", "bowl", "pan", "pan"],  # misses plate
            "flour": ["bag", "bowl", "bowl", "oven"],  # spurious oven
            "milk": ["fridge", "fridge", "bowl", "bowl"],
        }
    )
    score = eval_recipes_locations(gold, pred, RECIPES)
    assert (score.n_pred, score.n_gold, score.n_correct) == (5, 5, 4)
    assert score.f1 == pytest.approx(0.8)


def test_recipes_scorer_rejects_other_vocabularies():
    gold = _conversion_grid()
    with pytest.raises(ValidationError):
        eval_recipes_locations(gold, gold, PROPARA)


def test_split_buckets_by_mention_flag():
    gold = _track(["create", "exist", "move"], ["-", "soil", "soil", "pond"])
    argmax, decoded = eval_split(
        [(gold, (True, False, True), ["create", "move", "move"], ["create", "exist", "move"])])
    assert argmax.explicit.accuracy == 1.0
    assert (argmax.explicit.n_correct, argmax.explicit.n_steps) == (2, 2)
    assert argmax.implicit.accuracy == 0.0
    assert (argmax.implicit.n_correct, argmax.implicit.n_steps) == (0, 1)
    assert (decoded.explicit.accuracy, decoded.implicit.accuracy) == (1.0, 1.0)


def test_split_empty_bucket_has_no_accuracy():
    gold = _track(["exist"], ["?", "?"])
    argmax, _ = eval_split([(gold, (True,), ["exist"], ["exist"])])
    assert argmax.explicit.accuracy == 1.0
    assert argmax.implicit.accuracy is None
    assert argmax.implicit.n_steps == 0


def test_split_scores_every_prediction_set_in_one_call():
    gold_a = _track(["create", "exist", "move"], ["-", "soil", "soil", "pond"])
    gold_b = _track(["exist", "destroy", "none"], ["?", "?", "-", "-"])
    first, second = eval_split([
        (gold_a, (True, False, True), ["create", "move", "move"], ["exist", "exist", "move"]),
        (gold_b, (False, False, True), ["exist", "exist", "none"], ["move", "destroy", "none"]),
    ])
    assert (first.explicit.n_correct, first.implicit.n_correct) == (3, 1)
    assert (second.explicit.n_correct, second.implicit.n_correct) == (2, 2)


@pytest.mark.parametrize("flags, states, message", [
    ((True, False), ["create", "exist", "move"], "bad mention flags in split row 1"),
    ((True, False, True), ["create", "exist"], "bad state count in split row 1"),
    ((True, False, True), ["create", "exist", "move", "move"],
     "bad state count in split row 1"),
])
def test_split_rejects_a_track_whose_length_differs_from_gold(flags, states, message):
    gold = _track(["create", "exist", "move"], ["-", "soil", "soil", "pond"])
    good = ["create", "exist", "move"]
    with pytest.raises(ValidationError, match=re.escape(message)):
        eval_split([(gold, (True, False, True), good, good), (gold, flags, good, states)])


def test_generated_corpus_identity_scores_perfect():
    procedures, grids = make_corpus(5, PROPARA, seed=13)
    document = eval_document_level(grids, grids)
    sentence = eval_sentence_level(grids, grids)
    assert document.macro_f1 == 1.0
    assert sentence.macro == 1.0
