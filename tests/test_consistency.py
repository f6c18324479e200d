"""State/location reconciliation: repair rules and grid validity."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    CORPUS_PROPARA,
    MODEL_PROPARA,
    random_location_preds,
    random_walk_states,
)
from proctrack.consistency import resolve
from proctrack.corpus import (
    PROPARA,
    RECIPES,
    RULE_CREATE_AFTER,
    RULE_CREATE_BEFORE,
    RULE_EXIST,
    RULE_MOVE,
    RULE_NONEXISTENT,
    RULE_START,
    AnnotationGrid,
    Track,
    load_corpus,
    parse_prediction,
    track_violations,
)
from proctrack.errors import ValidationError
from proctrack.synth import make_corpus
from proctrack.transitions import load_model


def _tokens(resolved):
    return [loc.token() for loc in resolved.locations]


def test_consistent_input_passes_untouched():
    resolved = resolve(["create", "exist"], ["none", "plant", "plant"], PROPARA)
    assert _tokens(resolved) == ["-", "plant", "plant"]
    assert resolved.repairs == ()


def test_start_slot_forced_nonexistent():
    resolved = resolve(["create"], ["soil", "plant"], PROPARA)
    assert _tokens(resolved) == ["-", "plant"]
    assert [r.rule for r in resolved.repairs] == [RULE_START]
    assert resolved.repairs[0].slot == 0


def test_create_upgrades_none_to_unknown():
    resolved = resolve(["create"], ["none", "none"], PROPARA)
    assert _tokens(resolved) == ["-", "?"]
    assert [r.rule for r in resolved.repairs] == [RULE_CREATE_AFTER]


def test_create_after_first_step_clears_previous_slot():
    resolved = resolve(
        ["outside_before", "create"],
        ["none", "soil", "soil"],
        PROPARA,
    )
    assert _tokens(resolved) == ["-", "-", "soil"]
    assert [r.rule for r in resolved.repairs] == [RULE_NONEXISTENT]
    # A span surviving into the slot before a later create (possible only on
    # state sequences no consistent gold admits) is cleared best-effort.
    resolved = resolve(["exist", "create"], ["soil", "soil", "pond"], PROPARA)
    assert _tokens(resolved) == ["soil", "-", "pond"]
    assert [r.rule for r in resolved.repairs] == [RULE_CREATE_BEFORE]


def test_nonexistent_states_force_dash():
    resolved = resolve(
        ["exist", "destroy", "outside_after"],
        ["soil", "soil", "pond", "pond"],
        PROPARA,
    )
    assert _tokens(resolved) == ["soil", "soil", "-", "-"]
    assert sorted(r.rule for r in resolved.repairs) == [
        RULE_NONEXISTENT,
        RULE_NONEXISTENT,
    ]


def test_exist_copies_previous_slot():
    resolved = resolve(["exist"], ["soil", "pond"], PROPARA)
    assert _tokens(resolved) == ["soil", "soil"]
    assert [r.rule for r in resolved.repairs] == [RULE_EXIST]


def test_move_to_same_place_degrades_to_unknown():
    resolved = resolve(["move"], ["soil", "soil"], PROPARA)
    assert _tokens(resolved) == ["soil", "?"]
    assert [r.rule for r in resolved.repairs] == [RULE_MOVE]
    assert resolved.repairs[0].slot == 1


def test_move_to_none_degrades_to_unknown():
    resolved = resolve(["move"], ["soil", "none"], PROPARA)
    assert _tokens(resolved) == ["soil", "?"]
    assert [r.rule for r in resolved.repairs] == [RULE_MOVE]


def test_matching_is_normalized_not_literal():
    resolved = resolve(["exist"], ["The Soil.", "the soil"], PROPARA)
    assert resolved.repairs == ()
    assert _tokens(resolved) == ["The Soil.", "the soil"]


def test_recipes_exist_does_not_pin_location():
    resolved = resolve(
        ["exist", "exist", "absence"],
        ["counter", "bowl", "oven", "anything"],
        RECIPES,
    )
    assert _tokens(resolved) == ["counter", "bowl", "oven", "-"]
    assert [r.rule for r in resolved.repairs] == [RULE_NONEXISTENT]


def test_resolve_validates_shapes():
    with pytest.raises(ValidationError):
        resolve([], ["?"], PROPARA)
    with pytest.raises(ValidationError):
        resolve(["exist"], ["?"], PROPARA)
    with pytest.raises(ValidationError):
        resolve(["grow"], ["?", "?"], PROPARA)
    with pytest.raises(ValidationError, match="'location_preds' must be a list of strings"):
        resolve(["exist"], [None, None], PROPARA)


_TEXT = st.sampled_from(["exist", "absence", "bowl", "oven", "?", "-"]) | st.text(max_size=4)
_NOT_STR = (st.none() | st.booleans() | st.integers() | st.floats() | st.binary(max_size=2)
            | st.lists(_TEXT, max_size=2) | st.just(np.str_("exist")))
# Each kind of value that is not a list or tuple of strings.
NOT_STR_LISTS = (
    _TEXT
    | st.dictionaries(_TEXT, st.integers(), max_size=3)
    | st.sets(_TEXT, max_size=3)
    | st.lists(_TEXT, max_size=3).map(lambda items: (item for item in items))
    | st.lists(_TEXT, min_size=1, max_size=3).map(np.array)
    | st.builds(lambda kind, items: kind(items), st.sampled_from([list, tuple]),
                st.lists(_TEXT | _NOT_STR, min_size=1, max_size=4).filter(
                    lambda items: any(type(item) is not str for item in items))))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["states", "location_preds"]), NOT_STR_LISTS)
@example("location_preds", "ab")
@example("location_preds", {"bowl": 1, "oven": 2})
@example("location_preds", {"bowl", "oven"})
def test_resolve_takes_only_lists_of_strings(argument, value):
    # A one-step track, so that two predictions of any kind fit its count.
    arguments = {"states": ["exist"], "location_preds": ["bowl", "oven"]}
    arguments[argument] = value
    with pytest.raises(ValidationError, match=f"^'{argument}' must be a list of strings$"):
        resolve(arguments["states"], arguments["location_preds"], RECIPES)


def test_track_method_returns_valid_grid_row():
    resolved = resolve(
        ["outside_before", "create", "move", "destroy"],
        ["none", "none", "soil", "pond", "none"],
        PROPARA,
    )
    violations = track_violations(resolved.track(), PROPARA, entity_id="e0")
    assert violations == []


def test_gold_locations_round_trip_without_repairs():
    procedures, grids = make_corpus(6, PROPARA, seed=21)
    for procedure in procedures:
        for entity_id, track in grids[procedure.id].entries.items():
            preds = [loc.answer_text() for loc in track.locations]
            resolved = resolve(track.states, preds, PROPARA)
            assert resolved.repairs == ()
            assert all(
                got.matches(want)
                for got, want in zip(resolved.locations, track.locations)
            )


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.sampled_from(["walk", "propara", "recipes"]))
def test_fuzzed_resolves_never_violate_grid_rules(seed, source):
    # States come from a walk along the fixture model's edges, or are any
    # labels of either vocabulary.
    rng = np.random.default_rng(seed)
    n_steps = int(rng.integers(1, 9))
    if source == "walk":
        vocabulary, states = PROPARA, random_walk_states(rng, load_model(MODEL_PROPARA), n_steps)
    else:
        vocabulary = PROPARA if source == "propara" else RECIPES
        states = [str(rng.choice(vocabulary.labels)) for _ in range(n_steps)]
    preds = random_location_preds(rng, len(states) + 1)
    resolved = resolve(states, preds, vocabulary)
    # A repair is recorded exactly when the predictions break a rule.
    raw = Track(tuple(states), tuple(map(parse_prediction, preds)))
    assert (resolved.repairs == ()) == (track_violations(raw, vocabulary) == [])
    # Excluded: any propara labels may admit no consistent locations at all
    # (create right after move), and those are repaired best-effort.
    if source != "propara":
        assert track_violations(resolved.track(), vocabulary, entity_id="e0") == []
