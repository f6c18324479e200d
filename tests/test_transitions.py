"""Transition estimation: log relative frequencies, hard -inf, audits, I/O."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import MODEL_PROPARA, fuzz_vocabulary, relaxed_path_scores
from proctrack.corpus import (
    PROPARA,
    AnnotationGrid,
    LocationValue,
    Track,
    ValidationError,
)
from proctrack.synth import make_corpus
from proctrack.transitions import (
    TransitionModel,
    audit_rare_transitions,
    estimate,
    fewest_vetoes,
    load_model,
    save_model,
    validate_path_exists,
)


def _grid(procedure_id, states_by_entity):
    entries = {}
    for entity_id, states in states_by_entity.items():
        locations = tuple(
            LocationValue.from_token("?") for _ in range(len(states) + 1)
        )
        entries[entity_id] = Track(states=tuple(states), locations=locations)
    return AnnotationGrid(procedure_id=procedure_id, entries=entries)


def test_single_sequence_scores():
    model = estimate([_grid("p0", {"e0": ["create", "exist"]})], PROPARA)
    create = PROPARA.index("create")
    exist = PROPARA.index("exist")
    assert model.start_scores[create] == 0.0
    assert model.trans_scores[create, exist] == 0.0
    for i in range(PROPARA.size):
        if i != create:
            assert model.start_scores[i] == -np.inf
        for j in range(PROPARA.size):
            if (i, j) != (create, exist):
                assert model.trans_scores[i, j] == -np.inf
    assert model.sequence_count == 1


def test_one_in_ten_transition_is_log_point_one():
    states = ["exist"] * 10 + ["move"]
    model = estimate([_grid("p0", {"e0": states})], PROPARA)
    got = model.transition_score("exist", "move")
    assert got == pytest.approx(math.log(0.1), abs=1e-12)
    assert model.transition_score("exist", "exist") == pytest.approx(
        math.log(0.9), abs=1e-12
    )
    row = model.trans_scores[PROPARA.index("exist")]
    assert np.exp(row[np.isfinite(row)]).sum() == pytest.approx(1.0, abs=1e-9)


def test_unseen_transitions_are_exactly_neg_inf():
    model = estimate([_grid("p0", {"e0": ["create", "exist"]})], PROPARA)
    assert np.isneginf(model.transition_score("destroy", "move"))
    assert np.isneginf(model.start_score("move"))


def test_estimate_is_order_independent():
    grids = [
        _grid("p0", {"e0": ["create", "exist", "move"]}),
        _grid("p1", {"e0": ["exist", "destroy", "outside_after"]}),
        _grid("p2", {"e0": ["outside_before", "create"], "e1": ["move", "move"]}),
    ]
    forward = estimate(grids, PROPARA)
    backward = estimate(list(reversed(grids)), PROPARA)
    assert np.array_equal(forward.start_scores, backward.start_scores)
    assert np.array_equal(forward.trans_scores, backward.trans_scores)
    assert np.array_equal(forward.trans_counts, backward.trans_counts)


def test_empty_corpus_rejected():
    with pytest.raises(ValidationError):
        estimate([], PROPARA)
    with pytest.raises(ValidationError):
        estimate([AnnotationGrid(procedure_id="p0", entries={})], PROPARA)


def test_path_existence_horizon():
    model = estimate([_grid("p0", {"e0": ["create", "exist"]})], PROPARA)
    assert validate_path_exists(model, 1)
    assert validate_path_exists(model, 2)
    assert not validate_path_exists(model, 3)
    with pytest.raises(ValidationError):
        validate_path_exists(model, 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_a_path_exists_exactly_when_none_needs_a_veto(n_labels, n_steps, data):
    """fewest_vetoes is the fewest -inf starts and transitions over all
    L**T paths, and validate_path_exists holds exactly when it is 0."""
    entries = st.sampled_from([-np.inf, 0.0])
    model = TransitionModel(
        vocabulary=fuzz_vocabulary(n_labels),
        start_scores=data.draw(st.lists(entries, min_size=n_labels, max_size=n_labels)),
        trans_scores=np.reshape(data.draw(st.lists(
            entries, min_size=n_labels ** 2, max_size=n_labels ** 2)), (n_labels, n_labels)))
    scores = relaxed_path_scores(np.zeros((n_steps, n_labels)), model)
    fewest = min(vetoes for vetoes, _ in scores.values())
    assert fewest_vetoes(model, n_steps) == fewest
    assert validate_path_exists(model, n_steps) == (fewest == 0)


def test_audit_lists_rare_seen_transitions():
    states = ["exist"] * 10 + ["move"]
    model = estimate([_grid("p0", {"e0": states})], PROPARA)
    assert audit_rare_transitions(model, min_count=2) == [("exist", "move", 1)]
    assert audit_rare_transitions(model, min_count=1) == []


def test_model_rejects_nan_and_pos_inf():
    size = PROPARA.size
    good = np.zeros(size)
    with pytest.raises(ValidationError):
        TransitionModel(PROPARA, np.full(size, np.nan), np.zeros((size, size)))
    bad = np.zeros((size, size))
    bad[0, 0] = np.inf
    with pytest.raises(ValidationError):
        TransitionModel(PROPARA, good, bad)


def test_save_load_round_trip_is_exact(tmp_path):
    procedures, grids = make_corpus(12, PROPARA, seed=9)
    model = estimate(grids.values(), PROPARA)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.vocabulary == model.vocabulary
    assert np.array_equal(loaded.start_scores, model.start_scores)
    assert np.array_equal(loaded.trans_scores, model.trans_scores)
    assert np.array_equal(loaded.start_counts, model.start_counts)
    assert np.array_equal(loaded.trans_counts, model.trans_counts)
    assert loaded.sequence_count == model.sequence_count
    assert '"-inf"' in path.read_text()


def test_fixture_model_blocks_move_after_destroy():
    model = load_model(MODEL_PROPARA)
    destroy = PROPARA.index("destroy")
    move = PROPARA.index("move")
    assert model.trans_counts[destroy].sum() > 0
    assert model.trans_counts[destroy, move] == 0
    assert np.isneginf(model.trans_scores[destroy, move])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_rows_are_stochastic_over_seen_mass(seed):
    procedures, grids = make_corpus(8, PROPARA, seed=seed)
    model = estimate(grids.values(), PROPARA)
    finite_start = model.start_scores[np.isfinite(model.start_scores)]
    assert np.exp(finite_start).sum() == pytest.approx(1.0, abs=1e-9)
    assert (finite_start <= 0).all()
    for i in range(PROPARA.size):
        row = model.trans_scores[i]
        if model.trans_counts[i].sum() == 0:
            assert np.isneginf(row).all()
            continue
        finite = row[np.isfinite(row)]
        assert np.exp(finite).sum() == pytest.approx(1.0, abs=1e-9)
        assert (finite <= 0).all()
