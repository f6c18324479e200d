"""Transition estimation: log relative frequencies, hard -inf, audits, I/O."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import MODEL_PROPARA, fuzz_vocabulary, relaxed_path_scores
from proctrack.corpus import (
    PROPARA,
    RECIPES,
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
    load_model,
    save_model,
    validate_path_exists,
    veto_counts,
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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_counts_and_vetoes_match_a_counter_over_the_tracks(data):
    """Counts are a Counter over the tracks' first labels and adjacent pairs,
    a score is -inf exactly where its count is 0, and the audit lists the
    rare pairs in (source, target) order."""
    vocabulary = data.draw(st.sampled_from([PROPARA, RECIPES]))
    label = st.sampled_from(vocabulary.labels)
    corpus = data.draw(st.lists(st.lists(st.lists(label, max_size=6), max_size=3),
                                min_size=1, max_size=4))
    tracks = [states for grid in corpus for states in grid if states]
    assume(tracks)
    model = estimate([_grid(f"p{i}", {f"e{j}": states for j, states in enumerate(grid)})
                      for i, grid in enumerate(corpus)], vocabulary)

    index, size = vocabulary.index, vocabulary.size
    starts = Counter(index(states[0]) for states in tracks)
    pairs = Counter((index(a), index(b)) for states in tracks for a, b in zip(states, states[1:]))
    assert model.sequence_count == len(tracks)
    assert model.start_counts.tolist() == [starts[i] for i in range(size)]
    assert model.trans_counts.tolist() == [[pairs[i, j] for j in range(size)]
                                           for i in range(size)]
    assert np.array_equal(np.isneginf(model.start_scores), model.start_counts == 0)
    assert np.array_equal(np.isneginf(model.trans_scores), model.trans_counts == 0)
    labels = vocabulary.labels
    assert audit_rare_transitions(model, 3) == [
        (labels[i], labels[j], pairs[i, j]) for i in range(size) for j in range(size)
        if 0 < pairs[i, j] < 3]


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


def _vetoing_model(n_labels, data):
    """A model whose every start and transition is drawn from 0 and -inf."""
    entries = st.sampled_from([-np.inf, 0.0])
    return TransitionModel(
        vocabulary=fuzz_vocabulary(n_labels),
        start_scores=data.draw(st.lists(entries, min_size=n_labels, max_size=n_labels)),
        trans_scores=np.reshape(data.draw(st.lists(
            entries, min_size=n_labels ** 2, max_size=n_labels ** 2)), (n_labels, n_labels)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_a_path_exists_exactly_when_none_needs_a_veto(n_labels, n_steps, data):
    """The least of veto_counts' last row is the fewest -inf starts and
    transitions over all L**T paths, and validate_path_exists holds exactly
    when it is 0."""
    model = _vetoing_model(n_labels, data)
    scores = relaxed_path_scores(np.zeros((n_steps, n_labels)), model)
    fewest = min(vetoes for vetoes, _ in scores.values())
    assert veto_counts(model, n_steps)[-1].min() == fewest
    assert validate_path_exists(model, n_steps) == (fewest == 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_veto_counts_hold_the_fewest_vetoes_at_every_step(n_labels, n_steps, data):
    """Row t of veto_counts holds, for each label q, the fewest -inf starts
    and transitions over all sequences of t + 1 labels that end in q."""
    model = _vetoing_model(n_labels, data)
    counts = veto_counts(model, n_steps)
    assert counts.shape == (n_steps, n_labels)
    for t in range(n_steps):
        fewest = [math.inf] * n_labels
        for path, (vetoes, _) in relaxed_path_scores(np.zeros((t + 1, n_labels)), model).items():
            fewest[path[-1]] = min(fewest[path[-1]], vetoes)
        assert counts[t].tolist() == fewest


def test_integer_arguments_that_are_not_integers_raise_validation_error():
    model = load_model(MODEL_PROPARA)
    for check, value in ((veto_counts, "3"), (veto_counts, True), (validate_path_exists, 2.5),
                         (audit_rare_transitions, None)):
        with pytest.raises(ValidationError, match=f"must be an integer, got {value!r}"):
            check(model, value)


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


def test_model_rejects_scores_that_are_not_numbers():
    # Nor bools or numeric strings, which numpy alone reads as 1.0 and 0.5,
    # and which `load_model` refuses.
    size = PROPARA.size
    start, trans = [0.0] * size, [[0.0] * size] * size
    for bad_start, bad_trans in ((["a"] * size, np.zeros((size, size))),
                                 (np.zeros(size), [[0.0] * size] * (size - 1) + [[0.0]]),
                                 ([True] + start[1:], trans), (["0.5"] + start[1:], trans),
                                 (start, [[np.bool_(False)] * size] + trans[1:]),
                                 (start, [["-inf"] * size] * size),
                                 (np.ones(size, dtype=bool), trans),
                                 (start, np.zeros((size, size), dtype=object))):
        with pytest.raises(ValidationError, match="scores must be arrays of numbers"):
            TransitionModel(PROPARA, bad_start, bad_trans)
    # Ints, floats, -inf and int or float arrays are scores.
    int_trans = np.zeros((size, size), dtype=np.int32)
    int_trans[0, 1] = -1
    model = TransitionModel(PROPARA, [0, -np.inf, 0.5, 1, 2, 3], int_trans)
    assert model.start_scores.dtype == model.trans_scores.dtype == float
    assert model.start_scores.tolist() == [0.0, -np.inf, 0.5, 1.0, 2.0, 3.0]
    assert model.trans_scores[0, 1] == -1.0


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


@pytest.mark.parametrize("kind", [int, np.int64, np.int32])
def test_numpy_integer_counts_save_and_load(tmp_path, kind):
    # A numpy integer count is held as an int, so the model writes as JSON.
    model = load_model(MODEL_PROPARA)
    model = TransitionModel(PROPARA, model.start_scores, model.trans_scores,
                            model.start_counts.astype(kind), model.trans_counts.astype(kind),
                            sequence_count=kind(model.sequence_count))
    assert type(model.sequence_count) is int
    path = tmp_path / "model.json"
    save_model(model, path)
    assert path.read_bytes() == MODEL_PROPARA.read_bytes()
    loaded = load_model(path)
    assert loaded.sequence_count == model.sequence_count
    assert np.array_equal(loaded.trans_counts, model.trans_counts)


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
