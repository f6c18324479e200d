"""Oracles for the scorers: a reference scorer written from the protocols'
definitions, additivity over procedures, and outputs that do not depend on
the order of the input files."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import FIXTURES, reference_scores
from proctrack.cli import EXIT_OK, main
from proctrack.corpus import (NO_LOCATION, PROPARA, RECIPES, SPAN, UNKNOWN_LOCATION,
                              AnnotationGrid, LocationValue, Track)
from proctrack.evaluator import eval_document_level, eval_recipes_locations, eval_sentence_level
from proctrack.synth import make_corpus


def _corrupted(grids, vocabulary, rng, rate):
    """Predictions made from gold: a procedure or an entity is left out at
    `rate` / 4, and each label and place of a kept track is replaced at
    `rate`: by a random label, or by another gold place, a spelling of one
    that matches it, a new place, "-" or "?"."""
    places = sorted({location.text for grid in grids.values() for track in grid.entries.values()
                     for location in track.locations if location.kind == SPAN})
    spellings = [*places, *(p.upper() for p in places), *(f" {p}. " for p in places), "attic"]
    pool = [NO_LOCATION, UNKNOWN_LOCATION, *(LocationValue(SPAN, s) for s in spellings)]
    pred = {}
    for pid, grid in grids.items():
        if rng.random() < rate / 4:
            continue
        entries = {}
        for eid, track in grid.entries.items():
            if rng.random() < rate / 4:
                continue
            states = tuple(vocabulary.labels[rng.integers(vocabulary.size)]
                           if rng.random() < rate else s for s in track.states)
            locations = tuple(pool[rng.integers(len(pool))] if rng.random() < rate else loc
                              for loc in track.locations)
            entries[eid] = Track(states, locations)
        pred[pid] = AnnotationGrid(pid, entries)
    return pred


def _counts(gold, pred, vocabulary):
    """The evaluators' integer counts, in `reference_scores`' layout."""
    sentence = eval_sentence_level(gold, pred)
    changes = None
    if vocabulary.name == "recipes":
        score = eval_recipes_locations(gold, pred, vocabulary)
        changes = (score.n_pred, score.n_gold, score.n_correct)
    return {"document": eval_document_level(gold, pred).counts(),
            "sentence": [(c.n_correct, c.n_scored)
                         for c in (sentence.cat1, sentence.cat2, sentence.cat3)],
            "location_changes": changes}


CORRUPTED = st.tuples(st.sampled_from([PROPARA, RECIPES]), st.integers(1, 6),
                      st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.05, 0.2, 0.6]))


@settings(max_examples=300, deadline=None)
@given(case=CORRUPTED)
def test_evaluator_counts_equal_the_reference_scorer(case):
    vocabulary, n, seed, rate = case
    _, gold = make_corpus(n, vocabulary, seed=seed % 10_000)
    pred = _corrupted(gold, vocabulary, np.random.default_rng(seed), rate)
    assert _counts(gold, pred, vocabulary) == reference_scores(gold, pred, vocabulary)


@settings(max_examples=100, deadline=None)
@given(case=CORRUPTED, parts=st.integers(2, 4), data=st.data())
def test_counts_of_a_split_are_the_sums_over_any_partition_of_its_procedures(case, parts,
                                                                             data):
    vocabulary, n, seed, rate = case
    _, gold = make_corpus(n, vocabulary, seed=seed % 10_000)
    pred = _corrupted(gold, vocabulary, np.random.default_rng(seed), rate)
    part_of = {pid: data.draw(st.integers(0, parts - 1), label=pid) for pid in gold}

    def rows(ids):
        counts = _counts({pid: gold[pid] for pid in ids},
                         {pid: pred[pid] for pid in ids if pid in pred}, vocabulary)
        rows = [*counts["document"], *counts["sentence"], counts["location_changes"] or ()]
        return np.array([count for row in rows for count in row])

    assert (sum(rows([pid for pid in gold if part_of[pid] == part]) for part in range(parts))
            == rows(list(gold))).all()


def _shuffled_inputs(vocab, directory, seed, entities):
    """The fixture corpus and emissions with their records in a random
    order, and with `entities` each record's entity list and gold keys too."""
    rnd = random.Random(seed)
    records = [json.loads(line) for line in
               (FIXTURES / f"corpus_{vocab}.jsonl").read_text().splitlines()]
    rnd.shuffle(records)
    if entities:
        for record in records:
            rnd.shuffle(record["entities"])
            gold = list(record["gold"].items())
            rnd.shuffle(gold)
            record["gold"] = dict(gold)
    lines = (FIXTURES / f"emissions_{vocab}.jsonl").read_text().splitlines()
    rnd.shuffle(lines)
    directory.mkdir()
    (directory / "corpus.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for record in records))
    (directory / "emissions.jsonl").write_text("".join(line + "\n" for line in lines))
    return directory / "corpus.jsonl", directory / "emissions.jsonl"


def _outputs(vocab, corpus, emissions, out):
    """The files `pipeline --relax --per-procedure` and `tune` write."""
    args = ["--corpus", str(corpus), "--vocab", vocab, "--emissions", str(emissions),
            "--model", str(FIXTURES / f"model_{vocab}.json")]
    assert main(["pipeline", *args, "--relax", "--per-procedure", "--out", str(out)]) == EXIT_OK
    assert main(["tune", *args, "--grid", "0.2:1.4:0.3", "--out", str(out / "tune.json")]
                ) == EXIT_OK
    return {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.fixture(scope="module")
def fixture_outputs(tmp_path_factory):
    return {vocab: _outputs(vocab, FIXTURES / f"corpus_{vocab}.jsonl",
                            FIXTURES / f"emissions_{vocab}.jsonl",
                            tmp_path_factory.mktemp(f"{vocab}-out"))
            for vocab in ("propara", "recipes")}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("entities", [False, True], ids=["records", "records-and-entities"])
@pytest.mark.parametrize("vocab", ["propara", "recipes"])
def test_outputs_do_not_depend_on_input_order(tmp_path, fixture_outputs, vocab, entities,
                                              seed):
    corpus, emissions = _shuffled_inputs(vocab, tmp_path / "in", seed, entities)
    shuffled = _outputs(vocab, corpus, emissions, tmp_path / "out")
    expected = fixture_outputs[vocab]
    for name in ("report.json", "report.txt", "tune.json"):
        assert shuffled[name] == expected[name], name
    if not entities:        # each procedure's line holds its entities in corpus order
        assert (sorted(shuffled["predictions.jsonl"].splitlines())
                == sorted(expected["predictions.jsonl"].splitlines()))
