#!/usr/bin/env python3
"""Convert the public ProPara grid release into corpus files.

Expects the three JSON-lines files from the official release in one
directory:

    grids.v1.train.json  grids.v1.dev.json  grids.v1.test.json

Each input record carries "para_id", "sentence_texts", "participants",
and "states", where states[i] is the length-(T+1) location row for
participant i using "-" (does not exist), "?" (unknown), or a text span.

State labels are not stored in that release; they are derived from each
pair of adjacent location slots:

    -  -> -     outside_before (outside_after once the entity has existed)
    -  -> loc   create
    loc -> -    destroy
    loc -> same exist        (spans compare after normalization)
    loc -> diff move         ("?" counts as a distinct value)

The derived grids satisfy the corpus consistency rules by construction.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from proctrack import cli
from proctrack.corpus import (
    AnnotationGrid,
    Entity,
    LocationValue,
    Procedure,
    Track,
    check_str_list,
    format_stats_table,
    read_records,
    save_corpus,
    split_stats,
)
from proctrack.errors import ValidationError

SPLITS = ("train", "dev", "test")
GRID_FILE = "grids.v1.{split}.json"


def derive_states(locations: tuple[LocationValue, ...]) -> tuple[str, ...]:
    """Map a (T+1)-slot location row to T state labels."""
    states = []
    existed = False
    for before, after in zip(locations, locations[1:]):
        gone_before = before.kind == "nonexistent"
        gone_after = after.kind == "nonexistent"
        if gone_before and gone_after:
            states.append("outside_after" if existed else "outside_before")
            continue
        existed = True
        if gone_before:
            states.append("create")
        elif gone_after:
            states.append("destroy")
        elif after.matches(before):
            states.append("exist")
        else:
            states.append("move")
    return tuple(states)


def _location_row(tokens, para_id: str, participant: str) -> tuple[LocationValue, ...]:
    row = []
    for slot, token in enumerate(tokens):
        if not isinstance(token, str) or not token.strip():
            raise ValidationError(
                f"para {para_id!r}, participant {participant!r}: "
                f"slot {slot} holds an unusable location {token!r}")
        row.append(LocationValue.from_token(token.strip()))
    return tuple(row)


def convert_record(record: dict) -> tuple[Procedure, AnnotationGrid]:
    para_id = record.get("para_id")
    if isinstance(para_id, bool) or not isinstance(para_id, (str, int)):
        raise ValidationError("'para_id' must be a string or an integer")
    para_id = str(para_id).strip()
    if not para_id:
        raise ValidationError("record without a para_id")
    steps = check_str_list(record.get("sentence_texts"), "'sentence_texts'")
    participants = check_str_list(record.get("participants"), "'participants'")
    states = record.get("states")
    if not steps:
        raise ValidationError(f"para {para_id!r}: missing sentence_texts")
    if not participants:
        raise ValidationError(f"para {para_id!r}: missing participants")
    if not isinstance(states, list) or len(states) != len(participants):
        raise ValidationError(
            f"para {para_id!r}: states rows ({0 if not isinstance(states, list) else len(states)})"
            f" do not align with participants ({len(participants)})")

    entities = []
    entries = {}
    seen_ids: set[str] = set()
    for participant, row in zip(participants, states):
        entity_id = " ".join(participant.split())
        # A repeated participant string would collide as an id; qualify it.
        if entity_id in seen_ids:
            k = 2
            while f"{entity_id}#{k}" in seen_ids:
                k += 1
            entity_id = f"{entity_id}#{k}"
        seen_ids.add(entity_id)
        if not isinstance(row, list) or len(row) != len(steps) + 1:
            raise ValidationError(
                f"para {para_id!r}, participant {participant!r}: location row "
                f"must have {len(steps) + 1} slots")
        locations = _location_row(row, para_id, participant)
        entities.append(Entity.from_raw(entity_id, participant))
        entries[entity_id] = Track(states=derive_states(locations),
                                   locations=locations)

    procedure = Procedure(id=para_id, steps=tuple(steps),
                          entities=tuple(entities))
    return procedure, AnnotationGrid(procedure_id=para_id, entries=entries)


def convert_file(in_path: Path, out_path: Path) -> tuple[int, object]:
    """Convert one grid file; returns (procedures written, split stats)."""
    procedures = []
    grids = {}

    def parse(record):
        procedure, grid = convert_record(record)
        procedures.append(procedure)
        grids[procedure.id] = grid

    read_records(in_path, parse)
    save_corpus(procedures, grids, out_path)
    return len(procedures), split_stats(procedures)


def convert(args) -> int:
    """Convert each split named by --splits; every split name and input file
    is checked before --out-dir is made."""
    splits = [s.strip() for s in args.splits.split(",") if s.strip()]
    for split in splits:
        if split not in SPLITS:
            raise ValidationError(f"unknown split {split!r}")
    inputs = {split: Path(args.data_dir) / GRID_FILE.format(split=split) for split in splits}
    for in_path in inputs.values():
        if not in_path.exists():
            raise ValidationError(f"{in_path} not found")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = {}
    for split, in_path in inputs.items():
        out_path = out_dir / f"propara.{split}.jsonl"
        count, rows[split] = convert_file(in_path, out_path)
        print(f"wrote {count} procedures to {out_path}")
    print(format_stats_table(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="convert the public ProPara grid files into corpus files")
    parser.add_argument("--data-dir", required=True,
                        help="directory holding grids.v1.{train,dev,test}.json")
    parser.add_argument("--out-dir", required=True,
                        help="directory for propara.{train,dev,test}.jsonl")
    parser.add_argument("--splits", default=",".join(SPLITS),
                        help="comma-separated subset of train,dev,test")
    return cli.run(convert, parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
