"""Criterion 7: published-corpus statistics, run only when local data exists.

Point these environment variables at local copies of the public files
(either a single file in the block format, or a directory whose files are
concatenated):

    SIDKIT_XSID_TRAIN    the 43k-utterance English training split
    SIDKIT_NOMUSIC_DEV   all dialect/Bokmål development files (3,300 utterances)
    SIDKIT_NOMUSIC_TEST  all dialect/Bokmål test files (5,500 utterances)

Without them the tests are skipped, not failed.
"""

import os
from pathlib import Path

import pytest

from sidkit.corpus import (
    Dataset,
    FormatOptions,
    label_inventory,
    parse_dataset,
    unseen_label_report,
)

OPTIONS = FormatOptions(require_intent=True)


def _load_env_dataset(var: str) -> Dataset | None:
    value = os.environ.get(var)
    if not value:
        return None
    path = Path(value)
    if path.is_dir():
        utterances = []
        for part in sorted(path.iterdir()):
            if part.is_file():
                d = parse_dataset(part.read_text(encoding="utf-8"), OPTIONS, name=part.stem)
                for utt in d.utterances:
                    utterances.append(
                        type(utt)(
                            id=f"{part.stem}:{utt.id}",
                            tokens=utt.tokens,
                            slot_tags=utt.slot_tags,
                            intent=utt.intent,
                            variety=utt.variety or part.stem,
                            raw_text=utt.raw_text,
                        )
                    )
        return Dataset(name=path.name, utterances=tuple(utterances))
    return parse_dataset(path.read_text(encoding="utf-8"), OPTIONS, name=path.stem)


def _require(var: str) -> Dataset:
    dataset = _load_env_dataset(var)
    if dataset is None:
        pytest.skip(f"{var} not set; external data unavailable")
    return dataset


def test_criterion_7_train_inventory():
    train = _require("SIDKIT_XSID_TRAIN")
    inventory = label_inventory(train)
    print(f"criterion 7a: train intents={inventory.num_intents} slots={inventory.num_slot_labels}")
    assert inventory.num_intents == 18
    assert inventory.num_slot_labels == 40


def test_criterion_7_dev_and_test_inventories():
    dev = _require("SIDKIT_NOMUSIC_DEV")
    test = _require("SIDKIT_NOMUSIC_TEST")
    dev_inv = label_inventory(dev)
    test_inv = label_inventory(test)
    print(
        "criterion 7b: "
        f"dev n={dev_inv.utterance_count} intents={dev_inv.num_intents} "
        f"slots={dev_inv.num_slot_labels}; "
        f"test n={test_inv.utterance_count} intents={test_inv.num_intents} "
        f"slots={test_inv.num_slot_labels}"
    )
    assert dev_inv.utterance_count == 3300
    assert test_inv.utterance_count == 5500
    assert dev_inv.num_intents == 15
    assert test_inv.num_intents == 15
    assert dev_inv.num_slot_labels == 33
    assert test_inv.num_slot_labels == 34


def test_criterion_7_unseen_between_dev_and_test():
    dev = _require("SIDKIT_NOMUSIC_DEV")
    test = _require("SIDKIT_NOMUSIC_TEST")
    report = unseen_label_report(label_inventory(dev), label_inventory(test))
    print(
        "criterion 7c: "
        f"unseen intents={len(report.unseen_intents)} "
        f"slots={len(report.unseen_slot_labels)} "
        f"I-tags-with-seen-B={len(report.unseen_i_tags_with_seen_b)}"
    )
    assert len(report.unseen_intents) == 1
    assert len(report.unseen_slot_labels) == 1
    assert len(report.unseen_i_tags_with_seen_b) == 7
