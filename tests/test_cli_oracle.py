"""Every report ``sidkit evaluate`` and ``sidkit parse-check`` write, checked
through ``cli.main`` against ``bench/reference.py``, which restates parsing,
the lenient BIO scan and span matching without importing sidkit."""

import json
import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_bench
from sidkit.cli import main

reference = load_bench("reference")

STANDARD = ("strict", "loose", "unlabelled")
MODES = (*STANDARD, "loose-unlabelled")
# Well-formed tags, and ones the lenient scan repairs: a stray I-, a label swap, malformed tags.
TAGS = ("O", "B-a", "I-a", "B-b", "I-b", "B-", "I-", "X", "b-a")
VARIETIES = (None, "", "bokmål", "nord-ø", "vest")


@st.composite
def corpora(draw):
    """A gold and a predicted corpus, as dicts the reference parses, with the
    predictions in another order: the two are aligned by id."""
    n = draw(st.integers(1, 6))
    gold, pred = [], []
    for i in range(n):
        length = draw(st.integers(1, 6))
        tags = st.lists(st.sampled_from(TAGS), min_size=length, max_size=length)
        intents = st.sampled_from(("alarm/set", "vêr/finn"))
        tokens = [f"w{j}" for j in range(length)]
        gold.append({"id": f"u{i}", "intent": draw(intents), "variety": draw(st.sampled_from(VARIETIES)),
                     "tokens": tokens, "tags": draw(tags)})
        pred.append({"id": f"u{i}", "intent": draw(intents), "variety": None, "tokens": tokens, "tags": draw(tags)})
    return gold, draw(st.permutations(pred))


def conll(utterances):
    blocks = []
    for u in utterances:
        comments = f"# id: {u['id']}\n# intent: {u['intent']}\n"
        if u["variety"] is not None:
            comments += f"# variety: {u['variety']}\n"
        blocks.append(comments + "".join(f"{t}\t{tag}\n" for t, tag in zip(u["tokens"], u["tags"])))
    return "\n".join(blocks)


def prf(counts):
    """Precision, recall and F1 of (matched, predicted, gold), by the README's conventions."""
    matched, predicted, gold = counts
    p = matched / predicted if predicted else 1.0
    r = matched / gold if gold else 1.0
    return p, r, 2 * p * r / (p + r) if p + r > 0 else 0.0


def expected_scores(want, modes):
    """The JSON scores of one group, from its reference counts."""
    scores = {"utterances": want["utterances"], "intent_accuracy": want["intent_matches"] / want["utterances"]}
    for mode in modes:
        p, r, f1 = prf(want[mode])
        matched, predicted, gold = want[mode]
        scores[mode] = {"matched": matched, "predicted": predicted, "gold": gold,
                        "precision": p, "recall": r, "f1": f1}
    return scores


def expected_rows(want, groups, modes):
    """The TSV report, from the reference counts of each group."""
    rows = [["group", "utterances", "intent_accuracy", *(f"{m}_{x}" for m in modes for x in ("p", "r", "f1"))]]
    for group in ["all", *groups]:
        w = want[group]
        rows.append([group, str(w["utterances"]), f"{w['intent_matches'] / w['utterances']:.6f}",
                     *(f"{x:.6f}" for m in modes for x in prf(w[m]))])
    return "".join("\t".join(row) + "\n" for row in rows)


def restricted(report, modes):
    """A JSON report with the span scores of ``modes`` alone, in every group."""
    kept = {k: v for k, v in report.items() if k in ("utterances", "intent_accuracy", *modes)}
    if "per_group" in report:
        kept["per_group"] = {group: restricted(scores, modes) for group, scores in report["per_group"].items()}
    return kept


@settings(max_examples=200, deadline=None)
@given(corpora())
def test_every_evaluate_report_matches_the_reference(pair):
    gold, pred = pair
    want = reference.span_counts(gold, pred, MODES)
    groups = sorted(k for k in want if k != "all")
    with tempfile.TemporaryDirectory() as tmp:
        gold_file, pred_file, out = Path(tmp, "gold.conll"), Path(tmp, "pred.conll"), Path(tmp, "report")
        gold_file.write_text(conll(gold), encoding="utf-8")
        pred_file.write_text(conll(pred), encoding="utf-8")

        def run(mode, group_by, report):
            argv = ["evaluate", "--gold", str(gold_file), "--pred", str(pred_file),
                    "--mode", mode, "--group-by", group_by, "--report", report, "--out", str(out)]
            assert main(argv) == 0
            return out.read_text(encoding="utf-8")

        for group_by, per_group in (("none", []), ("variety", groups)):
            reports = {}
            for mode in ("all", *MODES):
                modes = STANDARD if mode == "all" else (mode,)
                reports[mode] = json.loads(run(mode, group_by, "json"))
                assert reports[mode] == {
                    **expected_scores(want["all"], modes),
                    "per_group": {group: expected_scores(want[group], modes) for group in per_group},
                }, (mode, group_by)
                assert run(mode, group_by, "tsv") == expected_rows(want, per_group, modes), (mode, group_by)
            for mode in MODES:  # --mode X is --mode all with mode X alone
                kept = (mode,) if mode in STANDARD else ()
                assert restricted(reports[mode], kept) == restricted(reports["all"], kept)


@settings(max_examples=100, deadline=None)
@given(corpora())
def test_parse_check_matches_the_reference_in_every_framing(pair):
    text = conll(pair[0])
    want = {u["id"]: reference.scan_bio(u["tags"])[1] for u in reference.parse_conll(text)}
    violations = sum(sum(kinds.values()) for kinds in want.values())
    framings = {"LF": text, "CRLF": text.replace("\n", "\r\n"), "BOM": "\ufeff" + text}
    with tempfile.TemporaryDirectory() as tmp:
        infile, out = Path(tmp, "in.conll"), Path(tmp, "report.json")
        for framing, data in framings.items():
            infile.write_bytes(data.encode("utf-8"))
            code = main(["parse-check", "--in", str(infile), "--out", str(out)])
            report = json.loads(out.read_text(encoding="utf-8"))
            got = {uid: Counter() for uid in want}
            for detail in report["details"]:
                got[detail["utterance"]][detail["kind"]] += 1
            assert (report["utterances"], report["violations"]) == (len(want), violations), framing
            assert got == want, framing
            assert code == (1 if violations else 0), framing
