"""Every report ``sidkit evaluate``, ``parse-check``, ``stats`` and ``subword-ratio``
write, every corpus ``sidkit noise`` and ``split`` write, and every text and
trace ``sidkit normalize`` writes, checked through ``cli.main`` against
``bench/reference.py``, which restates parsing, the lenient BIO scan, span
matching, round-half-up counts, WordPiece splitting and the normalization
fixpoint without importing sidkit."""

import json
import re
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


def framings(text):
    """A corpus text with LF line ends, with CRLF, and after a byte order mark."""
    return {"LF": text, "CRLF": text.replace("\n", "\r\n"), "BOM": "\ufeff" + text}


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
    with tempfile.TemporaryDirectory() as tmp:
        infile, out = Path(tmp, "in.conll"), Path(tmp, "report.json")
        for framing, data in framings(text).items():
            infile.write_bytes(data.encode("utf-8"))
            code = main(["parse-check", "--in", str(infile), "--out", str(out)])
            report = json.loads(out.read_text(encoding="utf-8"))
            got = {uid: Counter() for uid in want}
            for detail in report["details"]:
                got[detail["utterance"]][detail["kind"]] += 1
            assert (report["utterances"], report["violations"]) == (len(want), violations), framing
            assert got == want, framing
            assert code == (1 if violations else 0), framing


ALPHABETIC = st.text(alphabet="abæøÅ", min_size=1, max_size=5)
OTHER = st.text(alphabet="ab1.-", min_size=1, max_size=4).filter(lambda w: not w.isalpha())


@st.composite
def noise_corpora(draw):
    """Utterances of alphabetic and other tokens, as dicts the reference parses."""
    utterances = []
    for i in range(draw(st.integers(1, 5))):
        tokens = draw(st.lists(ALPHABETIC | OTHER, min_size=1, max_size=6))
        tags = draw(st.lists(st.sampled_from(TAGS), min_size=len(tokens), max_size=len(tokens)))
        utterances.append({"id": f"u{i}", "intent": "alarm/set", "variety": draw(st.sampled_from(VARIETIES)),
                           "tokens": tokens, "tags": tags})
    return utterances


# Alphabet files: letters and other characters, with at least two letters, so a substitution always has a letter.
ALPHABET_TEXTS = st.text(alphabet="abcæøå1 ", max_size=8).filter(lambda t: len({c for c in t if c.isalpha()}) > 1)


# Fractions that put some counts of up to 6 words on a half (0.5 of 1, 0.7 of 5), and any hundredth.
FRACTIONS = st.sampled_from([0.1, 0.25, 0.5, 0.7, 0.75]) | st.integers(0, 100).map(lambda k: k / 100)


@settings(max_examples=100, deadline=None)
@given(noise_corpora(), FRACTIONS, ALPHABET_TEXTS, st.integers(0, 2**32))
def test_noise_matches_the_reference_in_every_framing(utterances, fraction, alphabet_text, seed):
    alphabet = {ch for ch in alphabet_text if ch.isalpha()}
    text = conll(utterances)
    with tempfile.TemporaryDirectory() as tmp:
        letters, infile = Path(tmp, "alphabet.txt"), Path(tmp, "in.conll")
        letters.write_text(alphabet_text, encoding="utf-8")
        outputs = {}
        for framing, data in framings(text).items():
            infile.write_bytes(data.encode("utf-8"))
            out = Path(tmp, f"{framing}.conll")
            argv = ["noise", "--in", str(infile), "--out", str(out), "--fraction", str(fraction),
                    "--alphabet-from", str(letters), "--seed", str(seed)]
            assert main(argv) == 0, framing
            outputs[framing] = out.read_bytes()
    assert outputs["CRLF"] == outputs["BOM"] == outputs["LF"]
    noised = reference.parse_conll(outputs["LF"].decode("utf-8"))
    assert len(noised) == len(utterances)
    for before, after in zip(utterances, noised):
        assert (before["id"], before["intent"], before["tags"], before["variety"], len(before["tokens"])) == (
            after["id"], after["intent"], after["tags"], after.get("variety"), len(after["tokens"])
        )
        changed = [(x, y) for x, y in zip(before["tokens"], after["tokens"]) if x != y]
        assert len(changed) == reference.round_half_up(fraction, sum(t.isalpha() for t in before["tokens"]))
        for x, y in changed:
            assert x.isalpha() and abs(len(x) - len(y)) <= 1 and set(y) - set(x) <= alphabet, (x, y)


@settings(max_examples=100, deadline=None)
@given(noise_corpora(), st.sets(st.text(alphabet="abæ", min_size=1, max_size=3), max_size=8),
       st.sets(st.text(alphabet="abæ", min_size=1, max_size=3), max_size=4), st.booleans())
def test_subword_ratio_matches_the_reference_in_both_formats(utterances, pieces, continuations, letters_only):
    # No drawn word can be "[UNK]": sidkit counts the unknown token as split, the reference as one piece.
    vocab = {"[UNK]", *pieces, *("##" + piece for piece in continuations)}
    words = [t for u in utterances for t in u["tokens"] if t.isalpha() or not letters_only]
    with tempfile.TemporaryDirectory() as tmp:
        vocab_file, out = Path(tmp, "vocab.txt"), Path(tmp, "ratio.json")
        vocab_file.write_text("\n".join(sorted(vocab)) + "\n", encoding="utf-8")
        inputs = {"text": "\n".join(" ".join(u["tokens"]) for u in utterances), "conll": conll(utterances)}
        for fmt, data in inputs.items():
            infile = Path(tmp, f"in.{fmt}")
            infile.write_text(data, encoding="utf-8")
            argv = ["subword-ratio", "--vocab", str(vocab_file), "--in", str(infile), "--format", fmt,
                    "--out", str(out), *(["--letters-only"] if letters_only else [])]
            if not words:
                assert main(argv) == 1, fmt
                continue
            assert main(argv) == 0, fmt
            assert json.loads(out.read_text(encoding="utf-8"))["split_word_ratio"] == reference.split_ratio(
                vocab, words
            ), fmt


@st.composite
def keyed_corpora(draw):
    """Utterances whose ids ``s<key>-<n>`` share a group key with the ids of one source sentence."""
    keys = draw(st.lists(st.integers(0, 4), min_size=1, max_size=10))
    utterances = []
    for n, key in enumerate(keys):
        length = draw(st.integers(1, 4))
        utterances.append({"id": f"s{key}-{n}", "intent": draw(st.sampled_from(("alarm/set", "vêr/finn"))),
                           "variety": draw(st.sampled_from(VARIETIES)), "tokens": [f"w{j}" for j in range(length)],
                           "tags": draw(st.lists(st.sampled_from(TAGS), min_size=length, max_size=length))})
    return utterances


# Ratios that put some counts of up to 10 utterances on a half (0.5 of 3, 0.25 of 6), and any hundredth.
RATIOS = st.sampled_from([0.1, 0.25, 0.5, 0.7, 0.75]) | st.integers(1, 99).map(lambda k: k / 100)


@settings(max_examples=100, deadline=None)
@given(keyed_corpora(), RATIOS, st.integers(0, 2**32), st.sampled_from(("uniform", "grouped")))
def test_split_matches_the_reference_in_every_framing(utterances, ratio, seed, strategy):
    text = conll(utterances)
    with tempfile.TemporaryDirectory() as tmp:
        infile, out1, out2 = Path(tmp, "in.conll"), Path(tmp, "1.conll"), Path(tmp, "2.conll")
        outputs = {}
        for framing, data in framings(text).items():
            infile.write_bytes(data.encode("utf-8"))
            argv = ["split", "--in", str(infile), "--ratio", str(ratio), "--seed", str(seed),
                    "--strategy", strategy, "--out1", str(out1), "--out2", str(out2)]
            assert main(argv) == 0, framing
            outputs[framing] = (out1.read_bytes(), out2.read_bytes())
    assert outputs["CRLF"] == outputs["BOM"] == outputs["LF"]
    before = reference.parse_conll(text)
    part1, part2 = (reference.parse_conll(part.decode("utf-8")) for part in outputs["LF"])
    first = {u["id"] for u in part1}
    # the parts partition the input, each in its order
    assert part1 == [u for u in before if u["id"] in first]
    assert part2 == [u for u in before if u["id"] not in first]
    target = reference.round_half_up(ratio, len(before))
    if strategy == "uniform":
        assert len(part1) == target
    else:  # whole groups, packed up to the target
        assert len(part1) <= target
        assert not {u["id"].split("-")[0] for u in part1} & {u["id"].split("-")[0] for u in part2}


@settings(max_examples=100, deadline=None)
@given(corpora())
def test_stats_matches_the_reference_in_every_framing(pair):
    text = conll(pair[0])
    utterances = reference.parse_conll(text)
    tags = Counter(tag for u in utterances for tag in u["tags"])
    labels = Counter()
    for tag, count in tags.items():  # the label the reference's scan reads from one tag: B-x and I-x read x
        for _, _, label in reference.scan_bio([tag])[0]:
            labels[label] += count
    intents = Counter(u["intent"] for u in utterances)
    with tempfile.TemporaryDirectory() as tmp:
        infile, out = Path(tmp, "in.conll"), Path(tmp, "stats.json")
        for framing, data in framings(text).items():
            infile.write_bytes(data.encode("utf-8"))
            assert main(["stats", "--in", str(infile), "--out", str(out)]) == 0, framing
            report = json.loads(out.read_text(encoding="utf-8"))
            assert report["utterances"] == len(utterances), framing
            assert (report["intents"], report["slot_labels"], report["full_tags"]) == (intents, labels, tags), framing
            assert (report["num_intents"], report["num_slot_labels"], report["num_full_tags"]) == (
                len(intents), len(labels), len(tags)
            ), framing


# The characters of the benchmark's transcripts: letters (a capital among them), thick L, both apostrophes,
# doubled consonants and the ssj/kkj clusters; every token holds a letter.
TRANSCRIPT_PIECES = ("a", "e", "ø", "å", "b", "k", "n", "s", "t", "S", "L", "'", "’",
                     "kk", "ll", "nn", "ss", "tt", "ssj", "kkj", "nnd")
TRANSCRIPT_TOKENS = st.lists(st.sampled_from(TRANSCRIPT_PIECES), min_size=1, max_size=5).map("".join).filter(
    lambda token: any(ch.isalpha() for ch in token)
)
GAPS = st.sampled_from((" ", "\t", "  ", " \t "))
EDGES = st.just("") | GAPS


@st.composite
def transcripts(draw):
    """Lines of tokens between runs of spaces and tabs; a line without tokens is a blank one."""
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        line = draw(EDGES)
        for i, token in enumerate(draw(st.lists(TRANSCRIPT_TOKENS, max_size=6))):
            line += (draw(GAPS) if i else "") + token
        lines.append(line + draw(EDGES))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(transcripts())
def test_normalize_matches_the_reference_in_every_framing(text):
    with tempfile.TemporaryDirectory() as tmp:
        infile, out, trace = Path(tmp, "in.txt"), Path(tmp, "out.txt"), Path(tmp, "trace.jsonl")
        outputs = {}
        for framing, data in framings(text).items():
            infile.write_bytes(data.encode("utf-8"))
            assert main(["normalize", "--in", str(infile), "--out", str(out), "--trace", str(trace)]) == 0, framing
            outputs[framing] = (out.read_bytes(), trace.read_bytes())
    assert outputs["CRLF"] == outputs["BOM"] == outputs["LF"]
    normalized, traced = (data.decode("utf-8") for data in outputs["LF"])
    before, after = re.split(r"(\s+)", text), re.split(r"(\s+)", normalized)
    # the whitespace between tokens, line ends included, is kept, and so is each token's place
    assert (len(after), after[1::2]) == (len(before), before[1::2])
    for token, output in zip(before[::2], after[::2]):
        assert reference.normalized_fixpoint(output), (token, output)
        if reference.normalized_fixpoint(token):
            assert output == token
    # one trace line per rewritten occurrence, in text order
    records = [json.loads(line) for line in traced.splitlines()]
    assert traced.endswith("\n") or not traced
    assert [(r["input"], r["output"]) for r in records] == [
        (token, output) for token, output in zip(text.split(), normalized.split()) if token != output
    ]
