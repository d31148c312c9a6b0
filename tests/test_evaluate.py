import importlib
import json
import random

import pytest

from conftest import random_bio_tags, random_corpus
from sidkit.corpus import (
    BioFormatError,
    Dataset,
    Span,
    Utterance,
    extract_spans,
    parse_dataset,
    write_dataset,
)
from sidkit.evaluate import (
    MODES,
    PRF,
    AlignmentError,
    SpanOverlapError,
    evaluate,
    span_f1,
)


# ---------------------------------------------------------------------------
# Oracle: maximum one-to-one matching by exhaustive enumeration
# ---------------------------------------------------------------------------


def match_predicate(mode):
    def overlap(p, g):
        return p.start < g.end and g.start < p.end

    return {
        "strict": lambda p, g: p == g,
        "loose": lambda p, g: p.label == g.label and overlap(p, g),
        "unlabelled": lambda p, g: (p.start, p.end) == (g.start, g.end),
        "loose-unlabelled": overlap,
    }[mode]


def bruteforce_max_matching(preds, golds, mode):
    """Try every assignment of predicted spans to distinct gold spans."""
    predicate = match_predicate(mode)
    best = 0

    def recurse(i, used, count):
        nonlocal best
        best = max(best, count)
        if i == len(preds):
            return
        recurse(i + 1, used, count)
        for j, gold in enumerate(golds):
            if j not in used and predicate(preds[i], gold):
                recurse(i + 1, used | {j}, count + 1)

    recurse(0, frozenset(), 0)
    return best


def bruteforce_prf(gold_spans, pred_spans, mode):
    matched = sum(
        bruteforce_max_matching(p, g, mode) for g, p in zip(gold_spans, pred_spans)
    )
    return PRF(
        matched=matched,
        predicted=sum(len(p) for p in pred_spans),
        gold=sum(len(g) for g in gold_spans),
    )


# ---------------------------------------------------------------------------
# PRF conventions
# ---------------------------------------------------------------------------


def test_prf_zero_conventions():
    empty = PRF(matched=0, predicted=0, gold=0)
    assert empty.precision == 1.0
    assert empty.recall == 1.0
    assert empty.f1 == 1.0
    nothing_found = PRF(matched=0, predicted=0, gold=3)
    assert nothing_found.precision == 1.0
    assert nothing_found.recall == 0.0
    assert nothing_found.f1 == 0.0
    all_wrong = PRF(matched=0, predicted=4, gold=3)
    assert all_wrong.f1 == 0.0


def test_prf_rejects_impossible_counts():
    with pytest.raises(ValueError):
        PRF(matched=3, predicted=2, gold=5)


# ---------------------------------------------------------------------------
# span_f1
# ---------------------------------------------------------------------------


def test_identical_spans_are_perfect_in_every_mode():
    spans = [[Span(0, 2, "a"), Span(3, 5, "b")], [Span(1, 2, "a")]]
    for mode in MODES:
        assert span_f1(spans, spans, mode).f1 == 1.0


def test_partial_overlap_distinguishes_modes():
    gold = [[Span(0, 3, "datetime")]]
    pred = [[Span(1, 3, "datetime")]]
    assert span_f1(gold, pred, "strict").f1 == 0.0
    assert span_f1(gold, pred, "loose").f1 == 1.0
    assert span_f1(gold, pred, "unlabelled").f1 == 0.0


def test_wrong_label_distinguishes_modes():
    gold = [[Span(0, 2, "a")]]
    pred = [[Span(0, 2, "b")]]
    assert span_f1(gold, pred, "strict").f1 == 0.0
    assert span_f1(gold, pred, "loose").f1 == 0.0
    assert span_f1(gold, pred, "unlabelled").f1 == 1.0


def test_loose_matching_is_one_to_one():
    # one long prediction overlaps two golds: it may consume only one
    gold = [[Span(0, 2, "a"), Span(3, 5, "a")]]
    pred = [[Span(0, 5, "a")]]
    prf = span_f1(gold, pred, "loose")
    assert prf.matched == 1
    assert prf.predicted == 1
    assert prf.gold == 2


def test_loose_matching_finds_augmenting_path():
    # greedy left-to-right could match pred1 to gold1 and strand pred2;
    # maximum matching must pair both.
    gold = [[Span(0, 2, "a"), Span(2, 4, "a")]]
    pred = [[Span(1, 3, "a"), Span(0, 1, "a")]]
    assert span_f1(gold, pred, "loose").matched == 2


def test_overlapping_spans_within_one_side_rejected():
    with pytest.raises(SpanOverlapError):
        span_f1([[Span(0, 3, "a"), Span(2, 4, "b")]], [[]], "strict")
    with pytest.raises(SpanOverlapError):
        span_f1([[]], [[Span(0, 3, "a"), Span(2, 4, "b")]], "strict")


def test_overlap_rejected_in_unsorted_input():
    overlapping = [[Span(4, 6, "a"), Span(0, 2, "b"), Span(1, 3, "a")]]
    for mode in MODES + ("loose-unlabelled",):
        with pytest.raises(SpanOverlapError):
            span_f1(overlapping, [[]], mode)
        with pytest.raises(SpanOverlapError):
            span_f1([[]], overlapping, mode)


def test_unsorted_input_scores_like_sorted():
    rng = random.Random(13)
    labels = ["a", "b"]
    for _ in range(100):
        gold = extract_spans(random_bio_tags(rng, 12, labels))
        pred = extract_spans(random_bio_tags(rng, 12, labels))
        for mode in MODES + ("loose-unlabelled",):
            assert span_f1([gold[::-1]], [pred[::-1]], mode) == span_f1([gold], [pred], mode)


def sort_then_check(spans, side):
    """Reference for the disjointness check: sort every side by start, then
    compare each pair of neighbours."""
    ordered = sorted(spans, key=lambda span: span.start)
    for a, b in zip(ordered, ordered[1:]):
        if b.start < a.end:
            raise SpanOverlapError(f"{side} spans {a} and {b} overlap")
    return ordered


ONE_SIDE = {
    "sorted-disjoint": [Span(0, 2, "a"), Span(3, 4, "b"), Span(5, 7, "a")],
    "touching": [Span(0, 2, "a"), Span(2, 4, "b"), Span(4, 5, "a")],
    "unsorted-disjoint": [Span(5, 7, "a"), Span(0, 2, "a"), Span(2, 4, "b")],
    "sorted-overlapping": [Span(0, 3, "a"), Span(2, 4, "b"), Span(5, 6, "a")],
}
CONTAINERS = {"list": list, "tuple": tuple, "generator": lambda spans: (span for span in spans)}


@pytest.mark.parametrize("container", CONTAINERS)
@pytest.mark.parametrize("case", ONE_SIDE)
def test_disjoint_check_scores_or_rejects_like_sort_then_check(case, container):
    spans, other = ONE_SIDE[case], [Span(0, 2, "a"), Span(2, 3, "a"), Span(5, 7, "b")]
    wrap = CONTAINERS[container]
    for side, gold, pred in (("gold", spans, other), ("predicted", other, spans)):
        for mode in MODES + ("loose-unlabelled",):
            try:
                sort_then_check(spans, side)
            except SpanOverlapError as expected:
                with pytest.raises(SpanOverlapError) as raised:
                    span_f1([wrap(gold)], [wrap(pred)], mode)
                assert str(raised.value) == str(expected)
            else:
                assert span_f1([wrap(gold)], [wrap(pred)], mode) == bruteforce_prf([gold], [pred], mode)


def test_span_f1_matches_bruteforce_on_random_pairs():
    rng = random.Random(99)

    def spans(n, labels):
        """Well-formed spans, or lenient ones from any mix of O, B- and I- tags, in either order."""
        if rng.random() < 0.5:
            tags = random_bio_tags(rng, n, labels)
        else:  # stray I- tags: a lenient span also ends where an I-label-mismatch starts one
            tags = [rng.choice(["O", *(f"{bi}-{label}" for bi in "BI" for label in labels)]) for _ in range(n)]
        found = extract_spans(tags, "lenient")
        return found[::-1] if rng.random() < 0.5 else found

    for _ in range(2000):
        labels = ["a", "b", "c", "d"][: rng.randint(1, 4)]
        n = rng.randint(1, 14)
        gold, pred = [spans(n, labels)], [spans(n, labels)]
        for mode in MODES + ("loose-unlabelled",):
            ours = span_f1(gold, pred, mode)
            oracle = bruteforce_prf(gold, pred, mode)
            assert ours == oracle, (gold, pred, mode)


def test_strict_never_beats_loose_or_unlabelled():
    rng = random.Random(7)
    labels = ["a", "b", "c"]
    gold, pred = [], []
    for _ in range(200):
        n = rng.randint(1, 10)
        gold.append(extract_spans(random_bio_tags(rng, n, labels)))
        pred.append(extract_spans(random_bio_tags(rng, n, labels)))
    strict = span_f1(gold, pred, "strict")
    loose = span_f1(gold, pred, "loose")
    unlabelled = span_f1(gold, pred, "unlabelled")
    assert strict.matched <= loose.matched
    assert strict.matched <= unlabelled.matched
    assert strict.f1 <= loose.f1
    assert strict.f1 <= unlabelled.f1


def test_swapping_sides_swaps_precision_and_recall():
    rng = random.Random(21)
    labels = ["a", "b"]
    gold, pred = [], []
    for _ in range(100):
        n = rng.randint(1, 8)
        gold.append(extract_spans(random_bio_tags(rng, n, labels)))
        pred.append(extract_spans(random_bio_tags(rng, n, labels)))
    for mode in MODES:
        forward = span_f1(gold, pred, mode)
        backward = span_f1(pred, gold, mode)
        assert forward.matched == backward.matched
        assert forward.precision == backward.recall
        assert forward.recall == backward.precision
        assert forward.f1 == backward.f1


def test_micro_average_identity():
    rng = random.Random(31)
    labels = ["a", "b"]
    corpus_a = [extract_spans(random_bio_tags(rng, 8, labels)) for _ in range(50)]
    corpus_b = [extract_spans(random_bio_tags(rng, 8, labels)) for _ in range(50)]
    pred_a = [extract_spans(random_bio_tags(rng, 8, labels)) for _ in range(50)]
    pred_b = [extract_spans(random_bio_tags(rng, 8, labels)) for _ in range(50)]
    for mode in MODES:
        separate = span_f1(corpus_a, pred_a, mode) + span_f1(corpus_b, pred_b, mode)
        joined = span_f1(corpus_a + corpus_b, pred_a + pred_b, mode)
        assert separate == joined


# ---------------------------------------------------------------------------
# intent accuracy and full evaluation
# ---------------------------------------------------------------------------


def _utt(i, intent, tags=("O",), variety=None):
    return Utterance(
        id=str(i), tokens=("t",) * len(tags), slot_tags=tuple(tags), intent=intent,
        variety=variety,
    )


def test_intent_accuracy_exact_match():
    gold = Dataset(name="g", utterances=(_utt(0, "a"), _utt(1, "b"), _utt(2, "c"), _utt(3, "d")))
    pred = Dataset(name="p", utterances=(_utt(0, "a"), _utt(1, "b"), _utt(2, "c"), _utt(3, "x")))
    assert evaluate(gold, gold).intent_accuracy == 1.0
    assert evaluate(gold, pred).intent_accuracy == 0.75


def test_intent_accuracy_is_case_sensitive():
    gold = Dataset(name="g", utterances=(_utt(0, "Reminder"), _utt(1, "a"), _utt(2, "b")))
    pred = Dataset(name="p", utterances=(_utt(0, "reminder"), _utt(1, "a"), _utt(2, "b")))
    assert evaluate(gold, pred).intent_accuracy == pytest.approx(2 / 3)


def test_alignment_errors():
    gold = Dataset(name="g", utterances=(_utt(0, "a"), _utt(1, "b")))
    shorter = Dataset(name="p", utterances=(_utt(0, "a"),))
    with pytest.raises(AlignmentError):
        evaluate(gold, shorter)
    different_ids = Dataset(name="p", utterances=(_utt(0, "a"), _utt(9, "b")))
    with pytest.raises(AlignmentError):
        evaluate(gold, different_ids)
    different_lengths = Dataset(
        name="p", utterances=(_utt(0, "a"), _utt(1, "b", tags=("O", "O")))
    )
    with pytest.raises(AlignmentError):
        evaluate(gold, different_lengths)


def test_evaluate_against_itself_is_perfect():
    rng = random.Random(4)
    gold = random_corpus(rng, 40, ["a", "b"], varieties=["north", "west"])
    report = evaluate(gold, gold, group_by="variety")
    assert report.intent_accuracy == 1.0
    assert report.strict.f1 == 1.0
    assert report.loose.f1 == 1.0
    assert report.unlabelled.f1 == 1.0
    assert report.utterance_count == 40


def test_grouped_counts_sum_to_overall():
    rng = random.Random(11)
    gold = random_corpus(rng, 60, ["a", "b"], varieties=["north", "west", "bokmål"])
    pred = Dataset(
        name="pred",
        utterances=tuple(
            Utterance(
                id=u.id, tokens=u.tokens,
                slot_tags=tuple(random_bio_tags(rng, len(u.tokens), ["a", "b"])),
                intent=rng.choice(["intent/a", "intent/b"]), variety=u.variety,
            )
            for u in gold.utterances
        ),
    )
    report = evaluate(gold, pred, group_by="variety")
    assert set(report.per_group) == {"north", "west", "bokmål"}
    for mode in MODES:
        overall = getattr(report, mode)
        total = PRF(0, 0, 0)
        for scores in report.per_group.values():
            total = total + getattr(scores, mode)
        assert total == overall
    assert sum(s.utterance_count for s in report.per_group.values()) == report.utterance_count
    acc = sum(
        s.intent_accuracy * s.utterance_count for s in report.per_group.values()
    ) / report.utterance_count
    assert acc == pytest.approx(report.intent_accuracy)


ALL_MODES = ("strict", "loose", "unlabelled", "loose_unlabelled")


def _gold_and_noisy_pred(seed, size=60):
    rng = random.Random(seed)
    gold = random_corpus(rng, size, ["a", "b"], varieties=["north", "west", "bokmål"])
    pred = Dataset(
        name="pred",
        utterances=tuple(
            Utterance(
                id=u.id, tokens=u.tokens,
                slot_tags=tuple(random_bio_tags(rng, len(u.tokens), ["a", "b"])),
                intent=rng.choice(["intent/a", "intent/b"]), variety=u.variety,
            )
            for u in gold.utterances
        ),
    )
    return gold, pred


@pytest.mark.parametrize("group_by", ["none", "variety"])
def test_evaluate_scans_each_side_once(monkeypatch, group_by):
    corpus = importlib.import_module("sidkit.corpus")
    scan = corpus._scan_tags
    calls = []

    def counting_scan(*args, **kwargs):
        calls.append(None)
        return scan(*args, **kwargs)

    monkeypatch.setattr(corpus, "_scan_tags", counting_scan)
    gold, pred = _gold_and_noisy_pred(3)
    evaluate(gold, pred, group_by=group_by)
    assert len(calls) == 2 * len(gold)


def test_grouped_and_ungrouped_agree_in_every_mode():
    gold, pred = _gold_and_noisy_pred(17)
    flat = evaluate(gold, pred)
    grouped = evaluate(gold, pred, group_by="variety")
    assert flat.per_group == {}
    assert grouped.intent_accuracy == flat.intent_accuracy
    gold_spans = [extract_spans(u.slot_tags, "lenient") for u in gold]
    pred_spans = [extract_spans(u.slot_tags, "lenient") for u in pred]
    for mode in ALL_MODES:
        assert getattr(grouped, mode) == getattr(flat, mode)
        assert getattr(flat, mode) == span_f1(gold_spans, pred_spans, mode.replace("_", "-"))
        summed = sum((getattr(s, mode) for s in grouped.per_group.values()), PRF(0, 0, 0))
        assert summed == getattr(grouped, mode)


def test_loose_unlabelled_left_out_of_reports():
    gold, pred = _gold_and_noisy_pred(23, size=10)
    report = evaluate(gold, pred, group_by="variety")
    assert "loose_unlabelled" not in json.dumps(report.to_dict())
    assert not any("loose_unlabelled" in cell for row in report.tsv_rows() for cell in row)


def test_crlf_predictions_score_like_lf():
    gold, pred = _gold_and_noisy_pred(29, size=20)
    gold_text, pred_text = write_dataset(gold), write_dataset(pred)
    lf = evaluate(parse_dataset(gold_text), parse_dataset(pred_text))
    crlf = evaluate(parse_dataset(gold_text), parse_dataset(pred_text.replace("\n", "\r\n")))
    assert crlf == lf
    assert evaluate(parse_dataset(gold_text), parse_dataset(gold_text.replace("\n", "\r\n"))).strict.f1 == 1.0


@pytest.mark.parametrize("group_by", ["none", "variety"])
def test_strict_repair_raises_through_evaluate(group_by):
    gold = Dataset(name="g", utterances=(_utt(0, "a", tags=("B-x", "I-x"), variety="north"),))
    pred = Dataset(name="p", utterances=(_utt(0, "a", tags=("B-x", "I-y"), variety="north"),))
    with pytest.raises(BioFormatError, match="^predicted dataset 'p', utterance '0': BIO violation"):
        evaluate(gold, pred, repair="strict", group_by=group_by)
    with pytest.raises(BioFormatError, match="^gold dataset 'p', utterance '0': BIO violation") as exc:
        evaluate(pred, gold, repair="strict", group_by=group_by)
    assert exc.value.violation.utterance_id == "0"


def test_evaluate_lenient_repair_handles_stray_i_tags():
    gold = Dataset(name="g", utterances=(_utt(0, "a", tags=("B-x", "I-x")),))
    pred = Dataset(name="p", utterances=(_utt(0, "a", tags=("O", "I-x")),))
    report = evaluate(gold, pred, repair="lenient")
    assert report.strict.predicted == 1
    from sidkit.corpus import BioFormatError

    with pytest.raises(BioFormatError):
        evaluate(gold, pred, repair="strict")


def test_report_serialization_round_trip():
    gold = Dataset(name="g", utterances=(_utt(0, "a", tags=("B-x",), variety="north"),))
    report = evaluate(gold, gold, group_by="variety")
    parsed = json.loads(json.dumps(report.to_dict()))
    assert parsed["intent_accuracy"] == 1.0
    assert parsed["per_group"]["north"]["strict"]["f1"] == 1.0
    rows = report.tsv_rows()
    assert rows[0][0] == "group"
    assert len(rows) == 3  # header, all, north
