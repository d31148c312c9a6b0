"""Intent accuracy and span-level precision/recall/F1.

Three matching modes, all counted as a maximum one-to-one matching between
predicted and gold spans, micro-averaged over the corpus:

* ``strict``     - equal (start, end, label);
* ``loose``      - same label and at least one shared token;
* ``unlabelled`` - equal (start, end), label ignored.

``loose-unlabelled`` (any token overlap, label ignored) is a fourth mode for
diagnostics, outside the default report. :func:`evaluate` scores only the
modes it is given (the three above by default), so ``sidkit evaluate --mode
X`` runs one matching pass per group, for X alone.

Each side's spans must be disjoint, so in every mode that matching is one
left-to-right sweep over start-sorted spans; the modes differ only in which
pairs of spans match. A side whose spans are already start-sorted and
disjoint, as extracted spans always are, is checked in one linear pass and
not sorted again. :func:`evaluate` extracts every utterance once and
matches it once per scored mode. It reads the predictions once, from a
Dataset or from any iterable of utterances (``corpus.DatasetStream``
parses a file as it is iterated), and keeps of each prediction only its
spans and intent hit, beside the gold dataset. Its :class:`EvalReport` is the
:class:`GroupScores` of the whole corpus plus, when grouped, one per group;
each holds one PRF per scored mode in ``spans``, and group counts sum to the
overall counts. Input errors raise EvalError, a ValueError.

The BIO scan behind extraction classifies each distinct slot tag once and
builds each distinct span once, so equal spans share one ``Span`` object.
Its caches hold at most 1,024 tags and 16,384 spans: about 0.2 MB plus the
tags themselves, and about 3.5 MB, when full.

A strict match is also a loose match and an unlabelled match, so strict F1
can never exceed the other two; loose and unlabelled are not ordered with
respect to each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Iterable, Literal, Mapping, Sequence, get_args

from .corpus import BioFormatError, Dataset, RepairPolicy, Span, Utterance, extract_spans


class EvalError(ValueError):
    """Base class for evaluation input errors."""


class AlignmentError(EvalError):
    """Gold and prediction datasets do not line up."""


class SpanOverlapError(EvalError):
    """Spans within one side of one utterance overlap each other."""


MatchMode = Literal["strict", "loose", "unlabelled", "loose-unlabelled"]
MODES: tuple[MatchMode, ...] = ("strict", "loose", "unlabelled")


@dataclass(frozen=True)
class PRF:
    """Micro-averaged precision/recall/F1 counts.

    Conventions: precision is 1.0 when nothing was predicted, recall is 1.0
    when there is no gold span, and F1 is 0.0 when precision + recall is 0.
    """

    matched: int
    predicted: int
    gold: int

    def __post_init__(self) -> None:
        if self.matched > min(self.predicted, self.gold):
            raise ValueError(
                f"matched={self.matched} exceeds predicted={self.predicted} or gold={self.gold}"
            )
        if min(self.matched, self.predicted, self.gold) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def precision(self) -> float:
        return self.matched / self.predicted if self.predicted else 1.0

    @property
    def recall(self) -> float:
        return self.matched / self.gold if self.gold else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r > 0 else 0.0

    def __add__(self, other: "PRF") -> "PRF":
        return PRF(
            matched=self.matched + other.matched,
            predicted=self.predicted + other.predicted,
            gold=self.gold + other.gold,
        )

    def to_dict(self) -> dict:
        return {
            "matched": self.matched,
            "predicted": self.predicted,
            "gold": self.gold,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


def _check_disjoint(spans: Iterable[Span], side: str) -> Sequence[Span]:
    """The spans sorted by start; raises if any two of them overlap.

    One linear pass returns a list or tuple that is already start-sorted and
    disjoint (what ``extract_spans`` returns) as it is; only other input is
    sorted and checked pair by pair.
    """
    if not isinstance(spans, (list, tuple)):
        spans = list(spans)
    end = 0
    for span in spans:
        if span.start < end:
            break
        end = span.end
    else:
        return spans
    ordered = sorted(spans, key=attrgetter("start"))
    for a, b in zip(ordered, ordered[1:]):
        if b.start < a.end:
            raise SpanOverlapError(f"{side} spans {a} and {b} overlap")
    return ordered


def span_f1(
    gold_spans: Sequence[Sequence[Span]],
    pred_spans: Sequence[Sequence[Span]],
    mode: MatchMode,
) -> PRF:
    """PRF over per-utterance span sets; counts accumulate over the corpus.

    Each utterance is one sweep over both sides' start-sorted spans. Two
    leftmost spans that match are in some maximum matching; otherwise the one
    that ends first matches nothing further right, so the sweep drops it.
    """
    if len(gold_spans) != len(pred_spans):
        raise AlignmentError(f"{len(gold_spans)} gold utterances vs {len(pred_spans)} predicted")
    if mode not in get_args(MatchMode):
        raise ValueError(f"unknown match mode {mode!r}")
    overlap, labelled = mode.startswith("loose"), mode in ("strict", "loose")
    matched = predicted = gold = 0
    for golds, preds in zip(gold_spans, pred_spans):
        golds = _check_disjoint(golds, "gold")
        preds = _check_disjoint(preds, "predicted")
        predicted += len(preds)
        gold += len(golds)
        i = j = 0
        while i < len(preds) and j < len(golds):
            p, g = preds[i], golds[j]
            hit = p.start < g.end and g.start < p.end if overlap else p.start == g.start and p.end == g.end
            if hit and (p.label == g.label or not labelled):
                matched += 1
                i += 1
                j += 1
            elif p.end < g.end:
                i += 1
            else:
                j += 1
    return PRF(matched=matched, predicted=predicted, gold=gold)


@dataclass(frozen=True)
class GroupScores:
    """Scores over one slice of the corpus (a dialect group, or everything)."""

    utterance_count: int
    intent_accuracy: float
    spans: Mapping[MatchMode, PRF]  # one PRF per scored mode, in the order asked for

    def to_dict(self) -> dict:
        return {
            "utterances": self.utterance_count,
            "intent_accuracy": self.intent_accuracy,
            **{mode: prf.to_dict() for mode, prf in self.spans.items()},
        }


@dataclass(frozen=True)
class EvalReport(GroupScores):
    """The scores over the whole corpus, plus one GroupScores per group when grouped."""

    per_group: Mapping[str, GroupScores] = field(default_factory=dict)

    def to_dict(self) -> dict:
        per_group = {k: v.to_dict() for k, v in sorted(self.per_group.items())}
        return {**super().to_dict(), "per_group": per_group}

    def tsv_rows(self) -> list[tuple[str, ...]]:
        header = ("group", "utterances", "intent_accuracy",
                  *(f"{mode}_{x}" for mode in self.spans for x in ("p", "r", "f1")))

        def row(group: str, s: GroupScores) -> tuple[str, ...]:
            return (group, str(s.utterance_count), f"{s.intent_accuracy:.6f}",
                    *(f"{x:.6f}" for prf in s.spans.values() for x in (prf.precision, prf.recall, prf.f1)))

        groups = sorted(self.per_group.items())
        return [header, row("all", self), *(row(group, scores) for group, scores in groups)]


def _spans(where: str, utterance: Utterance, repair: RepairPolicy) -> tuple[Span, ...]:
    """The utterance's spans, as a tuple, which takes half the memory of a short list and none
    when empty; a BioFormatError is raised again naming ``where`` and the utterance."""
    try:
        return tuple(extract_spans(utterance.slot_tags, repair))
    except BioFormatError as exc:
        exc.violation = replace(exc.violation, utterance_id=utterance.id)
        exc.args = (f"{where}, utterance {utterance.id!r}: {exc}",)
        raise


def evaluate(
    gold: Dataset,
    pred: Dataset | Iterable[Utterance],
    repair: RepairPolicy = "lenient",
    group_by: Literal["none", "variety"] = "none",
    modes: Sequence[MatchMode] = MODES,
) -> EvalReport:
    """Full report: intent accuracy plus one span PRF for each of ``modes``.

    ``pred`` is a Dataset or any iterable of utterances, such as a
    ``corpus.DatasetStream``, and is read once: of each prediction only its
    spans and whether its intent is right are kept, so the predictions are
    never held. Each group runs one :func:`span_f1` pass per mode in
    ``modes`` and no other. The default repair policy is lenient so that
    predictions containing stray I-tags are scored rather than rejected.
    Grouping uses the gold utterance's variety; utterances without one, or
    with an empty one, land in the "unknown" group, and groups keep the
    order in which gold first names them.

    Errors wait until ``pred`` is read to its end, so the one raised does
    not depend on the order of the predictions. First comes an error of
    the iteration itself (a ParseError); then an AlignmentError: an id that
    ``pred`` repeats, an empty ``gold``, unequal counts, and the first gold
    utterance, in gold order, whose prediction is missing or has another
    token count; then, under strict repair, the first gold BIO violation
    and the first predicted one, in gold order. An error names the
    predictions by ``pred.name``, or ``''`` when ``pred`` has no name.
    """
    if group_by not in ("none", "variety"):
        raise ValueError(f"unknown group_by {group_by!r}")
    index = {g.id: i for i, g in enumerate(gold.utterances)}
    # per gold utterance: its prediction's spans or strict-repair error, or its token count if it differs
    found: list = [None] * len(gold)
    hits = bytearray(len(gold))
    pred_name = f"predicted dataset {getattr(pred, 'name', '')!r}"
    count, repeated, extra = 0, None, set()
    for p in pred:
        count += 1
        i = index.get(p.id)
        if i is None or found[i] is not None:
            if repeated is None and (i is not None or p.id in extra):
                repeated = p.id
            if i is None:
                extra.add(p.id)
            continue
        g = gold.utterances[i]
        if len(p) != len(g):
            found[i] = len(p)
            continue
        try:
            found[i] = _spans(pred_name, p, repair)
        except BioFormatError as exc:
            found[i] = exc
        hits[i] = g.intent == p.intent

    if repeated is not None:
        raise AlignmentError(f"utterance id {repeated!r} occurs more than once in the predictions")
    if len(gold) == 0:
        raise AlignmentError("cannot evaluate an empty dataset")
    if len(gold) != count:
        raise AlignmentError(f"gold has {len(gold)} utterances, pred has {count}")
    for g, spans in zip(gold.utterances, found):
        if spans is None:
            raise AlignmentError(f"utterance id {g.id!r} missing from predictions")
        if isinstance(spans, int):
            raise AlignmentError(f"utterance {g.id!r}: gold has {len(g)} tokens, pred has {spans}")
    # per group, pair by pair in gold order: the gold spans, the predicted spans and the intent hits
    buckets: dict[str, tuple[list, list, bytearray]] = {}
    gold_name = f"gold dataset {gold.name!r}"
    for g, spans, hit in zip(gold.utterances, found, hits):
        key = "all" if group_by == "none" else g.variety or "unknown"
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = ([], [], bytearray())
        bucket[0].append(_spans(gold_name, g, repair))
        bucket[1].append(spans)
        bucket[2].append(hit)
    error = next((spans for spans in found if isinstance(spans, BioFormatError)), None)
    if error is not None:
        raise error
    groups = {
        key: GroupScores(
            utterance_count=len(group_hits),
            intent_accuracy=sum(group_hits) / len(group_hits),
            spans={mode: span_f1(golds, preds, mode) for mode in modes},
        )
        for key, (golds, preds, group_hits) in buckets.items()
    }
    zero = PRF(0, 0, 0)
    return EvalReport(
        utterance_count=len(gold),
        intent_accuracy=sum(hits) / len(hits),
        spans={mode: sum((s.spans[mode] for s in groups.values()), zero) for mode in modes},
        per_group=groups if group_by == "variety" else {},
    )
