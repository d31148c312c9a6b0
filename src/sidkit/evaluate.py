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
matches it once per scored mode. Its :class:`EvalReport` is the
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


def _aligned_pairs(gold: Dataset, pred: Dataset) -> list[tuple]:
    if len(gold) == 0:
        raise AlignmentError("cannot evaluate an empty dataset")
    if len(gold) != len(pred):
        raise AlignmentError(f"gold has {len(gold)} utterances, pred has {len(pred)}")
    pred_by_id = pred.by_id()
    pairs = []
    for g in gold.utterances:
        p = pred_by_id.get(g.id)
        if p is None:
            raise AlignmentError(f"utterance id {g.id!r} missing from predictions")
        if len(p) != len(g):
            raise AlignmentError(
                f"utterance {g.id!r}: gold has {len(g)} tokens, pred has {len(p)}"
            )
        pairs.append((g, p))
    return pairs


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


def _spans(where: str, utterances: Iterable[Utterance], repair: RepairPolicy) -> list[list[Span]]:
    """Each utterance's spans; a BioFormatError is raised again naming ``where`` and the utterance."""
    spans = []
    for utt in utterances:
        try:
            spans.append(extract_spans(utt.slot_tags, repair))
        except BioFormatError as exc:
            exc.violation = replace(exc.violation, utterance_id=utt.id)
            exc.args = (f"{where}, utterance {utt.id!r}: {exc}",)
            raise
    return spans


def evaluate(
    gold: Dataset,
    pred: Dataset,
    repair: RepairPolicy = "lenient",
    group_by: Literal["none", "variety"] = "none",
    modes: Sequence[MatchMode] = MODES,
) -> EvalReport:
    """Full report: intent accuracy plus one span PRF for each of ``modes``.

    Each group runs one :func:`span_f1` pass per mode in ``modes`` and no
    other. The default repair policy is lenient so that predictions
    containing stray I-tags are scored rather than rejected. Grouping uses
    the gold utterance's variety; utterances without one, or with an empty
    one, land in the "unknown" group.
    """
    if group_by not in ("none", "variety"):
        raise ValueError(f"unknown group_by {group_by!r}")
    pairs = _aligned_pairs(gold, pred)
    gold_spans = _spans(f"gold dataset {gold.name!r}", (g for g, _ in pairs), repair)
    pred_spans = _spans(f"predicted dataset {pred.name!r}", (p for _, p in pairs), repair)
    hits = [g.intent == p.intent for g, p in pairs]

    buckets: dict[str, list[int]] = {}
    for i, (g, _) in enumerate(pairs):
        key = "all" if group_by == "none" else g.variety or "unknown"
        buckets.setdefault(key, []).append(i)
    groups = {}
    for key, members in buckets.items():
        golds, preds = [gold_spans[i] for i in members], [pred_spans[i] for i in members]
        groups[key] = GroupScores(
            utterance_count=len(members),
            intent_accuracy=sum(hits[i] for i in members) / len(members),
            spans={mode: span_f1(golds, preds, mode) for mode in modes},
        )
    zero = PRF(0, 0, 0)
    return EvalReport(
        utterance_count=len(pairs),
        intent_accuracy=sum(hits) / len(hits),
        spans={mode: sum((s.spans[mode] for s in groups.values()), zero) for mode in modes},
        per_group=groups if group_by == "variety" else {},
    )
