"""Spelling normalization for Norwegian dialectological transcriptions.

Three rewrite rules, applied in order per token:

1. every uppercase ``L`` (the transcription symbol for the retroflex flap)
   becomes ``l``;
2. apostrophes (used to mark syllabic consonants) are deleted;
3. a doubled consonant followed by at least one more consonant loses one of
   the pair (C1C1C2 -> C1C2), except that ``ssjt`` becomes ``rst``, ``ssjk``
   becomes ``rsk``, and clusters starting with ``ssj`` or ``kkj`` are left
   alone. Rule 3 rescans until nothing changes, so stacked clusters like
   ``nnnd`` reduce fully and the whole pass is idempotent.

Vowels (a, e, i, o, u, y, æ, ø, å) and anything outside the consonant set
(hyphens, digits, ...) never trigger rule 3.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

CONSONANTS = frozenset("bcdfghjklmnpqrstvwxz")
APOSTROPHES = frozenset({"'", "’"})  # ASCII and typographic

_WHITESPACE_SPLIT = re.compile(r"(\s+)")


@dataclass(frozen=True)
class RuleApplication:
    """One rewrite: which rule fired and at which character offset.

    Offsets refer to the string as it stood when the rule fired, so a trace
    replays left to right against the evolving token.
    """

    rule: str  # thick-l | apostrophe | cluster-rst | cluster-rsk | cluster-drop
    offset: int


@dataclass(frozen=True)
class RuleTrace:
    input: str
    output: str
    applied: tuple[RuleApplication, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "input": self.input,
                "output": self.output,
                "applied": [{"rule": a.rule, "offset": a.offset} for a in self.applied],
            },
            ensure_ascii=False,
        )


def _match_case(replacement: str, templates: str) -> str:
    """Copy per-character case from the matched letters onto the replacement."""
    return "".join(
        rep.upper() if tpl.isupper() else rep for rep, tpl in zip(replacement, templates)
    )


def apply_rule(token: str, rule: str, offset: int) -> str:
    """Replay a single traced rewrite at its recorded offset."""
    if rule == "thick-l":
        return token[:offset] + "l" + token[offset + 1 :]
    if rule == "apostrophe":
        return token[:offset] + token[offset + 1 :]
    if rule in ("cluster-rst", "cluster-rsk"):  # ssjt -> rst, ssjk -> rsk
        templates = token[offset] + token[offset + 1] + token[offset + 3]
        return token[:offset] + _match_case(rule[-3:], templates) + token[offset + 4 :]
    if rule == "cluster-drop":
        return token[:offset] + token[offset + 1 :]  # drop the first of the pair
    raise ValueError(f"unknown rule {rule!r}")


def _rule3_step(token: str) -> tuple[str, RuleApplication] | None:
    """Leftmost doubled-consonant rewrite, or None if the token is stable."""
    lowered = token.lower()
    for i in range(len(token) - 2):
        a, b, c = lowered[i], lowered[i + 1], lowered[i + 2]
        if a not in CONSONANTS or a != b or c not in CONSONANTS:
            continue
        window4 = lowered[i : i + 4]
        if window4 == "ssjt":
            app = RuleApplication("cluster-rst", i)
        elif window4 == "ssjk":
            app = RuleApplication("cluster-rsk", i)
        elif lowered[i : i + 3] in ("ssj", "kkj"):
            continue  # protected cluster, keep scanning to the right
        else:
            app = RuleApplication("cluster-drop", i)
        return apply_rule(token, app.rule, app.offset), app
    return None


def trace_token(token: str) -> RuleTrace:
    """Normalize one token, recording every rewrite for replay."""
    applied: list[RuleApplication] = []
    current = token

    i = 0
    while i < len(current):
        if current[i] == "L":
            applied.append(RuleApplication("thick-l", i))
            current = apply_rule(current, "thick-l", i)
        i += 1

    i = 0
    while i < len(current):
        if current[i] in APOSTROPHES:
            applied.append(RuleApplication("apostrophe", i))
            current = apply_rule(current, "apostrophe", i)
        else:
            i += 1

    while True:
        step = _rule3_step(current)
        if step is None:
            break
        current, app = step
        applied.append(app)

    return RuleTrace(input=token, output=current, applied=tuple(applied))


def replay_trace(trace: RuleTrace) -> str:
    """Re-derive the output from the input and the recorded applications."""
    current = trace.input
    for app in trace.applied:
        current = apply_rule(current, app.rule, app.offset)
    return current


def normalize_token(token: str) -> str:
    return trace_token(token).output


def normalize_text(text: str) -> str:
    """Normalize each whitespace-delimited token; whitespace kept verbatim.

    Each distinct token is traced once per call, however often it occurs.
    """
    parts = _WHITESPACE_SPLIT.split(text)  # token, whitespace, token, ...; edge tokens may be ""
    outputs = {"": ""}
    for token in parts[::2]:
        if token not in outputs:
            outputs[token] = trace_token(token).output
    parts[::2] = [outputs[token] for token in parts[::2]]
    return "".join(parts)
