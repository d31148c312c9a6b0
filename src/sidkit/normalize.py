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
(hyphens, digits, ...) never trigger rule 3. Rule 3 matches per character and
case-insensitively; ``İ`` (U+0130, the one code point whose lower case is two
characters) matches as ``I``, so every trace offset indexes the token as it
stood.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass

CONSONANTS = frozenset("bcdfghjklmnpqrstvwxz")
APOSTROPHES = frozenset({"'", "’"})  # ASCII and typographic

_WHITESPACE_SPLIT = re.compile(r"(\s+)")
_APOSTROPHE = re.compile(f"[{''.join(sorted(APOSTROPHES))}]")
# Rule 3's leftmost site: ssjt/ssjk, else a doubled consonant before another
# consonant that does not start ssj or kkj.
_C = "".join(sorted(CONSONANTS))
_CLUSTER = re.compile(rf"ssj[tk]|(?!ssj|kkj)([{_C}])\1(?=[{_C}])")


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


def trace_token(token: str) -> RuleTrace:
    """Normalize one token, recording every rewrite for replay."""
    applied = [RuleApplication("thick-l", i) for i, ch in enumerate(token) if ch == "L"]
    kept = _APOSTROPHE.split(token.replace("L", "l"))  # each apostrophe sits after the text kept before it
    applied += [RuleApplication("apostrophe", end) for end in itertools.accumulate(map(len, kept[:-1]))]
    current = "".join(kept)
    while site := _CLUSTER.search(current.replace("\u0130", "I").lower()):
        rule = "cluster-drop" if site[1] else "cluster-rs" + site[0][3]
        applied.append(RuleApplication(rule, site.start()))
        current = apply_rule(current, rule, site.start())
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
