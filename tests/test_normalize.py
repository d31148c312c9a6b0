import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_bench
from sidkit.normalize import (
    APOSTROPHES,
    normalize_text,
    normalize_token,
    replay_trace,
    trace_token,
)

RULE_FIXTURES = {
    "soL": "sol",
    "vat'n": "vatn",
    "bakkst": "bakst",
    "fossjk": "forsk",
    "hassjt": "harst",
    "issjn": "issjn",
    "kattne": "katne",
    "İssjt": "İrst",  # U+0130 lower-cases to two characters, yet matches as one I
    "İnnd": "İnd",
}

reference = load_bench("reference")


@pytest.mark.parametrize("source,expected", sorted(RULE_FIXTURES.items()))
def test_rule_fixtures(source, expected):
    assert normalize_token(source) == expected


def test_thick_l_only_uppercase():
    assert normalize_token("soL") == "sol"
    assert normalize_token("sol") == "sol"
    assert normalize_token("LoLa") == "lola"


def test_all_apostrophe_variants_removed():
    for apostrophe in APOSTROPHES:
        assert apostrophe not in normalize_token(f"vat{apostrophe}n")


def test_cluster_rules_case_insensitive_with_case_kept():
    assert normalize_token("HASSJT") == "HARST"
    assert normalize_token("Bakkst") == "Bakst"
    assert normalize_token("FOSSJK") == "FORSK"
    assert normalize_token("KATTNE") == "KATNE"


def test_kkj_protected():
    assert normalize_token("ikkje") == "ikkje"


def test_stacked_clusters_reduce_to_fixpoint():
    assert normalize_token("kannnde") == "kande"
    assert normalize_token("fjellldal") == "fjeldal"


def test_cluster_requires_following_consonant():
    assert normalize_token("katt") == "katt"  # word-final double consonant kept
    assert normalize_token("kattea") == "kattea"  # vowel follows, kept


def test_hyphen_is_not_a_consonant():
    assert normalize_token("katt-ne") == "katt-ne"


def test_vowels_never_rewritten():
    assert normalize_token("haaard") == "haaard"


def test_rewrite_created_cluster_is_reduced():
    # ssjt -> rst can abut a preceding r; the fixpoint pass must clean it up.
    assert normalize_token("arssjt") == "arst"


def test_normalize_text_preserves_whitespace():
    assert normalize_text("") == ""
    assert normalize_text("vat'n  soL\n") == "vatn  sol\n"
    assert normalize_text("a\tb\nc") == "a\tb\nc"


# Mixed whitespace (tabs, CRLF, no-break space), repeated tokens, apostrophes
# of both kinds and uppercase L.
REPEATED_TEXT = (
    "vat'n  soL\r\nbakkst vat'n\tsoL  soL\r\n\r\n issjn L'aLLkst bakkst’ vat'n"
    " \u00a0 hassjt\n  kattne kattne katt\r\n"
)


def normalize_per_token(text):
    """Oracle: the per-token loop, tracing every occurrence."""
    parts = re.split(r"(\s+)", text)
    return "".join(part if part.isspace() or not part else trace_token(part).output for part in parts)


def test_normalize_text_matches_per_token_loop():
    for text in ("", " ", "soL", "\tsoL vat'n\n", REPEATED_TEXT, REPEATED_TEXT.replace("\r\n", "\n")):
        assert normalize_text(text) == normalize_per_token(text), text


def test_normalize_text_traces_each_distinct_token_once(monkeypatch):
    import sidkit.normalize

    calls = Counter()
    original = sidkit.normalize.trace_token

    def counting(token):
        calls[token] += 1
        return original(token)

    monkeypatch.setattr(sidkit.normalize, "trace_token", counting)
    normalize_text(REPEATED_TEXT)
    assert calls == Counter(set(REPEATED_TEXT.split()))


def test_traces_replay_to_output():
    for source in list(RULE_FIXTURES) + ["L'aLLkst", "vass'n", "arssjt"]:
        trace = trace_token(source)
        assert replay_trace(trace) == trace.output
        assert trace.input == source


def test_trace_json_shape():
    trace = trace_token("vat'n")
    assert '"apostrophe"' in trace.to_json()


NORWEGIAN = "abcdefghijklmnopqrstuvwxyzæøåABCDEFGHIJKLMNOPQRSTUVWXYZÆØÅ'"
NORWEGIAN_WITH_SPACE = NORWEGIAN + "’ \t\r\n\u00a0"


def test_idempotent_on_random_strings():
    rng = random.Random(1234)
    for _ in range(2000):
        s = "".join(rng.choice(NORWEGIAN) for _ in range(rng.randint(0, 12)))
        once = normalize_token(s)
        assert normalize_token(once) == once, s


@given(st.text(alphabet=NORWEGIAN, max_size=20))
def test_idempotence_property(s):
    once = normalize_token(s)
    assert normalize_token(once) == once


@given(st.text(alphabet=NORWEGIAN, max_size=20))
def test_output_free_of_apostrophes_and_thick_l(s):
    out = normalize_token(s)
    assert "L" not in out
    assert not (set(out) & APOSTROPHES)


@given(st.text(alphabet=NORWEGIAN + " \t\n", max_size=40))
def test_text_level_idempotence(s):
    once = normalize_text(s)
    assert normalize_text(once) == once


@given(st.text(alphabet=NORWEGIAN, max_size=20))
def test_cluster_rule_reaches_a_true_fixpoint(s):
    assert not reference.rule3_pending(normalize_token(s))


# Any code point at all, with the rules' own letters (and U+0130) drawn often enough to meet.
@settings(max_examples=300)
@given(st.text(st.characters() | st.sampled_from(NORWEGIAN + "’İ"), max_size=30))
def test_any_text_token_normalizes_to_a_replayable_fixpoint(s):
    trace = trace_token(s)
    assert replay_trace(trace) == trace.output
    assert normalize_token(trace.output) == trace.output
    assert reference.normalized_fixpoint(trace.output)


def test_dotted_capital_i_is_the_only_code_point_whose_lower_case_changes_length():
    assert [c for c in map(chr, range(sys.maxunicode + 1)) if len(c.lower()) != 1] == ["\u0130"]


@given(st.text(alphabet=NORWEGIAN_WITH_SPACE, max_size=60))
def test_normalize_text_matches_per_token_loop_property(s):
    assert normalize_text(s) == normalize_per_token(s)
