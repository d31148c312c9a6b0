import copy
import dataclasses
import gc
import hashlib
import itertools
import os
import pickle
import random
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sidkit import corpus, files
from sidkit.corpus import (
    BioFormatError,
    BioViolation,
    Dataset,
    DatasetStore,
    DatasetStream,
    FormatOptions,
    ParseError,
    Span,
    SplitError,
    Utterance,
    extract_spans,
    label_inventory,
    load_dataset,
    parse_dataset,
    save_dataset,
    split_dataset,
    unseen_label_report,
    validate_bio,
    write_dataset,
)
from sidkit.rng import SplitMix64, derive_seed, share_count


# ---------------------------------------------------------------------------
# Independent oracle: lenient span extraction by exhaustive predicate checks
# ---------------------------------------------------------------------------


def reference_lenient_spans(tags):
    """A span is any maximal same-label run that starts at a boundary.

    Checks every (start, end, label) candidate directly against the raw
    tags instead of scanning, so it shares no code with the implementation.
    Malformed tags are treated like O.
    """

    def label_of(i):
        tag = tags[i]
        if len(tag) > 2 and tag[0] in "BI" and tag[1] == "-":
            return tag[2:]
        return None

    spans = []
    n = len(tags)
    for start in range(n):
        label = label_of(start)
        if label is None:
            continue
        # start boundary: a B tag always opens; an I tag opens only when the
        # previous position does not carry the same label
        if tags[start].startswith("I-") and start > 0 and label_of(start - 1) == label:
            continue
        end = start + 1
        while end < n and tags[end] == f"I-{label}":
            end += 1
        spans.append(Span(start, end, label))
    return spans


def all_tag_sequences(max_len, labels):
    alphabet = ["O"] + [f"{p}-{lab}" for p in "BI" for lab in labels]
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def test_lenient_extraction_matches_reference_exhaustively():
    # Every tag sequence of length <= 5 over two labels.
    count = 0
    for tags in all_tag_sequences(5, ["a", "b"]):
        assert extract_spans(tags, "lenient") == reference_lenient_spans(tags), tags
        count += 1
    assert count == sum(5**k for k in range(6))


def reference_violations(tags):
    """(position, kind) of every BIO violation, judged from each tag and its predecessor."""

    def label_of(tag):
        return tag[2:] if len(tag) > 2 and tag[0] in "BI" and tag[1] == "-" else None

    found = []
    for i, tag in enumerate(tags):
        if tag != "O" and label_of(tag) is None:
            found.append((i, "malformed-tag"))
        elif tag.startswith("I-"):
            previous = label_of(tags[i - 1]) if i > 0 else None
            if previous is None:
                found.append((i, "I-without-B"))
            elif previous != label_of(tag):
                found.append((i, "I-label-mismatch"))
    return found


def test_scan_with_malformed_tags_matches_reference_exhaustively():
    # Every sequence of length <= 5 over two labels plus one malformed tag.
    count = 0
    for length in range(6):
        for tags in itertools.product(["O", "B-a", "I-a", "B-b", "I-b", "B-"], repeat=length):
            utt = Utterance(id="u", tokens=("t",) * length, slot_tags=tags, intent="x")
            assert extract_spans(tags, "lenient") == reference_lenient_spans(tags), tags
            violations = [(v.position, v.kind) for v in validate_bio(utt)]
            assert violations == reference_violations(tags), tags
            count += 1
    assert count == sum(6**k for k in range(6))


def per_occurrence_scan(tags, utterance_id=""):
    """Reference for ``_scan_tags`` without its caches: every tag occurrence is
    classified, and every span built, on its own."""
    spans, violations = [], []
    start, label = 0, None
    for i, tag in enumerate(tags):
        if tag == "O":
            new_label = None
        elif len(tag) > 2 and tag[0] in "BI" and tag[1] == "-":
            new_label = tag[2:]
            if tag[0] == "I":
                if new_label == label:
                    continue
                if label is None:
                    violations.append(
                        BioViolation(utterance_id, i, "I-without-B", f"{tag} not preceded by B/I tag")
                    )
                else:
                    violations.append(
                        BioViolation(utterance_id, i, "I-label-mismatch", f"{tag} follows a {label!r} span")
                    )
        else:
            violations.append(
                BioViolation(utterance_id, i, "malformed-tag", f"{tag!r} is not O, B-<label> or I-<label>")
            )
            new_label = None
        if label is not None:
            spans.append(Span(start, i, label))
        start, label = i, new_label
    if label is not None:
        spans.append(Span(start, len(tags), label))
    return spans, violations


SCAN_TAGS = ["O", "B-a", "I-a", "B-b", "I-b", "B-", "I-", "b-a", "O-x"]


@pytest.fixture(params=["cleared", "overflowed"])
def scan_caches(request):
    """The tag and span caches, emptied, or else filled past the span bound."""
    corpus._classify_tag.cache_clear()
    corpus._shared_span.cache_clear()
    if request.param == "overflowed":
        n = corpus._SPAN_CACHE_SIZE + 100
        tags = ["B-a"] * n  # n distinct one-token spans
        assert corpus._scan_tags(tags) == per_occurrence_scan(tags)
        info = corpus._shared_span.cache_info()
        assert info.misses == n and info.currsize == corpus._SPAN_CACHE_SIZE
    return request.param


@given(st.lists(st.sampled_from(SCAN_TAGS), max_size=16))
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cached_scan_matches_the_per_occurrence_scan(scan_caches, tags):
    if scan_caches == "cleared":
        corpus._classify_tag.cache_clear()
        corpus._shared_span.cache_clear()
    assert corpus._scan_tags(tags, "u") == per_occurrence_scan(tags, "u")
    assert corpus._scan_tags(tuple(tags), "u") == per_occurrence_scan(tags, "u")


def test_extract_spans_returns_a_new_list_of_shared_spans_each_call():
    tags = ["B-a", "I-a", "O", "B-b"]
    first = extract_spans(tags)
    first.append(Span(4, 5, "c"))
    second = extract_spans(tags)
    assert second == [Span(0, 2, "a"), Span(3, 4, "b")]
    assert second is not first
    assert second[0] is first[0] and second[1] is first[1]


# ---------------------------------------------------------------------------
# Utterance / Dataset invariants
# ---------------------------------------------------------------------------


def test_utterance_rejects_length_mismatch():
    with pytest.raises(ValueError):
        Utterance(id="1", tokens=("a", "b"), slot_tags=("O",), intent="x")


def test_utterance_rejects_whitespace_and_empty_tokens():
    with pytest.raises(ValueError):
        Utterance(id="1", tokens=("a b",), slot_tags=("O",), intent="x")
    with pytest.raises(ValueError):
        Utterance(id="1", tokens=("",), slot_tags=("O",), intent="x")


def test_dataset_rejects_duplicate_ids():
    utt = Utterance(id="1", tokens=("a",), slot_tags=("O",), intent="x")
    with pytest.raises(ValueError, match=r"^dataset 'd': duplicate utterance id '1'$"):
        Dataset(name="d", utterances=(utt, utt))


def test_span_bounds():
    with pytest.raises(ValueError):
        Span(2, 2, "a")
    with pytest.raises(ValueError):
        Span(-1, 1, "a")


# ---------------------------------------------------------------------------
# Parsing and writing
# ---------------------------------------------------------------------------

SAMPLE = (
    "# id: 1\n"
    "# intent: reminder/set_reminder\n"
    "minn\tO\n"
    "mæ\tO\n"
)


def test_parse_single_block():
    d = parse_dataset(SAMPLE)
    assert len(d) == 1
    utt = d.utterances[0]
    assert utt.id == "1"
    assert utt.intent == "reminder/set_reminder"
    assert utt.tokens == ("minn", "mæ")
    assert utt.slot_tags == ("O", "O")


def test_parse_empty_stream():
    assert len(parse_dataset("")) == 0
    assert write_dataset(parse_dataset("")) == ""


TWO_BLOCKS = (
    "# id: 1\n# intent: alarm/set\n# variety: north\nvekk\tO\nmæ\tB-datetime\n"
    "\n"
    "# id: 2\n# text: kor varmt\n# intent: weather/find\nkor\tO\nvarmt\tB-weather/attribute\n"
)


def test_parse_treats_crlf_and_lone_cr_as_lf():
    lf = parse_dataset(TWO_BLOCKS)
    assert parse_dataset(TWO_BLOCKS.replace("\n", "\r\n")) == lf
    assert parse_dataset(TWO_BLOCKS.replace("\n", "\r")) == lf
    assert lf.utterances[0].slot_tags == ("O", "B-datetime")


def test_parse_strips_one_leading_bom(tmp_path):
    lf = parse_dataset(TWO_BLOCKS)
    assert parse_dataset("\ufeff" + TWO_BLOCKS) == lf
    path = tmp_path / "bom.conll"
    path.write_text("\ufeff" + TWO_BLOCKS.replace("\n", "\r\n"), encoding="utf-8")
    assert load_dataset(path, name="") == lf
    # only one mark is a byte-order mark; a second one starts the first line
    with pytest.raises(ParseError):
        parse_dataset("\ufeff\ufeff" + TWO_BLOCKS)
    path.write_text("\ufeff\ufeff" + TWO_BLOCKS, encoding="utf-8")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 1: "):
        load_dataset(path)


def test_utterance_rejects_carriage_return_in_comment_fields():
    # a CR would read back as a line break, so the round trip could not hold
    with pytest.raises(ValueError, match="newline"):
        Utterance(id="1", tokens=("a",), slot_tags=("O",), intent="x", raw_text="a\rb")


def test_utterance_rejects_tab_and_line_breaks_in_slot_tags():
    # "B-x\ty" would be written as a third column and read back as "B-x";
    # "B-x\ny" would split its token line, so the written file would not parse.
    for tag in ("B-x\ty", "B-x\ny", "B-x\ry"):
        with pytest.raises(ValueError, match="slot tag") as exc:
            Utterance(id="u7", tokens=("a", "b"), slot_tags=("O", tag), intent="x")
        assert "'u7'" in str(exc.value)
        assert repr(tag) in str(exc.value)


def test_three_block_file_round_trips_byte_identically():
    text = (
        "# id: a-1\n# intent: alarm/set\nvekk\tO\nmæ\tO\n"
        "\n"
        "# id: a-2\n# text: original text\n# intent: alarm/cancel\navlys\tB-reference\n"
        "\n"
        "# id: a-3\n# intent: weather/find\n# variety: north\nkor\tO\nvarmt\tB-weather/attribute\n"
    )
    d = parse_dataset(text)
    assert len(d) == 3
    assert write_dataset(d) == text
    assert d.utterances[1].raw_text == "original text"
    assert d.utterances[2].variety == "north"


def test_parse_keeps_malformed_tags_verbatim():
    d = parse_dataset("# id: 1\n# intent: x\nfoo\tJUNK\n")
    assert d.utterances[0].slot_tags == ("JUNK",)


def test_parse_ragged_block_reports_line_number():
    with pytest.raises(ParseError, match="line 3"):
        parse_dataset("# id: 1\n# intent: x\nonlyonecolumn\n")


def test_parse_missing_intent():
    with pytest.raises(ParseError, match="intent"):
        parse_dataset("# id: 1\nfoo\tO\n")
    d = parse_dataset(
        "# id: 1\nfoo\tO\n", FormatOptions(require_intent=False)
    )
    assert d.utterances[0].intent == ""


def test_parse_assigns_sequential_ids_when_missing():
    d = parse_dataset("# intent: x\na\tO\n\n# intent: y\nb\tO\n")
    assert [u.id for u in d.utterances] == ["0", "1"]


def test_parse_custom_column_map():
    options = FormatOptions(token_col=1, tag_col=3)
    d = parse_dataset("# intent: x\n1\thei\t_\tB-a\n", options)
    assert d.utterances[0].tokens == ("hei",)
    assert d.utterances[0].slot_tags == ("B-a",)
    rewritten = write_dataset(d, options)
    assert parse_dataset(rewritten, options) == d


def test_write_refuses_a_token_line_that_reads_as_a_comment():
    # with the tag in column 0, a tag "# x" would start its token line like a comment
    options = FormatOptions(token_col=1, tag_col=0)
    d = Dataset(name="d", utterances=(Utterance("u1", ("a", "b"), ("# x", "O"), "i"),))
    with pytest.raises(ValueError, match="comment") as exc:
        write_dataset(d, options)
    assert "'u1'" in str(exc.value)
    assert "'# x'" in str(exc.value)
    for tag in ("#x", "#", "x # y"):
        d = Dataset(name="d", utterances=(Utterance("u1", ("a", "b"), (tag, "O"), "i"),))
        assert parse_dataset(write_dataset(d, options), options, name="d") == d


def test_variety_from_options():
    d = parse_dataset("# id: 1\n# intent: x\na\tO\n", FormatOptions(variety="west"))
    assert d.utterances[0].variety == "west"


token_strategy = st.text(alphabet="abcdefæøå", min_size=1, max_size=6)
label_strategy = st.sampled_from(["a", "b", "weather/attribute"])


def spans_to_tags(spans, length):
    """Oracle: the BIO tags of disjoint spans over ``length`` tokens."""
    tags = ["O"] * length
    for span in spans:
        tags[span.start:span.end] = [f"B-{span.label}"] + [f"I-{span.label}"] * (span.end - span.start - 1)
    return tuple(tags)


@st.composite
def utterances(draw, index):
    n = draw(st.integers(min_value=1, max_value=8))
    tokens = tuple(draw(token_strategy) for _ in range(n))
    spans = []
    pos = 0
    while pos < n:
        if draw(st.booleans()):
            end = draw(st.integers(min_value=pos + 1, max_value=n))
            spans.append(Span(pos, end, draw(label_strategy)))
            pos = end
        else:
            pos += 1
    return Utterance(
        id=str(index),
        tokens=tokens,
        slot_tags=spans_to_tags(spans, n),
        intent=draw(st.sampled_from(["alarm/set", "weather/find"])),
        variety=draw(st.sampled_from([None, "north", "west"])),
        raw_text=draw(st.one_of(st.none(), st.just("some text"))),
    )


@st.composite
def datasets(draw):
    size = draw(st.integers(min_value=0, max_value=6))
    return Dataset(name="gen", utterances=tuple(draw(utterances(i)) for i in range(size)))


@given(datasets())
@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_parse_write_round_trip(tmp_path, dataset):
    text = write_dataset(dataset)
    assert parse_dataset(text, name="gen") == dataset
    save_dataset(dataset, tmp_path / "gen.conll")
    assert (tmp_path / "gen.conll").read_bytes() == text.encode("utf-8")


def test_save_into_a_missing_directory_names_the_target(tmp_path):
    target = tmp_path / "missing" / "out.conll"
    with pytest.raises(FileNotFoundError) as exc:
        save_dataset(Dataset("d", ()), target)
    assert exc.value.filename == str(target)


# ---------------------------------------------------------------------------
# The dataset store
# ---------------------------------------------------------------------------


@st.composite
def format_options(draw):
    token_col, tag_col = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))
    return FormatOptions(
        token_col=token_col,
        tag_col=tag_col,
        require_intent=draw(st.booleans()),
        variety=draw(st.sampled_from([None, "east"])),
    )


def _hold(store, *paths):
    """Give ``store`` the files' digests now, as a pipeline run gives a step's inputs."""
    store.digests = {os.path.abspath(p): files.sha256_file(p) for p in paths}


@given(datasets(), format_options())
@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_store_serves_what_a_load_outside_it_reads(tmp_path, dataset, options):
    path = tmp_path / "saved.conll"
    with DatasetStore() as store:
        save_dataset(dataset, path, options)
        _hold(store, path)
        inside = load_dataset(path, options)
    assert inside == load_dataset(path, options)
    # stored only when the file reads back as the dataset exactly
    exact = options.variety is None or all(utt.variety is not None for utt in dataset)
    assert (inside.utterances is dataset.utterances) == exact


def test_store_parses_a_rewritten_file_again(tmp_path):
    path = tmp_path / "d.conll"
    path.write_text("# id: 1\n# intent: a\nx\tO\n", encoding="utf-8")
    with DatasetStore() as store:
        first = load_dataset(path)
        _hold(store, path)
        assert load_dataset(path, name="again").utterances is first.utterances
        path.write_text("# id: 1\n# intent: b\nx\tO\n", encoding="utf-8")
        _hold(store, path)
        second = load_dataset(path)
    assert second.utterances[0].intent == "b"
    assert second == load_dataset(path)


def test_store_parses_a_file_loaded_with_other_options_again(tmp_path):
    path = tmp_path / "d.conll"
    path.write_text("# id: 1\n# intent: a\nx\tO\tB-y\n", encoding="utf-8")
    other = FormatOptions(tag_col=2, variety="west")
    with DatasetStore():
        first = load_dataset(path)
        second = load_dataset(path, other)
        third = load_dataset(path)
    assert first.utterances[0].slot_tags == ("O",) and first.utterances[0].variety is None
    assert second == load_dataset(path, other)
    assert second.utterances[0].slot_tags == ("B-y",) and second.utterances[0].variety == "west"
    assert third == first


def test_a_bare_store_serves_nothing(tmp_path):
    path = tmp_path / "d.conll"
    path.write_text("# id: 1\n# intent: a\nx\tO\n", encoding="utf-8")
    with DatasetStore() as store:
        first = load_dataset(path)
        assert store.digests == {}
        second = load_dataset(path)
        saved = tmp_path / "saved.conll"
        save_dataset(first, saved)
        third = load_dataset(saved)
        entries = {p: entry[0] for p, entry in store._entries.items()}
    for dataset in (second, third):
        assert dataset.utterances is not first.utterances and dataset.utterances == first.utterances
    # every load and save is still stored, under the digest of its bytes
    assert entries == {os.path.abspath(p): files.sha256_file(p) for p in (path, saved)}


# ---------------------------------------------------------------------------
# The writer against a per-line reference
# ---------------------------------------------------------------------------


def reference_write(dataset, options):
    """``write_dataset`` built one token line at a time."""
    blocks = []
    for utt in dataset:
        lines = [f"# id: {utt.id}"]
        if utt.raw_text is not None:
            lines.append(f"# text: {utt.raw_text}")
        lines.append(f"# intent: {utt.intent}")
        if utt.variety is not None:
            lines.append(f"# variety: {utt.variety}")
        width = max(options.token_col, options.tag_col) + 1
        for token, tag in zip(utt.tokens, utt.slot_tags):
            cols = ["_"] * width
            cols[options.token_col] = token
            cols[options.tag_col] = tag
            line = "\t".join(cols)
            if line.startswith("# "):
                raise ValueError(f"utterance {utt.id!r}: slot tag {tag!r} would be read back as a comment")
            lines.append(line)
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""


@st.composite
def datasets_with_hash_tags(draw):
    """``datasets()`` with some slot tags replaced by ones that start with "#"."""
    utterances = []
    for utt in draw(datasets()):
        tags = [draw(st.sampled_from(["# x", "# ", "#x", "#", "x # y"])) if draw(st.integers(0, 7)) == 0
                else tag for tag in utt.slot_tags]
        utterances.append(dataclasses.replace(utt, slot_tags=tuple(tags)))
    return Dataset(name="gen", utterances=tuple(utterances))


@given(datasets_with_hash_tags(), format_options())
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_writer_matches_a_per_line_reference(tmp_path, dataset, options):
    try:
        expected = reference_write(dataset, options)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            write_dataset(dataset, options)
        assert str(got.value) == str(exc)
        return
    assert write_dataset(dataset, options) == expected
    save_dataset(dataset, tmp_path / "w.conll", options)
    assert (tmp_path / "w.conll").read_bytes() == expected.encode("utf-8")


blank_runs = st.lists(st.sampled_from(["", " ", "\t", "\x0b", "\x0c", " \t"]), min_size=1, max_size=4)


@st.composite
def documents(draw, min_size=0):
    """A dataset and the LF-only lines of a document holding it: its blocks
    separated (and perhaps led and followed) by runs of blank or
    whitespace-only lines."""
    dataset = draw(datasets().filter(lambda d: len(d) >= min_size))
    lines = draw(blank_runs) if draw(st.booleans()) else []
    for i, utt in enumerate(dataset.utterances):
        if i:
            lines += draw(blank_runs)
        lines += write_dataset(Dataset(name="gen", utterances=(utt,))).rstrip("\n").split("\n")
    if draw(st.booleans()):
        lines += draw(blank_runs)
    return dataset, lines


def _as_text(draw, lines):
    """The lines joined by one of LF, CRLF or CR, perhaps behind a byte-order mark."""
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return ("\ufeff" if draw(st.booleans()) else "") + text


@given(documents(), st.data())
@settings(max_examples=200)
def test_blank_runs_line_ends_and_bom_parse_like_the_lf_form(document, data):
    dataset, lines = document
    assert parse_dataset("\n".join(lines), name="gen") == dataset
    assert parse_dataset(_as_text(data.draw, lines), name="gen") == dataset


@given(documents(min_size=1), st.data())
@settings(max_examples=200)
def test_ragged_token_line_names_its_line(document, data):
    _, lines = document
    token_lines = [k for k, line in enumerate(lines) if line.strip() and not line.startswith("# ")]
    k = data.draw(st.sampled_from(token_lines))
    lines[k] = "ragged"
    with pytest.raises(ParseError, match=rf"^line {k + 1}: expected at least 2"):
        parse_dataset(_as_text(data.draw, lines))


corpus_bytes = st.binary(max_size=64) | st.lists(
    st.sampled_from([
        b"# id: 1", b"# id: 2", b"# intent: x", b"# variety: ", b"# text:  a ", b"# ", b"a\tO",
        b"\tB-x", b"a\tI-", b"a b\tO", b"\t\t", b"\n", b"\r", b"\r\n", b" ", b"\x0b", b"\x1c",
        b"\xef\xbb\xbf", b"\xff", b"\xc3", b"\xc3\xa6", b"\xe2\x80\xa8", b"\x85",
    ]),
    max_size=24,
).map(b"".join)


@given(corpus_bytes)
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_arbitrary_bytes_load_or_raise_parse_error(tmp_path, data):
    path = tmp_path / "any.conll"
    path.write_bytes(data)
    try:
        dataset = load_dataset(path)
    except ParseError:
        return
    assert all(isinstance(utt, Utterance) for utt in dataset)


# ---------------------------------------------------------------------------
# Reading a file a piece at a time
# ---------------------------------------------------------------------------

PIECE_SIZES = (1, 2, 3, 7)


def whole_file_result(data):
    """What loading the file ``data`` gave when it was decoded and parsed
    whole: the dataset, or the ParseError's text without the file's name."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = exc.start
        line = 1 + data.count(b"\n", 0, at) + data.count(b"\r", 0, at) - data.count(b"\r\n", 0, at)
        column = at - max(data.rfind(b"\n", 0, at), data.rfind(b"\r", 0, at))
        return f"invalid UTF-8 byte 0x{data[at]:02x} at line {line}, column {column}"
    try:
        return parse_dataset(text, name="gen")
    except ParseError as exc:
        return str(exc)


def _loaded(path, options=FormatOptions()):
    """``load_dataset(path, options)``, or its ParseError's text without the file's name."""
    try:
        return load_dataset(path, options, name="gen")
    except ParseError as exc:
        assert str(exc).startswith(f"{path}: ")
        return str(exc).removeprefix(f"{path}: ")


@st.composite
def corpus_files(draw):
    """The bytes of a document: LF, CRLF or CR line ends behind no, one or
    two byte-order marks, perhaps with an id used twice or a byte that is
    not UTF-8."""
    _, lines = draw(documents())
    ids = [k for k, line in enumerate(lines) if line.startswith("# id: ")]
    if len(ids) > 1 and draw(st.booleans()):
        earlier, later = sorted(draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)))
        lines[later] = lines[earlier]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = draw(st.sampled_from(["", "\ufeff", "\ufeff\ufeff"])) + end.join(lines) + end
    data = text.encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"])) + data[at:]
    return data


@given(corpus_files())
@example(TWO_BLOCKS.replace("\n", "\r\n").encode("utf-8"))
@example(("\ufeff" + TWO_BLOCKS.replace("\n", "\r")).encode("utf-8"))
@example(("\ufeff\ufeff" + TWO_BLOCKS).encode("utf-8"))
@example("# id: 1\n# text: sø\n# intent: x\nø\tO\n".encode("utf-8"))
@example(b"# ok\r\nab\xffcd\n")  # "invalid UTF-8 byte 0xff at line 2, column 3"
@example(b"# id: 1\xff\n")  # the bad byte opens the second piece of 7
@example(b"# ok\r\n\xc3\xb8\xc3(")  # a bad second byte
@example(b"# ok\r\r\n\xc3")  # a character cut off by the end of the file
@example(b"# id: 1\n# intent: x\na\tO\n\n# id: 1\n# intent: x\nb\t\xc3")
@example(b"# id: 1\n# intent: x\na\tO\n\n\n# id: 2\n# intent: x\nb\tO\n\n# id: 1\n# intent: x\nc\tO\n")
@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_load_reads_the_same_at_every_piece_size(tmp_path, data):
    path = tmp_path / "gen.conll"
    path.write_bytes(data)
    want = whole_file_result(data)
    for size in PIECE_SIZES:
        with mock.patch.object(files, "_PIECE_SIZE", size):
            assert _loaded(path) == want, size
            with DatasetStore() as store:
                assert _loaded(path) == want, size
                if isinstance(want, Dataset):  # stored under the digest of the bytes parsed
                    key, digest = os.path.abspath(path), hashlib.sha256(data).hexdigest()
                    assert store._entries[key][0] == digest
                    store.digests[key] = digest
                    assert load_dataset(path).utterances is store._entries[key][2].utterances


@given(st.text(alphabet="a\n", max_size=40), st.lists(st.integers(0, 40)))
@settings(max_examples=300)
def test_chunks_cut_pieces_where_a_walk_over_the_whole_text_cuts(text, cuts):
    cuts = sorted({min(cut, len(text)) for cut in cuts})
    pieces = [text[i:j] for i, j in zip([0, *cuts], [*cuts, len(text)])]
    parts = text.split("\n\n")
    never = lambda text, start: None  # noqa: E731
    assert list(corpus._stretches(pieces, never)) == [part + "\n" for part in parts[:-1]] + parts[-1:]


def test_the_store_keeps_the_digest_of_the_bytes_it_parsed(tmp_path):
    path = tmp_path / "d.conll"
    path.write_text("# id: 1\n# intent: a\nx\tO\n", encoding="utf-8")
    with DatasetStore() as store:
        load_dataset(path)
        path.write_text("# id: 1\n# intent: b\nx\tO\n", encoding="utf-8")
        _hold(store, path)
        path.write_text("# id: 1\n# intent: c\nx\tO\n", encoding="utf-8")
        second = load_dataset(path)  # the holder gave "b", the parse reads "c"
        assert second.utterances[0].intent == "c"
        assert store._entries[os.path.abspath(path)][0] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert load_dataset(path).utterances is not second.utterances  # "b" is not what the entry holds
        _hold(store, path)
        assert load_dataset(path).utterances is store._entries[os.path.abspath(path)][2].utterances


def test_a_first_load_in_a_store_reads_its_file_once_and_a_hit_reads_it_zero_times(tmp_path, monkeypatch):
    path = tmp_path / "d.conll"
    path.write_text("# id: 1\n# intent: a\nx\tO\n", encoding="utf-8")
    reads = []
    read_pieces = files._read_pieces
    monkeypatch.setattr(corpus, "_read_pieces", lambda p, digest=None: reads.append(p) or read_pieces(p, digest))
    with DatasetStore() as store:
        first = load_dataset(path)
        assert reads == [path]
        _hold(store, path)
        assert load_dataset(path).utterances is first.utterances
        assert reads == [path]
        load_dataset(path, FormatOptions(variety="west"))  # no entry with these options
        assert reads == [path, path]


# ---------------------------------------------------------------------------
# Independent oracle: a two-walk parser, which first groups the lines into
# blocks and then walks each block's lines again
# ---------------------------------------------------------------------------


def two_walk_blocks(text):
    lineno = 1
    start = 0
    while True:
        stop = text.find("\n\n", start)
        block = []
        for line in text[start:stop if stop >= 0 else len(text)].split("\n"):
            if line.strip():
                block.append((lineno, line))
            elif block:
                yield block
                block = []
            lineno += 1
        if block:
            yield block
        if stop < 0:
            return
        start = stop + 2
        lineno += 1


def two_walk_block(block, options, default_id):
    comments, tokens, tags = {}, [], []
    needed = max(options.token_col, options.tag_col) + 1
    for lineno, line in block:
        if line.startswith("# "):
            key, sep, value = line[2:].partition(":")
            if sep and key.strip() in ("id", "text", "intent", "variety"):
                comments[key.strip()] = value.strip()
            continue
        cols = line.split("\t")
        if len(cols) < needed:
            raise ParseError(
                f"line {lineno}: expected at least {needed} tab-separated columns, "
                f"got {len(cols)}: {line!r}"
            )
        tokens.append(cols[options.token_col])
        tags.append(cols[options.tag_col])
    intent = comments.get("intent")
    if intent is None:
        if options.require_intent:
            raise ParseError(f"block at line {block[0][0]}: missing '# intent:' comment")
        intent = ""
    try:
        return Utterance(
            id=comments.get("id", default_id),
            tokens=tuple(tokens),
            slot_tags=tuple(tags),
            intent=intent,
            variety=comments.get("variety", options.variety),
            raw_text=comments.get("text"),
        )
    except ValueError as exc:
        raise ParseError(f"block at line {block[0][0]}: {exc}") from exc


def two_walk_parse(text, options):
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    blocks = list(two_walk_blocks(text))
    utterances = [two_walk_block(block, options, str(i)) for i, block in enumerate(blocks)]
    first_use = {}  # id -> first line of the first block with it
    for block, utt in zip(blocks, utterances):
        if utt.id in first_use:
            raise ParseError(
                f"line {block[0][0]}: duplicate utterance id {utt.id!r} "
                f"(first used by the block at line {first_use[utt.id]})"
            )
        first_use[utt.id] = block[0][0]
    return Dataset(name="gen", utterances=tuple(utterances))


PARSE_OPTIONS = [
    FormatOptions(),
    FormatOptions(require_intent=False),
    FormatOptions(token_col=1, tag_col=0),
    FormatOptions(tag_col=2, variety="east"),
]
BLANK_LINES = ["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
COMMENT_LINES = [
    "# intent: x", "# intent: x", "# intent: x", "# intent: y", "# intent: ", "#  intent: y",
    "# id: 1", "# id: 2", "# id:  a b ", "# variety: north", "# text:  a ", "# other: z", "# ", "# x\tO",
]
TOKEN_LINES = [
    "a\tO\tB-x", "b\tB-x\tO", "O\ta\tI-x", "B-x\tb\tO", "a\t_\tB-x", "a\tB-x\ty\tz", "a\t# x\tO",
    "a\tO", "a\t# x",
]
ODD_LINES = ["a", "a\t", "\t", "\t\t", "a b\tO", "#", "\x85\tO"]
parse_lines = st.lists(
    st.sampled_from(BLANK_LINES) | st.sampled_from(BLANK_LINES) | st.sampled_from(COMMENT_LINES)
    | st.sampled_from(COMMENT_LINES) | st.sampled_from(TOKEN_LINES) | st.sampled_from(TOKEN_LINES)
    | st.sampled_from(ODD_LINES) | st.text(st.sampled_from("ab#:\t \x0b\x85\u2028\r\n"), max_size=6),
    max_size=24,
)


@given(
    parse_lines,
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.integers(0, 2),
    st.integers(0, 3),
    st.sampled_from(PARSE_OPTIONS),
)
@example(["# intent: x", "a\tO"], "\n", 0, 0, PARSE_OPTIONS[0])  # no line break at the end
@example(["# intent: x", "a\tO"], "\n", 1, 3, PARSE_OPTIONS[0])  # several blank lines at the end
@settings(max_examples=500)
def test_one_walk_parse_matches_the_two_walk_parse(lines, end, boms, ends, options):
    text = "\ufeff" * boms + end.join(lines) + end * ends
    try:
        want = two_walk_parse(text, options)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_dataset(text, options, name="gen")
        assert str(got.value) == str(exc)
    else:
        assert parse_dataset(text, options, name="gen") == want


# ---------------------------------------------------------------------------
# The fast path for written blocks against the per-line parser
# ---------------------------------------------------------------------------

HOSTILE_KINDS = [
    "blank run", "whitespace line", "line break inside a line", "bom inside", "comment after tokens",
    "ragged", "extra column", "comment in column 0", "whitespace in token",
]


@st.composite
def hostile_documents(draw):
    """Format options and a text ``write_dataset`` wrote for them, with one
    hostile line, perhaps other line ends and perhaps one or two BOMs."""
    options = draw(st.sampled_from(PARSE_OPTIONS))
    dataset = draw(datasets().filter(len))
    lines = write_dataset(dataset, options).split("\n")
    k = draw(st.sampled_from([i for i, line in enumerate(lines) if line and not line.startswith("# ")]))
    cols = lines[k].split("\t")
    kind = draw(st.sampled_from(HOSTILE_KINDS))
    if kind == "blank run":
        lines[k:k] = [""] * draw(st.integers(1, 3))
    elif kind == "whitespace line":
        lines.insert(k, draw(st.sampled_from([" ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])))
    elif kind == "line break inside a line":
        at = draw(st.integers(0, len(lines[k])))
        lines[k] = lines[k][:at] + draw(st.sampled_from(["\r", "\r\n"])) + lines[k][at:]
    elif kind == "bom inside":
        lines[k] = "\ufeff" + lines[k]
    elif kind == "comment after tokens":
        lines.insert(k + 1, draw(st.sampled_from(["# intent: y", "# id: 0", "# variety: x", "# other: z", "# "])))
    elif kind == "ragged":
        lines[k] = "\t".join(cols[:-1])
    elif kind == "extra column":
        lines[k] += "\tz"
    elif kind == "comment in column 0":
        lines[k] = "\t".join(["# x", *cols[1:]])
    else:
        cols[options.token_col] = "a" + draw(st.sampled_from(["\x1c", "\x85", "\u2028", " "])) + "b"
        lines[k] = "\t".join(cols)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return options, "\ufeff" * draw(st.integers(0, 2)) + end.join(lines)


@given(hostile_documents())
@example((PARSE_OPTIONS[2], "# id: 1\n# intent: x\nO\ta\n# x\tb\n"))  # a "# " tag after a token line
@example((PARSE_OPTIONS[0], "# id: 1\n# intent: x\na\x85b\tO\n"))  # a token split() splits
@example((PARSE_OPTIONS[3], "# id: 1\n# intent: x\na\tO\tB-x\tz\n"))  # an extra column
@settings(max_examples=500)
def test_fast_path_parses_hostile_written_text_as_the_per_line_parser(document):
    options, text = document
    try:
        want = two_walk_parse(text, options)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_dataset(text, options, name="gen")
        assert str(got.value) == str(exc)
    else:
        assert parse_dataset(text, options, name="gen") == want


NEVER = re.compile("(?!)")


def read_line_by_line(monkeypatch):
    """Make the block pattern match nothing, so every block is read line by line."""
    monkeypatch.setattr(corpus, "_written_pattern", lambda token_col, tag_col: NEVER)


corpus_stretches = corpus._stretches


@given(datasets().filter(len), format_options(), st.sampled_from(["", "\n"]))
@settings(max_examples=200)
def test_written_text_takes_only_the_fast_path(dataset, options, extra_end):
    text = write_dataset(dataset, options) + extra_end
    if options.variety is not None:  # blocks without a variety comment read the fallback
        dataset = Dataset("gen", tuple(
            u if u.variety is not None else dataclasses.replace(u, variety=options.variety) for u in dataset
        ))
    read = []

    def stretches(*args):
        for stretch in corpus_stretches(*args):
            read.append(stretch)
            yield stretch

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_stretches", stretches)
        assert parse_dataset(text, options, name="gen") == dataset
    # every block is one pattern match but the last, which no empty line ends
    # unless ``extra_end`` adds one, and which is then read line by line
    chunks = [stretch for stretch in read if isinstance(stretch, str) and stretch]
    assert chunks == ([] if extra_end else [text.split("\n\n")[-1]])
    assert len(read) - len(chunks) == len(dataset) + (extra_end == "\n") - (extra_end == "")


FIELDS = [field.name for field in dataclasses.fields(Utterance)]


def assert_built_as_checked(utterance):
    checked = Utterance(**{name: getattr(utterance, name) for name in FIELDS})
    assert type(utterance) is Utterance
    assert [getattr(utterance, name) for name in FIELDS] == [getattr(checked, name) for name in FIELDS]
    assert utterance == checked and checked == utterance
    assert hash(utterance) == hash(checked)


@given(datasets(), st.sampled_from(PARSE_OPTIONS))
@settings(max_examples=100)
def test_parsed_utterances_equal_checked_ones(dataset, options):
    for utterance in parse_dataset(write_dataset(dataset, options), options):
        assert_built_as_checked(utterance)


def test_fast_path_dataset_takes_no_more_memory_than_checked_utterances(monkeypatch):
    text = _synthetic_corpus(seed=4)

    def retained():
        parse_dataset(text)  # warm the pattern cache first
        gc.collect()  # empties the free lists, so every object of the parse is traced
        tracemalloc.start()
        try:
            dataset = parse_dataset(text)
            gc.collect()
            return dataset, tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    fast, fast_bytes = retained()
    read_line_by_line(monkeypatch)
    checked, checked_bytes = retained()
    assert fast == checked
    # Both keep the same strings and tuples, give or take one allocation's
    # rounding (tens of bytes); a dict or inline-values array per Utterance
    # would add 48 bytes or more for each of the 2,000.
    assert fast_bytes <= checked_bytes + 1024, (fast_bytes, checked_bytes)


@pytest.mark.parametrize("options", [options for options in PARSE_OPTIONS if options.require_intent])
def test_a_written_block_without_intent_fails_as_read_line_by_line(options, monkeypatch):
    blocks = [write_dataset(_dataset(u), options).rstrip("\n") for u in (
        Utterance(id="a", tokens=("x", "y"), slot_tags=("O", "B-s"), intent="i"),
        Utterance(id="b", tokens=("z",), slot_tags=("O",), intent="i", raw_text="z"),
    )]
    # the empty line after the last block lets the pattern read it
    text = "\n\n".join([blocks[0], blocks[1].replace("# intent: i\n", ""), ""])
    first = len(blocks[0].split("\n")) + 2  # the second block's first line
    message = f"block at line {first}: missing '# intent:' comment"
    with pytest.raises(ParseError) as written:
        parse_dataset(text, options)
    assert any(entry.name == "_written_block" for entry in written.traceback)  # the fast path refused it
    read_line_by_line(monkeypatch)
    with pytest.raises(ParseError) as line_by_line:
        parse_dataset(text, options)
    assert str(written.value) == str(line_by_line.value) == message


SCAN_COMMENTS = ["# other: z", "# id: 9", "#  intent: y", "# intent:y ", "# text: ", "# variety:\x85x", "# "]
SCAN_TOKENS = ["a", "bb", "ø", "a\x85b", "\ufeffa"]
SCAN_TAGS = ["O", "B-x", "I-x", "", "x y", "# x"]


@st.composite
def scan_texts(draw):
    """Format options and a text whose blocks the scan may or may not read:
    comments in the written order, in another order or with extra or
    unknown keys; token lines with the written columns or one more; blocks
    ended by one empty line or by a run of blank and whitespace-only lines;
    LF or CRLF line ends, perhaps behind a byte-order mark."""
    options = draw(st.sampled_from(PARSE_OPTIONS))
    width = max(options.token_col, options.tag_col) + 1
    lines = []
    for i in range(draw(st.integers(0, 5))):
        comments = [f"# id: {draw(st.sampled_from(['1', '2', 'a b', str(i)]))}"]
        if draw(st.booleans()):
            comments.append(f"# text: {draw(st.sampled_from(['a', 'a  b', '']))}")
        if draw(st.integers(0, 5)):
            comments.append(f"# intent: {draw(st.sampled_from(['x', 'y/z', '']))}")
        if draw(st.booleans()):
            comments.append(f"# variety: {draw(st.sampled_from(['north', 'west']))}")
        order = draw(st.sampled_from(["written", "written", "shuffled", "extra"]))
        if order == "shuffled":
            comments = draw(st.permutations(comments))
        elif order == "extra":
            at = draw(st.integers(0, len(comments)))
            comments.insert(at, draw(st.sampled_from(SCAN_COMMENTS)))
        tokens = []
        for _ in range(draw(st.integers(1, 4))):
            cols = ["_"] * width
            cols[options.token_col] = draw(st.sampled_from(SCAN_TOKENS))
            cols[options.tag_col] = draw(st.sampled_from(SCAN_TAGS))
            tokens.append("\t".join(cols) + ("\tz" if draw(st.integers(0, 9)) == 0 else ""))
        if i:
            lines += [""] if draw(st.booleans()) else draw(blank_runs)
        lines += comments + tokens
    lines += draw(st.sampled_from([[], [""], [" "], ["", ""]]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return options, draw(st.sampled_from(["", "\ufeff"])) + end.join(lines) + end


def _parsed(text, options):
    """``parse_dataset(text, options)``, or its ParseError's text."""
    try:
        return parse_dataset(text, options, name="gen")
    except ParseError as exc:
        return str(exc)


@given(scan_texts())
@example((PARSE_OPTIONS[0], "# id: 1\n# intent: x\na\tO\n\n# intent: y\n# id: 2\nb\tO\n\n"))
@example((PARSE_OPTIONS[0], "# id: 1\n# other: z\n# intent: x\na\tO\n\n \n\n# id: 2\n# intent: x\nb\tO\tz\n\n"))
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_the_scan_reads_as_the_line_by_line_path_alone(tmp_path, document):
    options, text = document
    with pytest.MonkeyPatch.context() as patch:
        read_line_by_line(patch)
        want = _parsed(text, options)
    assert _parsed(text, options) == want
    path = tmp_path / "gen.conll"
    path.write_bytes(text.encode("utf-8"))
    for size in (1, 7, 64, 1 << 16):
        with mock.patch.object(files, "_PIECE_SIZE", size):
            assert _loaded(path, options) == want, size


SCANNED = "# id: 1\n# intent: x\na\tO\n\n# id: 2\n# text: b c\n# intent: x\nb\tO\nc\tB-y\n\n"  # 10 lines


@pytest.mark.parametrize("tail, message", [
    ("# id: 3\n# intent: x\nd\tO\nragged\n", "line 14: expected at least 2 tab-separated columns, got 1: 'ragged'"),
    ("# id: 3\n# text: d\nd\tO\n\n", "block at line 11: missing '# intent:' comment"),
    ("# id: 2\n# intent: x\nd\tO\n", "line 11: duplicate utterance id '2' (first used by the block at line 5)"),
    ("\n \n# id: 2\n# intent: x\nd\tO\n\n", "line 13: duplicate utterance id '2' (first used by the block at line 5)"),
])
def test_an_error_after_scanned_blocks_names_its_line(tail, message, monkeypatch, tmp_path):
    text = SCANNED + tail
    stretches = list(corpus._stretches([text], corpus._written_pattern(0, 1).match))
    assert not isinstance(stretches[0], str) and not isinstance(stretches[1], str)  # both blocks scanned
    path = tmp_path / "e.conll"
    path.write_text(text, encoding="utf-8")
    for parse in (lambda: parse_dataset(text), lambda: load_dataset(path)):
        with pytest.raises(ParseError) as exc:
            parse()
        assert str(exc.value).removeprefix(f"{path}: ") == message
    read_line_by_line(monkeypatch)
    with pytest.raises(ParseError) as exc:
        parse_dataset(text)
    assert str(exc.value) == message


def test_duplicate_id_names_the_lines_of_both_blocks(tmp_path):
    text = "# id: 1\n# intent: x\na\tO\n\n\n# id: 2\n# intent: x\nb\tO\n\n# id: 1\n# intent: x\nc\tO\n"
    message = "line 10: duplicate utterance id '1' (first used by the block at line 1)"
    with pytest.raises(ParseError) as exc:
        parse_dataset(text)
    assert str(exc.value) == message
    # an id given by a block's position clashes in the same way
    with pytest.raises(ParseError, match=r"^line 5: duplicate utterance id '1' \(first used by the block at line 1\)$"):
        parse_dataset("# id: 1\n# intent: x\na\tO\n\n# intent: x\nb\tO\n")
    path = tmp_path / "dup.conll"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_dataset(path)
    assert str(exc.value) == f"{path}: {message}"


def test_format_options_refuse_a_variety_no_comment_can_carry():
    for variety in (" nord", "nord ", "no\nrd", "no\rrd"):
        with pytest.raises(ValueError, match="variety"):
            FormatOptions(variety=variety)
    assert FormatOptions(variety="").variety == ""


# ---------------------------------------------------------------------------
# BIO validation and spans
# ---------------------------------------------------------------------------


def test_validate_well_formed():
    utt = Utterance(id="1", tokens=("a", "b", "c"), slot_tags=("B-datetime", "I-datetime", "O"),
                    intent="x")
    assert validate_bio(utt) == []


def test_validate_i_without_b():
    utt = Utterance(id="1", tokens=("a", "b"), slot_tags=("O", "I-datetime"), intent="x")
    violations = validate_bio(utt)
    assert len(violations) == 1
    assert violations[0].kind == "I-without-B"
    assert violations[0].position == 1


def test_validate_label_mismatch():
    utt = Utterance(id="1", tokens=("a", "b"), slot_tags=("B-datetime", "I-reminder"), intent="x")
    violations = validate_bio(utt)
    assert [v.kind for v in violations] == ["I-label-mismatch"]
    assert violations[0].position == 1


def test_validate_malformed():
    utt = Utterance(id="1", tokens=("a", "b"), slot_tags=("B-", "x-y"), intent="x")
    assert [v.kind for v in validate_bio(utt)] == ["malformed-tag", "malformed-tag"]


def test_extract_spans_basic():
    assert extract_spans(["B-datetime", "I-datetime", "O", "B-location"]) == [
        Span(0, 2, "datetime"),
        Span(3, 4, "location"),
    ]
    assert extract_spans(["O", "O", "O"]) == []


def test_extract_spans_strict_raises_with_first_violation():
    with pytest.raises(BioFormatError) as exc:
        extract_spans(["O", "I-datetime", "I-datetime"], "strict")
    assert exc.value.violation.position == 1
    assert exc.value.violation.kind == "I-without-B"


def test_extract_spans_lenient_repairs():
    assert extract_spans(["O", "I-datetime", "I-datetime"], "lenient") == [Span(1, 3, "datetime")]


@given(st.lists(st.sampled_from(["O", "B-a", "I-a", "B-b", "I-b"]), max_size=12))
def test_span_round_trip_for_well_formed_sequences(tags):
    # Filter to well-formed sequences via the validator itself.
    utt_tags = tuple(tags)
    violations = validate_bio(
        Utterance(id="0", tokens=("t",) * len(tags), slot_tags=utt_tags, intent="x")
    ) if tags else []
    if violations:
        return
    spans = extract_spans(utt_tags, "strict")
    assert spans_to_tags(spans, len(tags)) == utt_tags


# ---------------------------------------------------------------------------
# Shared strings and the slotted Span
# ---------------------------------------------------------------------------


def _synthetic_corpus(seed, size=2000, word_types=500):
    rng = random.Random(seed)
    words = sorted({"".join(rng.choices("abdefghijklmnoprstuvyæøå", k=rng.randint(2, 9)))
                    for _ in range(word_types)})
    labels = ["datetime", "location", "reminder/todo", "weather/attribute", "person", "event"]
    blocks = []
    for i in range(size):
        tokens = rng.choices(words, k=rng.randint(3, 20))
        tags, open_label = [], None
        for _ in tokens:
            if open_label and rng.random() < 0.5:
                tags.append(f"I-{open_label}")
            elif rng.random() < 0.3:
                open_label = rng.choice(labels)
                tags.append(f"B-{open_label}")
            else:
                open_label = None
                tags.append("O")
        blocks.append("\n".join([
            f"# id: {i}",
            f"# text: {' '.join(tokens)}",
            f"# intent: {rng.choice(['alarm/set', 'weather/find', 'reminder/set_reminder'])}",
            f"# variety: {rng.choice(['north', 'west', 'trøndersk', 'east'])}",
            *(f"{token}\t{tag}" for token, tag in zip(tokens, tags)),
        ]))
    return "\n\n".join(blocks) + "\n"


def test_parsed_dataset_retains_under_two_and_a_half_times_its_text():
    text = _synthetic_corpus(seed=3)
    tracemalloc.start()
    try:
        dataset = parse_dataset(text)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(dataset) == 2000
    assert retained < 2.5 * len(text.encode("utf-8")), retained / len(text.encode("utf-8"))


def test_parse_transient_is_under_half_the_text():
    text = _synthetic_corpus(seed=5, size=7000)
    assert 1.8e6 < len(text) < 2.5e6
    tracemalloc.start()
    try:
        dataset = parse_dataset(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dataset) == 7000
    assert peak - retained < 0.5 * len(text), (peak - retained) / len(text)


def test_save_peak_is_under_a_quarter_of_the_file(tmp_path):
    dataset = parse_dataset(_synthetic_corpus(seed=6, size=7000))
    path = tmp_path / "big.conll"
    tracemalloc.start()
    try:
        save_dataset(dataset, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 1.8e6
    assert peak < 0.25 * size, peak / size


def test_a_load_peaks_at_most_0_3_mb_above_what_it_keeps(tmp_path):
    path = tmp_path / "big.conll"
    path.write_text(_synthetic_corpus(seed=8, size=3500), encoding="utf-8")
    assert 1e6 < path.stat().st_size < 1.2e6
    load_dataset(path)  # warm the pattern and tag caches first
    tracemalloc.start()
    try:
        dataset = load_dataset(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dataset) == 3500
    assert peak - retained <= 0.3e6, peak - retained


def test_a_stream_peaks_no_higher_for_a_longer_file(tmp_path):
    def peak(size):
        """The tracemalloc peak of streaming ``size`` utterances, no two
        sharing a token, through a consumer that keeps nothing."""
        path = tmp_path / f"{size}.conll"
        path.write_text("".join(
            f"# id: {i}\n# intent: x\n" + "".join(f"w{i}t{j}\tO\n" for j in range(12)) + "\n"
            for i in range(size)
        ), encoding="utf-8")
        stream = DatasetStream(path)
        for _ in stream:  # warm the pattern cache first
            pass
        tracemalloc.start()
        try:
            for _ in stream:
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1000), peak(2000)
    # Only the ids kept for the duplicate check grow, by about 60 bytes an
    # utterance; a table of the tokens read would add about 1 MB.
    assert large - small < 100_000, (small, large)


def test_no_load_reads_a_whole_file(tmp_path, monkeypatch):
    path = tmp_path / "d.conll"
    path.write_text(TWO_BLOCKS, encoding="utf-8")

    def refused(self):
        raise AssertionError(f"read_bytes({self})")

    monkeypatch.setattr(Path, "read_bytes", refused)
    want = parse_dataset(TWO_BLOCKS, name="d")
    assert load_dataset(path) == want
    with DatasetStore():
        assert load_dataset(path) == want
        assert load_dataset(path) == want


def test_equal_tokens_tags_intents_and_varieties_are_one_object():
    first, second = parse_dataset(
        "# id: 1\n# intent: a/b\n# variety: north\nvekk\tB-datetime\nmæ\tO\n"
        "\n"
        "# id: 2\n# intent: a/b\n# variety: north\nmæ\tO\nvekk\tB-datetime\n"
    )
    assert first.tokens[0] is second.tokens[1] and first.tokens[1] is second.tokens[0]
    assert first.slot_tags[0] is second.slot_tags[1] and first.slot_tags[1] is second.slot_tags[0]
    assert first.intent is second.intent and first.variety is second.variety


def test_span_labels_from_two_utterances_are_one_object():
    tags = ["".join(["B-", "date", "time"]), "".join(["I-", "datetime"])]  # fresh strings each
    (a,), (b,) = extract_spans(tags[:1], "strict"), extract_spans(["O", "O", tags[1]], "lenient")
    assert a.label == b.label == "datetime"
    assert a.label is b.label


def test_span_is_slotted_and_round_trips():
    span = Span(1, 3, "datetime")
    assert not hasattr(span, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        span.start = 0
    assert pickle.loads(pickle.dumps(span)) == span
    assert copy.deepcopy(span) == span
    assert dataclasses.replace(span, end=5) == Span(1, 5, "datetime")
    with pytest.raises(ValueError, match="invalid span range"):
        dataclasses.replace(span, end=1)


def test_utterance_is_slotted_and_round_trips():
    utt = Utterance("1", ("vekk", "mæ"), ("O", "B-x"), "alarm/set", "north", "vekk mæ")
    assert not hasattr(utt, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        utt.intent = "y"
    for copied in (pickle.loads(pickle.dumps(utt)), copy.copy(utt), copy.deepcopy(utt)):
        assert copied == utt and hash(copied) == hash(utt)
    assert dataclasses.replace(utt, variety=None).variety is None
    with pytest.raises(ValueError, match="contains whitespace"):
        dataclasses.replace(utt, tokens=("a b", "c"))


def test_bio_violation_is_slotted_and_round_trips():
    (violation,) = validate_bio(Utterance("7", ("vekk", "mæ"), ("O", "I-x"), "alarm/set"))
    same = BioViolation("7", 1, "I-without-B", "I-x not preceded by B/I tag")
    assert violation == same and hash(violation) == hash(same)
    assert violation != dataclasses.replace(same, position=0)
    with pytest.raises(TypeError):
        vars(violation)
    with pytest.raises(dataclasses.FrozenInstanceError):
        violation.position = 0
    for copied in (pickle.loads(pickle.dumps(violation)), copy.copy(violation), copy.deepcopy(violation)):
        assert copied == violation and hash(copied) == hash(violation)
    moved = dataclasses.replace(violation, utterance_id="8")
    assert (moved.utterance_id, moved.position, moved.kind, moved.detail) == ("8", 1, "I-without-B", same.detail)


def test_span_sorts_and_hashes_as_its_field_tuple():
    fields = [(2, 3, "b"), (0, 4, "a"), (0, 2, "b"), (0, 2, "a"), (1, 2, "a")]
    spans = [Span(*f) for f in fields]
    assert [dataclasses.astuple(s) for s in sorted(spans)] == sorted(fields)
    assert [hash(s) for s in spans] == [hash(f) for f in fields]
    assert len({Span(0, 2, "a"), Span(0, 2, "a"), Span(0, 2, "b")}) == 2


# ---------------------------------------------------------------------------
# Inventory and unseen reports
# ---------------------------------------------------------------------------


def _dataset(*utts):
    return Dataset(name="d", utterances=tuple(utts))


def test_inventory_empty():
    inv = label_inventory(_dataset())
    assert inv.utterance_count == 0
    assert inv.num_intents == 0
    assert inv.num_slot_labels == 0
    assert inv.num_full_tags == 0


def test_inventory_merges_b_and_i():
    d = _dataset(
        Utterance(id="1", tokens=("x", "y"), slot_tags=("B-a", "I-a"), intent="i1"),
        Utterance(id="2", tokens=("z",), slot_tags=("B-b",), intent="i2"),
    )
    inv = label_inventory(d)
    assert inv.num_slot_labels == 2
    assert inv.slot_label_counts == {"a": 2, "b": 1}
    assert inv.num_full_tags == 3
    assert inv.num_intents == 2
    assert ("slot_label", "a", "2") in inv.tsv_rows()
    assert isinstance(inv.to_dict(), dict)


def test_unseen_i_tag_with_seen_b():
    train = _dataset(Utterance(id="1", tokens=("x",), slot_tags=("B-a",), intent="i"))
    eval_ = _dataset(
        Utterance(id="1", tokens=("x", "y"), slot_tags=("B-a", "I-a"), intent="i")
    )
    report = unseen_label_report(label_inventory(train), label_inventory(eval_))
    assert report.unseen_full_tags == {"I-a": 1}
    assert report.unseen_slot_labels == {}
    assert report.unseen_intents == {}
    assert report.unseen_i_tags_with_seen_b == ("I-a",)


def test_inventory_and_unseen_report_read_labels_by_one_b_i_rule():
    train = _dataset(Utterance(id="1", tokens=("x", "y"), slot_tags=("B-a", "B-"), intent="i"))
    eval_ = _dataset(
        Utterance(id="1", tokens=("t",) * 7, slot_tags=("B-", "I-", "b-a", "O-x", "I-a", "I-b", "O"), intent="i")
    )
    inv = label_inventory(eval_)
    assert inv.slot_label_counts == {"a": 1, "b": 1}
    assert inv.full_tag_counts == {"B-": 1, "I-": 1, "b-a": 1, "O-x": 1, "I-a": 1, "I-b": 1, "O": 1}
    report = unseen_label_report(label_inventory(train), inv)
    assert report.unseen_slot_labels == {"b": 1}
    assert report.unseen_i_tags_with_seen_b == ("I-a",)
    assert "I-" in report.unseen_full_tags and "B-" not in report.unseen_full_tags


def test_unseen_identical_datasets_all_empty():
    d = _dataset(Utterance(id="1", tokens=("x",), slot_tags=("B-a",), intent="i"))
    report = unseen_label_report(label_inventory(d), label_inventory(d))
    assert not report.unseen_full_tags
    assert not report.unseen_slot_labels
    assert not report.unseen_intents
    assert not report.unseen_i_tags_with_seen_b


def test_unseen_counts_new_intent_and_label():
    train = _dataset(Utterance(id="1", tokens=("x",), slot_tags=("B-a",), intent="i"))
    eval_ = _dataset(
        Utterance(id="1", tokens=("x",), slot_tags=("B-c",), intent="j"),
        Utterance(id="2", tokens=("y",), slot_tags=("B-c",), intent="j"),
    )
    report = unseen_label_report(label_inventory(train), label_inventory(eval_))
    assert report.unseen_intents == {"j": 2}
    assert report.unseen_slot_labels == {"c": 2}
    assert report.unseen_full_tags == {"B-c": 2}


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


def _numbered_dataset(n, id_fn=str):
    return _dataset(
        *(Utterance(id=id_fn(i), tokens=("t",), slot_tags=("O",), intent="i") for i in range(n))
    )


def test_split_sizes():
    part1, part2 = split_dataset(_numbered_dataset(10), 0.9, seed=1)
    assert (len(part1), len(part2)) == (9, 1)


def test_split_size_is_exact_at_a_half_boundary():
    # 0.58 * 25 is 14.499... as a float; the exact share is 14.5, which rounds up
    part1, part2 = split_dataset(_numbered_dataset(25), 0.58, seed=1)
    assert (len(part1), len(part2)) == (15, 10)


def test_split_deterministic_and_partitioning():
    d = _numbered_dataset(20)
    a1, a2 = split_dataset(d, 0.7, seed=5)
    b1, b2 = split_dataset(d, 0.7, seed=5)
    assert a1 == b1 and a2 == b2
    ids = [u.id for u in a1.utterances] + [u.id for u in a2.utterances]
    assert sorted(ids, key=int) == [u.id for u in d.utterances]
    c1, _ = split_dataset(d, 0.7, seed=6)
    assert c1 != a1  # different seed should move at least one utterance


def test_split_preserves_order_within_parts():
    d = _numbered_dataset(12)
    part1, part2 = split_dataset(d, 0.5, seed=3)
    for part in (part1, part2):
        positions = [int(u.id) for u in part.utterances]
        assert positions == sorted(positions)


def test_grouped_split_keeps_groups_whole():
    utts = [
        Utterance(id=f"{g}-{j}", tokens=("t",), slot_tags=("O",), intent="i")
        for g in range(4)
        for j in range(3)
    ]
    d = _dataset(*utts)
    part1, part2 = split_dataset(d, 0.75, seed=2, strategy="grouped")
    assert len(part1) == 9
    groups1 = {u.id.split("-")[0] for u in part1.utterances}
    groups2 = {u.id.split("-")[0] for u in part2.utterances}
    assert not groups1 & groups2


def test_grouped_split_never_straddles_for_any_seed():
    utts = [
        Utterance(id=f"{g}-{j}", tokens=("t",), slot_tags=("O",), intent="i")
        for g in range(5)
        for j in range(2)
    ]
    d = _dataset(*utts)
    for seed in range(25):
        part1, part2 = split_dataset(d, 0.6, seed=seed, strategy="grouped")
        assert not {u.id[0] for u in part1.utterances} & {u.id[0] for u in part2.utterances}
        assert len(part1) + len(part2) == 10


def test_grouped_split_missing_key_errors():
    d = _numbered_dataset(4)  # ids carry no delimiter
    with pytest.raises(SplitError, match="group key"):
        split_dataset(d, 0.5, seed=1, strategy="grouped")


@given(st.integers(1, 60), st.floats(0.01, 0.99), st.integers(0, 2**64 - 1))
@settings(max_examples=200)
def test_uniform_split_is_grouped_split_of_singleton_groups(n, ratio, seed):
    d = _numbered_dataset(n, id_fn=lambda i: f"{i}-x")  # each id its own group
    uniform = split_dataset(d, ratio, seed=seed)
    assert uniform == split_dataset(d, ratio, seed=seed, strategy="grouped")
    # the uniform rule itself: the first round(ratio*N) indices of one seeded shuffle
    indices = list(range(n))
    SplitMix64(derive_seed(seed, b"split")).shuffle(indices)
    first = set(indices[: share_count(ratio, n)])
    assert [u.id for u in uniform[0]] == [u.id for i, u in enumerate(d) if i in first]


def test_split_with_an_empty_group_delimiter():
    d = _numbered_dataset(6)
    with pytest.raises(SplitError, match="^the group delimiter is empty"):
        split_dataset(d, 0.5, seed=1, strategy="grouped", group_delimiter="")
    assert split_dataset(d, 0.5, seed=1, group_delimiter="") == split_dataset(d, 0.5, seed=1)


def test_split_rejects_bad_inputs():
    with pytest.raises(SplitError):
        split_dataset(_dataset(), 0.5, seed=1)
    with pytest.raises(SplitError):
        split_dataset(_numbered_dataset(4), 1.0, seed=1)
