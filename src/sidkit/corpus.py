"""BIO-annotated slot/intent corpora: parsing, writing, validation, splits.

File format (CoNLL-style blocks, UTF-8):

    # id: 7
    # text: minn mæ på møtet
    # intent: reminder/set_reminder
    minn<TAB>O
    mæ<TAB>O
    på<TAB>O
    møtet<TAB>B-reminder/todo

Blocks are separated by any run of blank or whitespace-only lines (the writer
puts exactly one empty line between blocks); comment lines start with "# " and
carry "key: value" pairs (id, text, intent, variety). Token lines are
tab-separated with a configurable column map (default: column 0 = token,
column 1 = slot tag). Malformed slot tags are kept verbatim by the parser;
``validate_bio`` reports them.

The parser scans each piece of the text for blocks as ``write_dataset``
writes them: where a block may start, one pattern match reads the block and
the empty line after it in place, its comments too when they come in the
written order, and the utterance is built without checking again what the
match proved. Where the pattern does not match, the text up to the next
empty line is read line by line with every check, and the scan resumes
after it. ``Utterance(...)`` always checks.

A load reads the file through ``files``' one reader, a piece at a time,
and parses each piece before it reads the next. One parse loop yields each
utterance as its block is read: ``load_dataset`` keeps them all, and a
:class:`DatasetStream` hands them on one at a time, keeps none and shares
no strings between them.

Inside a :class:`DatasetStore` scope (a pipeline run holds one),
``load_dataset`` and ``save_dataset`` keep the datasets they parse or write,
so a later load or stream with the same format options parses nothing when
the scope's holder gives the file as unchanged (``DatasetStore.digests``).
A file that is streamed is not kept.
"""

from __future__ import annotations

import os
import re
import sys
from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Literal, Sequence

from .files import _decoded, _lf, _read_pieces, new_sha256, replace_file
from .rng import SplitMix64, derive_seed, share_count


class CorpusError(ValueError):
    """Base class for corpus-level data errors."""


class ParseError(CorpusError):
    """Raised when an input file is not UTF-8 or does not follow the block format."""


class BioFormatError(CorpusError):
    """Raised by strict span extraction on the first BIO violation."""

    def __init__(self, violation: "BioViolation") -> None:
        super().__init__(
            f"BIO violation at position {violation.position}: "
            f"{violation.kind} ({violation.detail})"
        )
        self.violation = violation


class SplitError(CorpusError):
    """Raised when a dataset split cannot be carried out as requested."""


RepairPolicy = Literal["strict", "lenient"]


@dataclass(frozen=True, slots=True)
class Utterance:
    """One example: tokens with BIO slot tags plus an intent label.

    Slot tags are stored verbatim (including malformed ones); only structural
    invariants are enforced here. Use :func:`validate_bio` for tag syntax.
    Slotted, so an instance holds its six fields and no ``__dict__``.
    """

    id: str
    tokens: tuple[str, ...]
    slot_tags: tuple[str, ...]
    intent: str
    variety: str | None = None
    raw_text: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "slot_tags", tuple(self.slot_tags))
        if len(self.tokens) != len(self.slot_tags):
            raise ValueError(
                f"utterance {self.id!r}: {len(self.tokens)} tokens but "
                f"{len(self.slot_tags)} slot tags"
            )
        for tok in self.tokens:
            if tok.split() != [tok]:
                if not tok:
                    raise ValueError(f"utterance {self.id!r}: empty token")
                raise ValueError(f"utterance {self.id!r}: token {tok!r} contains whitespace")
        # a tab or line break in a slot tag would split its token line when written
        joined = "".join(self.slot_tags)
        if "\t" in joined or "\n" in joined or "\r" in joined:
            tag = next(t for t in self.slot_tags if "\t" in t or "\n" in t or "\r" in t)
            raise ValueError(f"utterance {self.id!r}: slot tag {tag!r} contains a tab or line break")
        # comment-carried fields must survive a write/parse cycle losslessly
        for field_name in ("id", "intent", "variety", "raw_text"):
            problem = _comment_value_problem(field_name, getattr(self, field_name))
            if problem:
                raise ValueError(f"utterance {self.id!r}: {problem}")

    def __len__(self) -> int:
        return len(self.tokens)


def _comment_value_problem(field_name: str, value: str | None) -> str | None:
    """Why ``value`` would not survive a write/parse cycle as a comment, if it would not."""
    if value is not None and ("\n" in value or "\r" in value):
        return f"{field_name} contains a newline"
    if value is not None and value != value.strip():
        return f"{field_name} {value!r} has leading/trailing whitespace"
    return None


def _trusted_utterance(
    id: str,
    tokens: tuple[str, ...],
    slot_tags: tuple[str, ...],
    intent: str,
    variety: str | None,
    raw_text: str | None,
) -> Utterance:
    """``Utterance(...)`` without the checks, for a caller that proved them."""
    utterance = object.__new__(Utterance)
    set_field = object.__setattr__
    set_field(utterance, "id", id)
    set_field(utterance, "tokens", tokens)
    set_field(utterance, "slot_tags", slot_tags)
    set_field(utterance, "intent", intent)
    set_field(utterance, "variety", variety)
    set_field(utterance, "raw_text", raw_text)
    return utterance


@dataclass(frozen=True, order=True, slots=True)
class Span:
    """A labeled slot over the half-open token range [start, end)."""

    start: int
    end: int
    label: str

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ValueError(f"invalid span range [{self.start}, {self.end})")


@dataclass(frozen=True)
class Dataset:
    """An ordered, immutable collection of utterances with unique ids."""

    name: str
    utterances: tuple[Utterance, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "utterances", tuple(self.utterances))
        seen: set[str] = set()
        for utt in self.utterances:
            if utt.id in seen:
                raise ValueError(f"dataset {self.name!r}: duplicate utterance id {utt.id!r}")
            seen.add(utt.id)

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self) -> Iterator[Utterance]:
        return iter(self.utterances)

    def by_id(self) -> dict[str, Utterance]:
        return {utt.id: utt for utt in self.utterances}


@dataclass(frozen=True, slots=True)
class BioViolation:
    """One spot where a tag sequence breaks the BIO scheme; slotted, as ``Utterance`` is."""

    utterance_id: str
    position: int
    kind: Literal["I-without-B", "I-label-mismatch", "malformed-tag"]
    detail: str


@dataclass(frozen=True)
class FormatOptions:
    """Column/comment mapping for the block file format."""

    token_col: int = 0
    tag_col: int = 1
    require_intent: bool = True
    variety: str | None = None  # fallback when a block carries no variety comment

    def __post_init__(self) -> None:
        if self.token_col < 0 or self.tag_col < 0:
            raise ValueError("column indices must be non-negative")
        if self.token_col == self.tag_col:
            raise ValueError("token and tag columns must differ")
        problem = _comment_value_problem("variety", self.variety)
        if problem:
            raise ValueError(problem)


DEFAULT_FORMAT = FormatOptions()

_COMMENT_PREFIX = "# "
_KNOWN_COMMENT_KEYS = ("id", "text", "intent", "variety")

# Bounds of the tag and span caches below, which last as long as the process;
# an entry takes about 200 bytes (a tag's entry also keeps the tag and label).
_TAG_CACHE_SIZE = 1024
_SPAN_CACHE_SIZE = 16384


@lru_cache(maxsize=_TAG_CACHE_SIZE)
def _classify_tag(tag: str) -> tuple[str | None, bool, bool]:
    """``(label, is an I-tag, is malformed)`` for one slot tag.

    The one B/I rule: ``B-<label>`` and ``I-<label>`` need a non-empty label,
    which is interned, so equal labels are one object; ``O`` has no label and
    anything else is malformed.
    """
    if tag == "O":
        return None, False, False
    if len(tag) > 2 and tag[0] in "BI" and tag[1] == "-":
        return sys.intern(tag[2:]), tag[0] == "I", False
    return None, False, True


@lru_cache(maxsize=_SPAN_CACHE_SIZE)
def _shared_span(start: int, end: int, label: str) -> Span:
    """One Span object per distinct ``(start, end, label)``. Span is frozen,
    so a shared object compares, hashes and reads as a new one would."""
    return Span(start, end, label)


# ---------------------------------------------------------------------------
# Parsing and writing
# ---------------------------------------------------------------------------


def parse_dataset(source: str, options: FormatOptions = DEFAULT_FORMAT, name: str = "") -> Dataset:
    """Parse the blank-line-separated utterance blocks of the document
    string ``source`` into a Dataset (:func:`load_dataset` parses a file).

    One leading byte-order mark is dropped, and CRLF and lone CR line ends
    count as LF, as in a file read with universal newlines. Any run of blank
    or whitespace-only lines ends a block. Malformed slot tags are kept
    verbatim; structural problems (ragged token lines, missing required
    intent, a duplicate id) raise :class:`ParseError` with a line number.
    """
    return Dataset(name, tuple(_parse_pieces((source,), options)))


def _parse_pieces(
    pieces: Iterable[str], options: FormatOptions, share_strings: bool = True
) -> Iterator[Utterance]:
    """The utterances of the text ``pieces`` make when joined, each yielded
    as soon as its block is read: the one parse loop, which
    :func:`parse_dataset`, :func:`load_dataset` and :class:`DatasetStream` share.

    Each line is read once, and only the current piece and the open block
    are held, never the whole text or a list of its lines. Equal tokens,
    slot tags, intents and varieties are one shared string object across
    the whole text when ``share_strings`` is true; a stream shares none, so
    it keeps no table that grows with the text. An id that an earlier block
    used raises ParseError once the text ends, so an error further on is the
    one raised.
    """
    ids: list[str] = []
    # each utterance's first line, for a duplicate id's error: 8 bytes each, where
    # a list of ints takes about 40
    starts = bytearray()
    # one object per distinct token, tag, intent and variety
    share = {}.setdefault if share_strings else _same
    for first, utterance in _blocks(pieces, options, share):
        starts += first.to_bytes(8, sys.byteorder)
        ids.append(utterance.id)
        yield utterance
    if len(set(ids)) < len(ids):
        raise _duplicate_id_error(starts, ids)


def _same(key: str, value: str) -> str:
    """``dict.setdefault``'s call, for a parse that shares no strings."""
    return value


def _blocks(
    pieces: Iterable[str], options: FormatOptions, share: Callable[[str, str], str]
) -> Iterator[tuple[int, Utterance]]:
    """``(first line, utterance)`` of each block of the text ``pieces`` make,
    in text order, each of its strings passed through ``share``.

    ``_stretches`` hands over each block ``write_dataset`` could have written
    as the match of ``_written_pattern`` in its piece, which ``_written_block``
    builds, and the rest of the text as chunks, read here line by line.
    """
    width = max(options.token_col, options.tag_col) + 1
    written = _written_pattern(options.token_col, options.tag_col).match
    index = 0  # of the next utterance, its id when its block has no ``# id:`` comment
    heads: list[str] = []  # the open block's comment lines
    tokens: list[str] = []
    tags: list[str] = []
    first = 0  # line number of the open block's first line; 0 while no block is open
    lineno = 0  # of the last line read
    for stretch in _stretches(_lf(pieces), written):
        if not isinstance(stretch, str):  # a written block and the blank line after it
            yield lineno + 1, _written_block(stretch, lineno + 1, index, options, share)
            index += 1
            lineno += stretch.string.count("\n", stretch.start(), stretch.end())
            continue
        # a chunk runs up to and including the first of two line breaks in a
        # row, so its last line is the blank line that ends the open block
        for lineno, line in enumerate(stretch.split("\n"), lineno + 1):
            if not line.strip():
                if first:
                    yield first, _utterance(heads, tokens, tags, first, index, options, share)
                    index += 1
                    heads, tokens, tags, first = [], [], [], 0
                continue
            first = first or lineno
            if line.startswith(_COMMENT_PREFIX):
                heads.append(line)
                continue
            cols = line.split("\t")
            if len(cols) < width:
                raise ParseError(
                    f"line {lineno}: expected at least {width} tab-separated columns, "
                    f"got {len(cols)}: {line!r}"
                )
            token, tag = cols[options.token_col], cols[options.tag_col]
            tokens.append(share(token, token))
            tags.append(share(tag, tag))
    if first:
        yield first, _utterance(heads, tokens, tags, first, index, options, share)


def _stretches(
    pieces: Iterable[str], written: Callable[[str, int], re.Match[str] | None]
) -> Iterator[str | re.Match[str]]:
    """The text ``pieces`` make when joined, in order, as the match
    ``written`` finds in its piece where a block may start, or else as a
    chunk: the text from there up to and including the first of the next
    two line breaks in a row (the second is dropped), read on across pieces,
    or to the end. A match runs up to and including the two line breaks that
    end its block, so a block may start where a match or a chunk ends. Only
    the open chunk and one piece are held."""
    held: list[str] = []  # the open chunk's text from earlier pieces
    for piece in filter(None, pieces):
        start = 0
        if held:  # finish the open chunk first; its two line breaks may straddle the pieces
            if held[-1].endswith("\n") and piece.startswith("\n"):
                stop = -1
            elif (stop := piece.find("\n\n")) < 0:
                held.append(piece)
                continue
            held.append(piece[: stop + 1])
            yield "".join(held)
            held, start = [], stop + 2
        while True:
            if (match := written(piece, start)) is not None:
                yield match
                start = match.end()
            elif (stop := piece.find("\n\n", start)) >= 0:
                yield piece[start : stop + 1]
                start = stop + 2
            else:
                break
        if start < len(piece):
            held.append(piece[start:])
    yield "".join(held)


# The comments ``write_dataset`` writes, in its order; a group holds the text after each key's colon.
_WRITTEN_COMMENTS = "# id:([^\n]*)\n(?:# text:([^\n]*)\n)?# intent:([^\n]*)\n(?:# variety:([^\n]*)\n)?"


def _written_pattern(token_col: int, tag_col: int) -> re.Pattern[str]:
    """A block as ``write_dataset`` writes it, then the empty line after it:
    the written comments (groups 1 to 4) or any ``# `` comment lines
    (group 5), then token lines (group 6) of exactly the written number of
    columns, a token without whitespace, no tab or line break elsewhere and
    no line starting ``# ``."""
    columns = ["[^\t\n]*"] * (max(token_col, tag_col) + 1)
    columns[token_col] = r"\S+"
    columns[0] = "(?!# )" + columns[0]
    line = "\t".join(columns)
    # re caches the compiled pattern
    return re.compile(f"(?:{_WRITTEN_COMMENTS}|((?:# [^\n]*\n)*))({line}(?:\n{line})*)\n\n")


def _written_block(
    match: re.Match[str], first_lineno: int, index: int, options: FormatOptions,
    share: Callable[[str, str], str],
) -> Utterance:
    """The Utterance of the block ``match`` (of ``_written_pattern``) holds.
    The match proves the token and tag checks of ``Utterance`` (``re``'s
    ``\\s`` is ``str.isspace``), each comment is one stripped line and
    FormatOptions checked ``options.variety``, so nothing is checked again.
    Comments in the written order are read from the match's groups; any
    others by ``_utterance``."""
    id, raw_text, intent, variety, heads, body = match.groups()
    cells = body.replace("\t", "\n").split("\n")
    cells = tuple(cells if share is _same else map(share, cells, cells))
    width = max(options.token_col, options.tag_col) + 1
    tokens, tags = cells[options.token_col :: width], cells[options.tag_col :: width]
    if heads is not None:
        return _utterance(
            heads.split("\n"), tokens, tags, first_lineno, index, options, share, _trusted_utterance
        )
    intent = intent.strip()
    if variety is None:
        variety = options.variety
    else:
        variety = variety.strip()
        variety = share(variety, variety)
    raw_text = raw_text if raw_text is None else raw_text.strip()
    return _trusted_utterance(id.strip(), tokens, tags, share(intent, intent), variety, raw_text)


def _utterance(
    heads: Iterable[str],
    tokens: Sequence[str],
    tags: Sequence[str],
    first_lineno: int,
    index: int,
    options: FormatOptions,
    share: Callable[[str, str], str],
    build: Callable[..., Utterance] = Utterance,
) -> Utterance:
    """The Utterance ``build`` makes of the block whose comment lines are
    ``heads`` and whose first line is ``first_lineno``; its id is ``index``
    when the block has no ``# id:`` comment. A later comment with a known
    key wins."""
    comments: dict[str, str] = {}
    for line in heads:
        key, sep, value = line[len(_COMMENT_PREFIX) :].partition(":")
        if sep and (key := key.strip()) in _KNOWN_COMMENT_KEYS:
            comments[key] = value.strip()
    intent = comments.get("intent")
    if intent is None:
        if options.require_intent:
            raise ParseError(f"block at line {first_lineno}: missing '# intent:' comment")
        intent = ""
    variety = comments.get("variety", options.variety)
    try:
        return build(
            comments["id"] if "id" in comments else str(index),
            tuple(tokens),
            tuple(tags),
            share(intent, intent),
            variety if variety is None else share(variety, variety),
            comments.get("text"),
        )
    except ValueError as exc:
        raise ParseError(f"block at line {first_lineno}: {exc}") from exc


def _duplicate_id_error(starts: bytearray, ids: list[str]) -> ParseError:
    """The error naming the first lines of the first block whose id an earlier
    block used and of that block; ``starts`` holds each block's first line
    and ``ids`` its id."""
    first_lines = memoryview(starts).cast("Q")
    first_use: dict[str, int] = {}
    for later, id in enumerate(ids):
        if (earlier := first_use.setdefault(id, later)) != later:
            break
    return ParseError(
        f"line {first_lines[later]}: duplicate utterance id {id!r} "
        f"(first used by the block at line {first_lines[earlier]})"
    )


def write_dataset(dataset: Dataset, options: FormatOptions = DEFAULT_FORMAT) -> str:
    """Serialize a Dataset to the block format ``parse_dataset`` reads.

    ``parse_dataset(write_dataset(d), options)`` reproduces ``d``
    field-for-field (given ``options.variety`` is None, so varieties are
    carried by block comments alone).
    """
    return "".join(_written_blocks(dataset, options))


def _written_blocks(dataset: Dataset, options: FormatOptions) -> Iterator[str]:
    """``write_dataset``'s text, one block and the line breaks after it at a time."""
    last = len(dataset.utterances) - 1
    for i, utt in enumerate(dataset.utterances):
        yield _write_block(utt, options) + ("\n" if i == last else "\n\n")


def _write_block(utt: Utterance, options: FormatOptions) -> str:
    lines = [f"# id: {utt.id}"]
    if utt.raw_text is not None:
        lines.append(f"# text: {utt.raw_text}")
    lines.append(f"# intent: {utt.intent}")
    if utt.variety is not None:
        lines.append(f"# variety: {utt.variety}")
    if options.tag_col == 0:  # only a tag in column 0 can start a line like a comment
        for tag in utt.slot_tags:
            if tag.startswith(_COMMENT_PREFIX):
                raise ValueError(f"utterance {utt.id!r}: slot tag {tag!r} would be read back as a comment")
    columns: list[Iterable[str]] = [repeat("_")] * (max(options.token_col, options.tag_col) + 1)
    columns[options.token_col] = utt.tokens
    columns[options.tag_col] = utt.slot_tags
    lines.extend(map("\t".join, zip(*columns)))
    return "\n".join(lines)


class DatasetStore:
    """The datasets parsed or written in a ``with DatasetStore():`` scope.

    Each entry sits under its file's absolute path with the SHA-256 of the
    bytes it was parsed from or written as and the FormatOptions it was
    parsed or written with. ``load_dataset`` serves a dataset from the
    store only when all three match, the file's digest taken from ``digests``
    (absolute path -> SHA-256), which the scope's holder fills, so a lookup
    reads no file and a bare scope serves nothing. The scope lives in a ContextVar,
    so a thread started inside it sees no store; outside every scope nothing is stored or hashed.
    """

    def __init__(self) -> None:
        self._entries: dict[str, tuple[str, FormatOptions, Dataset]] = {}
        self.digests: dict[str, str] = {}

    def __enter__(self) -> "DatasetStore":
        self._token = _active_store.set(self)
        return self

    def __exit__(self, *exc: object) -> None:
        _active_store.reset(self._token)

    def keep(self, paths: Iterable[str | Path]) -> None:
        """Drop every entry whose file is not one of ``paths``."""
        wanted = {os.path.abspath(p) for p in paths}
        for key in self._entries.keys() - wanted:
            del self._entries[key]

    def get(self, path: Path, options: FormatOptions) -> Dataset | None:
        """The dataset stored for ``path`` and ``options`` if ``digests``
        gives the file the digest it was stored with."""
        entry = self._entries.get(key := os.path.abspath(path))
        if entry is None or entry[1] != options or entry[0] != self.digests.get(key):
            return None
        return entry[2]

    def put(self, path: Path, digest: str, options: FormatOptions, dataset: Dataset) -> None:
        self._entries[os.path.abspath(path)] = (digest, options, dataset)


_active_store: ContextVar[DatasetStore | None] = ContextVar("sidkit_dataset_store", default=None)


def load_dataset(
    path: str | Path,
    options: FormatOptions = DEFAULT_FORMAT,
    name: str | None = None,
) -> Dataset:
    """Parse the file ``path``; the dataset is named ``name`` or the file's stem.

    Inside a :class:`DatasetStore` scope, a file whose ``options`` and digest
    in the store's ``digests`` match a stored entry is not parsed again. A
    :class:`ParseError` names the file (``files.naming``).
    """
    path = Path(path)
    name = name if name is not None else path.stem
    store = _active_store.get()
    stored = None if store is None else store.get(path, options)
    if stored is not None:
        return Dataset(name=name, utterances=stored.utterances)
    digest = None if store is None else new_sha256()  # of the bytes parsed, which the file may no longer hold
    dataset = Dataset(name=name, utterances=tuple(_read_utterances(path, options, digest)))
    if store is not None:
        store.put(path, digest.hexdigest(), options, dataset)
    return dataset


class DatasetStream:
    """The utterances of the corpus file ``path`` as :func:`load_dataset`
    reads them, each yielded as soon as its block is parsed, so no dataset is
    built or kept; ``name`` is the file's stem, as ``load_dataset`` names it.

    Each iteration reads the file again. Inside a :class:`DatasetStore`
    scope, a file the store would serve to ``load_dataset`` is iterated from
    the stored dataset and not read, and a file that is read is not stored.
    A :class:`ParseError` names the file and is raised when the iteration
    reaches it; a duplicate id's, once the file ends. No string is shared
    between the utterances read, so nothing grows with the file but its ids.
    """

    def __init__(self, path: str | Path, options: FormatOptions = DEFAULT_FORMAT) -> None:
        self.path = Path(path)
        self.options = options
        self.name = self.path.stem

    def __iter__(self) -> Iterator[Utterance]:
        store = _active_store.get()
        stored = None if store is None else store.get(self.path, self.options)
        if stored is not None:
            return iter(stored.utterances)
        return _read_utterances(self.path, self.options, None, False)  # no digest; no string shared


def _read_utterances(
    path: Path, options: FormatOptions, digest=None, share_strings: bool = True
) -> Iterator[Utterance]:
    """``_parse_pieces`` over the file ``path``, each piece of its bytes fed
    to ``digest`` when given; a byte that is not UTF-8 further on in the
    file is the error named rather than a ParseError before it."""
    with _read_pieces(path, digest) as pieces:
        texts = _corpus_text(pieces)
        try:
            yield from _parse_pieces(texts, options, share_strings)
        except ParseError:
            for _ in texts:
                pass
            raise


def _corpus_text(pieces: Iterable[bytes]) -> Iterator[str]:
    """``files._decoded(pieces)``, whose invalid byte raises ParseError."""
    try:
        yield from _decoded(pieces)
    except ValueError as exc:
        raise ParseError(*exc.args) from None


def save_dataset(dataset: Dataset, path: str | Path, options: FormatOptions = DEFAULT_FORMAT) -> None:
    """Write ``write_dataset(dataset, options)`` to ``path`` as UTF-8, a block at a time.

    The file is written through :func:`sidkit.files.replace_file`, so
    ``path`` is replaced only once every block is written. Inside a
    :class:`DatasetStore` scope the dataset is stored when the file reads
    back as it exactly: ``options.variety`` is None or every utterance has
    a variety.
    """
    store = _active_store.get()
    kept = store is not None and (options.variety is None or all(u.variety is not None for u in dataset))
    digest = new_sha256() if kept else None
    with replace_file(path) as fh:
        for block in _written_blocks(dataset, options):
            data = block.encode("utf-8")
            fh.write(data)
            if digest is not None:
                digest.update(data)
    if digest is not None:
        store.put(path, digest.hexdigest(), options, dataset)


# ---------------------------------------------------------------------------
# BIO validation and span extraction
# ---------------------------------------------------------------------------


def _scan_tags(
    tags: Sequence[str], utterance_id: str = ""
) -> tuple[list[Span], list[BioViolation]]:
    """Single pass over a tag sequence: lenient spans plus all violations.

    Lenient semantics: a violating I-X opens a new span (as if it were B-X);
    a malformed tag closes any open span and is otherwise treated as O.

    Each distinct tag is classified once (``_classify_tag``) and each distinct
    span is built once (``_shared_span``), so equal spans are one object;
    the lists returned are new on every call. The caches keep at most 1,024
    tags (about 0.2 MB plus the tags and labels) and 16,384 spans (about
    3.5 MB); beyond that, a tag or span is classified or built again.
    """
    spans: list[Span] = []
    violations: list[BioViolation] = []
    start = 0
    label: str | None = None  # label of the open span, None after O or a malformed tag
    classify, span = _classify_tag, _shared_span
    for i, tag in enumerate(tags):
        new_label, is_i, malformed = classify(tag)
        if is_i:
            if new_label == label:
                continue  # the open span goes on
            if label is None:
                violations.append(
                    BioViolation(utterance_id, i, "I-without-B", f"{tag} not preceded by B/I tag")
                )
            else:
                violations.append(
                    BioViolation(
                        utterance_id, i, "I-label-mismatch", f"{tag} follows a {label!r} span"
                    )
                )
        elif malformed:
            violations.append(
                BioViolation(utterance_id, i, "malformed-tag", f"{tag!r} is not O, B-<label> or I-<label>")
            )
        if label is not None:
            spans.append(span(start, i, label))
        start, label = i, new_label
    if label is not None:
        spans.append(span(start, len(tags), label))
    return spans, violations


def validate_bio(utterance: Utterance) -> list[BioViolation]:
    """All BIO violations in an utterance; empty iff tags are well-formed."""
    _, violations = _scan_tags(utterance.slot_tags, utterance.id)
    return violations


def extract_spans(tags: Sequence[str], repair: RepairPolicy = "strict") -> list[Span]:
    """Maximal slot spans per BIO semantics, sorted by start.

    ``repair="strict"`` raises :class:`BioFormatError` citing the first
    violation; ``repair="lenient"`` opens a new span at each violating I-tag
    and skips malformed tags.
    """
    spans, violations = _scan_tags(tags)
    if repair == "strict" and violations:
        raise BioFormatError(violations[0])
    if repair not in ("strict", "lenient"):
        raise ValueError(f"unknown repair policy {repair!r}")
    return spans


# ---------------------------------------------------------------------------
# Inventories and reports
# ---------------------------------------------------------------------------


def _count_rows(count_header: str, sections: Iterable[tuple[str, dict[str, int]]]) -> list[tuple[str, ...]]:
    """A ``kind / item / <count_header>`` table: one row per item of each section, items sorted."""
    return [("kind", "item", count_header)] + [
        (kind, item, str(count)) for kind, counts in sections for item, count in sorted(counts.items())
    ]


@dataclass(frozen=True)
class InventoryReport:
    """Label/intent distribution of one dataset."""

    name: str
    utterance_count: int
    intent_counts: dict[str, int]
    slot_label_counts: dict[str, int]  # B/I merged, counted per tag occurrence
    full_tag_counts: dict[str, int]

    @property
    def num_intents(self) -> int:
        return len(self.intent_counts)

    @property
    def num_slot_labels(self) -> int:
        return len(self.slot_label_counts)

    @property
    def num_full_tags(self) -> int:
        return len(self.full_tag_counts)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "utterances": self.utterance_count,
            "num_intents": self.num_intents,
            "num_slot_labels": self.num_slot_labels,
            "num_full_tags": self.num_full_tags,
            "intents": dict(sorted(self.intent_counts.items())),
            "slot_labels": dict(sorted(self.slot_label_counts.items())),
            "full_tags": dict(sorted(self.full_tag_counts.items())),
        }

    def tsv_rows(self) -> list[tuple[str, ...]]:
        rows = _count_rows("count", [
            ("intent", self.intent_counts),
            ("slot_label", self.slot_label_counts),
            ("full_tag", self.full_tag_counts),
        ])
        return [*rows, ("utterances", "", str(self.utterance_count))]


def label_inventory(dataset: Dataset) -> InventoryReport:
    """Count distinct intents, slot labels (B/I merged), and full tags."""
    intents = Counter(utt.intent for utt in dataset.utterances)
    full_tags = Counter(tag for utt in dataset.utterances for tag in utt.slot_tags)
    slot_labels: Counter[str] = Counter()
    for tag, count in full_tags.items():  # first-seen order, as for the tags themselves
        label = _classify_tag(tag)[0]
        if label is not None:
            slot_labels[label] += count
    return InventoryReport(
        name=dataset.name,
        utterance_count=len(dataset),
        intent_counts=dict(intents),
        slot_label_counts=dict(slot_labels),
        full_tag_counts=dict(full_tags),
    )


@dataclass(frozen=True)
class UnseenReport:
    """Labels present in the evaluation data but absent from training.

    ``unseen_i_tags_with_seen_b`` singles out I-X tags whose slot label X was
    observed in training (via B-X or I-X): exactly the tags a model restricted
    to its training tag set can never produce.
    """

    train_name: str
    eval_name: str
    unseen_intents: dict[str, int]
    unseen_slot_labels: dict[str, int]
    unseen_full_tags: dict[str, int]
    unseen_i_tags_with_seen_b: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "train": self.train_name,
            "eval": self.eval_name,
            "unseen_intents": dict(sorted(self.unseen_intents.items())),
            "unseen_slot_labels": dict(sorted(self.unseen_slot_labels.items())),
            "unseen_full_tags": dict(sorted(self.unseen_full_tags.items())),
            "unseen_i_tags_with_seen_b": sorted(self.unseen_i_tags_with_seen_b),
        }

    def tsv_rows(self) -> list[tuple[str, ...]]:
        full = self.unseen_full_tags
        return _count_rows("eval_count", [
            ("intent", self.unseen_intents),
            ("slot_label", self.unseen_slot_labels),
            ("full_tag", full),
            ("i_tag_with_seen_b", {tag: full[tag] for tag in self.unseen_i_tags_with_seen_b}),
        ])


def unseen_label_report(train_inv: InventoryReport, eval_inv: InventoryReport) -> UnseenReport:
    """Intents, slot labels, and full tags in the evaluation inventory never seen in the training one."""

    def unseen(counts: dict[str, int], train_counts: dict[str, int]) -> dict[str, int]:
        return {key: count for key, count in counts.items() if key not in train_counts}

    unseen_full = unseen(eval_inv.full_tag_counts, train_inv.full_tag_counts)
    return UnseenReport(
        train_name=train_inv.name,
        eval_name=eval_inv.name,
        unseen_intents=unseen(eval_inv.intent_counts, train_inv.intent_counts),
        unseen_slot_labels=unseen(eval_inv.slot_label_counts, train_inv.slot_label_counts),
        unseen_full_tags=unseen_full,
        unseen_i_tags_with_seen_b=tuple(
            tag for tag in sorted(unseen_full)
            if (kind := _classify_tag(tag))[1] and kind[0] in train_inv.slot_label_counts
        ),
    )


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

SplitStrategy = Literal["uniform", "grouped"]


def split_dataset(
    dataset: Dataset,
    ratio: float,
    seed: int,
    strategy: SplitStrategy = "uniform",
    group_delimiter: str = "-",
) -> tuple[Dataset, Dataset]:
    """Partition a dataset into (round(ratio*N), rest), deterministically.

    ``strategy="grouped"`` keeps all utterances sharing a source-sentence key
    (the id prefix before the first ``group_delimiter``) in the same part, so
    translations of one sentence never straddle the split. Whole groups are
    packed first-fit, in seeded random order, up to the target size;
    ``"uniform"`` packs one group per utterance, which takes the first
    round(ratio*N) utterances of a seeded shuffle.

    Both parts preserve the original utterance order.
    """
    if not dataset.utterances:
        raise SplitError("cannot split an empty dataset")
    check_split(ratio, strategy, group_delimiter)

    n = len(dataset)
    target = share_count(ratio, n)
    rng = SplitMix64(derive_seed(seed, b"split"))

    if strategy == "uniform":  # one group per utterance
        groups = [[i] for i in range(n)]
    else:
        by_key: dict[str, list[int]] = {}
        for i, utt in enumerate(dataset.utterances):
            key, sep, _ = utt.id.partition(group_delimiter)
            if not sep:
                raise SplitError(
                    f"utterance id {utt.id!r} has no group key "
                    f"(missing delimiter {group_delimiter!r})"
                )
            by_key.setdefault(key, []).append(i)
        groups = list(by_key.values())
    rng.shuffle(groups)
    first: set[int] = set()
    for members in groups:
        if len(first) + len(members) <= target:
            first.update(members)

    part1 = tuple(utt for i, utt in enumerate(dataset.utterances) if i in first)
    part2 = tuple(utt for i, utt in enumerate(dataset.utterances) if i not in first)
    return (
        Dataset(name=f"{dataset.name}-part1", utterances=part1),
        Dataset(name=f"{dataset.name}-part2", utterances=part2),
    )


def check_split(ratio: float, strategy: SplitStrategy, group_delimiter: str) -> None:
    """The value rules of a split's arguments; ``sidkit split`` checks them before it reads its input."""
    if not 0.0 < ratio < 1.0:
        raise SplitError(f"ratio must be in (0, 1), got {ratio}")
    if strategy not in ("uniform", "grouped"):
        raise SplitError(f"unknown split strategy {strategy!r}")
    if strategy == "grouped" and not group_delimiter:
        raise SplitError("the group delimiter is empty, so no utterance id has a group key")
