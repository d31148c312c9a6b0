"""File rules: one reader, one writer, one digest. Every file sidkit reads
as text or digests is read 64 KiB at a time (``_read_pieces``), each piece
decoded, parsed or hashed before the next is read, so no read holds a whole
file's bytes; a read may feed each piece to a digest as it passes, so a
file is parsed and digested in one read. Every reader names its file in an
error, a failed read included, through :func:`naming`; every writer (corpora,
checkpoints, reports, normalize outputs, pipeline manifests) writes through
:func:`replace_file`, which places the output by :func:`output_target`, so a
failed write names its output and never leaves a half-written output behind. This module imports nothing from sidkit, so a
command that reads or writes pays for no other module.
"""

from __future__ import annotations

import codecs
import errno
import os
import re
import stat
import sys
from contextlib import contextmanager, suppress
from itertools import chain
from typing import BinaryIO, Callable, Iterable, Iterator

_STANDARD = {"/dev/stdout": "/dev/fd/1", "/dev/stderr": "/dev/fd/2"}
_DESCRIPTOR = re.compile(r"(?:/dev/fd|/proc/self/fd)/(\d+)", re.ASCII)


@contextmanager
def naming(path: str | os.PathLike) -> Iterator[None]:
    """Raise a ValueError from the block again, its class kept, with ``<path>: `` before its
    message, and an OSError that names no file (a read) as one that names ``path``."""
    with _naming_os_errors(path):
        try:
            yield
        except ValueError as exc:
            exc.args = (f"{os.fspath(path)}: {exc}",)
            raise


def same_file(a: str | os.PathLike, b: str | os.PathLike) -> bool:
    """``os.path.samefile`` when both paths exist, else equal ``os.path.realpath``."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def named_descriptor(path: str | os.PathLike) -> int | None:
    """The open descriptor ``path`` names (``/dev/stdout``, ``/dev/fd/N``,
    ``/proc/self/fd/N`` and the like), or None for any other path."""
    named = _DESCRIPTOR.fullmatch(_STANDARD.get(os.fspath(path), os.fspath(path)))
    return int(named[1]) if named else None


def output_target(path: str | os.PathLike) -> tuple[int | None, int | None, str | None]:
    """Where a write to ``path`` goes: ``(descriptor, mode, target)``, the descriptor it
    names, the ``st_mode`` of its file and the file to replace (symlinks resolved), each
    None if there is none, ``target`` too for a FIFO or a device (written through in place).
    Raises the OSError naming ``path`` that creating the file would: ``path`` is empty, ends
    in ``/`` or is a directory, or its directory is missing or not a directory."""
    if (descriptor := named_descriptor(path)) is not None:
        return descriptor, None, None
    name = os.fspath(path)
    try:
        if not name or name.endswith("/"):  # realpath would make "" the working directory and drop the "/"
            raise OSError(errno.EISDIR if name else errno.ENOENT, "")
        mode = None
        with suppress(FileNotFoundError):
            mode = os.stat(name).st_mode
        target = os.path.realpath(name)
        if mode is None:
            os.stat(os.path.dirname(target))  # the temp file goes there
        elif stat.S_ISDIR(mode):
            raise OSError(errno.EISDIR, "")
    except OSError as exc:
        raise OSError(exc.errno, os.strerror(exc.errno), name) from None
    return None, mode, target if mode is None or stat.S_ISREG(mode) else None


@contextmanager
def replace_file(path: str | os.PathLike) -> Iterator[BinaryIO]:
    """A binary handle whose bytes become the file ``path`` once the block ends without error.

    The bytes go to a temp file beside the :func:`output_target` of ``path``,
    which raises before the block runs if the file cannot be created. When
    the block ends, the temp file takes the permission bits of that file
    (when it exists) and replaces it, so a symlinked ``path`` stays a link to
    the new bytes. On any error the temp file is removed and the old file is
    left as it was. An OSError from opening, writing, closing or replacing
    the output names ``path``, never the temp file: one from the block that
    names no file is taken for a write's, so a read in the block must name
    its file. A ``path`` with no target is written through in place, so
    ``--out /dev/stdout >> log`` appends to ``log``.
    """
    descriptor, mode, target = output_target(path)
    if target is None:
        sys.stdout.flush()  # what a pipeline step printed stays before this output
        with _naming_os_errors(path):
            fh = os.fdopen(os.dup(descriptor), "wb") if descriptor is not None else open(path, "wb")
            with fh:
                yield fh
        return
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{os.urandom(8).hex()}.tmp")
    with _naming_os_errors(path, tmp):
        fh = open(tmp, "xb")
        try:
            with fh:
                yield fh
                if mode is not None:
                    os.fchmod(fh.fileno(), stat.S_IMODE(mode))
            os.replace(tmp, target)
        except BaseException:
            with suppress(FileNotFoundError):
                os.unlink(tmp)
            raise


@contextmanager
def _naming_os_errors(path: str | os.PathLike, tmp: str | None = None) -> Iterator[None]:
    """Raise an OSError from the block that names no file (a read, a write,
    ``os.dup``) or names ``tmp`` again as one that names ``path``."""
    try:
        yield
    except OSError as exc:
        if exc.filename not in (None, tmp):
            raise
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


# Files are read this many bytes at a time: below glibc's 128 KiB mmap threshold,
# so each piece is taken from the heap and handed back to it for the next
_PIECE_SIZE = 1 << 16


def new_sha256():
    """A new hashlib SHA-256 object; hashlib loads OpenSSL (3.5 MB of RSS), so only a digest imports it."""
    import hashlib

    return hashlib.sha256()


@contextmanager
def _read_pieces(path: str | os.PathLike, digest=None) -> Iterator[Iterator[bytes]]:
    """The bytes of the file ``path``, ``_PIECE_SIZE`` at a time, each fed to
    ``digest`` (a hashlib object), when given, as it passes; the file is open
    while the block runs, and a failed read or a ValueError from the block names it."""
    with open(path, "rb", buffering=0) as fh, naming(path):
        pieces = iter(lambda: fh.read(_PIECE_SIZE), b"")
        yield pieces if digest is None else (digest.update(piece) or piece for piece in pieces)


def sha256_file(path: str | os.PathLike) -> str:
    """The hex SHA-256 of the file ``path``'s bytes."""
    digest = new_sha256()
    with _read_pieces(path, digest) as pieces:
        for _ in pieces:
            pass
    return digest.hexdigest()


def read_text(path: str | os.PathLike, parse: Callable = str, digest=None):
    """``parse`` applied to the file's UTF-8 text (:func:`_decoded`), less
    one leading byte-order mark, with CRLF and CR read as LF; each piece of
    the file's bytes is fed to ``digest`` when given. A ValueError names the file."""
    with _read_pieces(path, digest) as pieces:
        return parse("".join(_lf(_decoded(pieces))))


def _decoded(pieces: Iterable[bytes]) -> Iterator[str]:
    """The UTF-8 text of each of ``pieces``, a character cut between two
    pieces going with the later one. An invalid byte raises ValueError
    naming the byte and its 1-based line and column (in bytes)."""
    decode = codecs.getincrementaldecoder("utf-8")().decode
    # of the bytes before ``piece``: their count, the line their end is on,
    # where that line starts, and whether they end in a CR
    offset, line, line_start, cr = 0, 1, 0, False

    def advance(data: bytes) -> None:
        nonlocal offset, line, line_start, cr
        # CRLF, CR and LF each end a line, as in the decoded text
        line += data.count(b"\n")
        if cr or b"\r" in data:  # the test is far cheaper than the counts
            line += data.count(b"\r") - data.count(b"\r\n") - (cr and data.startswith(b"\n"))
        if (last := max(data.rfind(b"\n"), data.rfind(b"\r"))) >= 0:
            line_start = offset + last + 1
        offset, cr = offset + len(data), data.endswith(b"\r")

    for piece in chain(pieces, (b"",)):  # the empty last piece ends a character cut off at the end
        try:
            text = decode(piece, not piece)
        except UnicodeDecodeError as exc:
            # exc.object is the undecoded end of the pieces before, which holds
            # no line break, then ``piece``
            at = exc.start - (len(exc.object) - len(piece))
            advance(piece[: max(at, 0)])
            column = offset + min(at, 0) - line_start + 1
            raise ValueError(
                f"invalid UTF-8 byte 0x{exc.object[exc.start]:02x} at line {line}, column {column}"
            ) from None
        advance(piece)
        yield text


def _lf(texts: Iterable[str]) -> Iterator[str]:
    """``texts`` less one leading byte-order mark, with CRLF and CR read as
    LF; a CR that ends one text waits for the next, which may open with its LF."""
    head = True  # no character yet, so a byte-order mark here is dropped
    cr = ""
    for text in texts:
        if head and text:
            text, head = text.removeprefix("\ufeff"), False
        text = cr + text
        cr = "\r" if text.endswith("\r") else ""
        yield text[: len(text) - len(cr)].replace("\r\n", "\n").replace("\r", "\n")
    if cr:
        yield "\n"
