"""File rules: every reader names its file in an error through :func:`naming`;
every writer (corpora, checkpoints, reports, normalize outputs, pipeline
manifests) writes through :func:`replace_file`, so a failed write never
leaves a half-written output behind. This module imports nothing from
sidkit, so a command that reads or writes pays for no other module.
"""

from __future__ import annotations

import os
import re
import stat
import sys
from contextlib import contextmanager, suppress
from typing import BinaryIO, Iterator

_STANDARD = {"/dev/stdout": "/dev/fd/1", "/dev/stderr": "/dev/fd/2"}
_DESCRIPTOR = re.compile(r"(?:/dev/fd|/proc/self/fd)/(\d+)", re.ASCII)


@contextmanager
def naming(path: str | os.PathLike) -> Iterator[None]:
    """Raise a ValueError from the block again, its class kept, with ``<path>: `` before its message."""
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


@contextmanager
def replace_file(path: str | os.PathLike) -> Iterator[BinaryIO]:
    """A binary handle whose bytes become the file ``path`` once the block ends without error.

    The bytes go to a temp file in the directory of the file ``path``
    names, after symlinks are resolved. When the block ends, the temp file
    takes the permission bits of that file (when it exists) and replaces
    it, so a symlinked ``path`` stays a link to the new bytes. On any error
    the temp file is removed and the old file is left as it was; an error
    raised before anything is written names ``path``.

    A ``path`` that names an open descriptor (``/dev/stdout``, ``/dev/fd/N``
    and the like) is written through that descriptor, so ``--out /dev/stdout
    >> log`` appends to ``log``. Any other ``path`` that exists and is not a
    regular file (a FIFO, a device) cannot be replaced, so it is written
    through in place.
    """
    descriptor = named_descriptor(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if descriptor is not None or mode is not None and not stat.S_ISREG(mode):
        sys.stdout.flush()  # what a pipeline step printed stays before this output
        try:
            fh = os.fdopen(os.dup(descriptor), "wb") if descriptor is not None else open(path, "wb")
        except OSError as exc:  # os.dup names no file in its error
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        with fh:
            yield fh
        return
    target = os.path.realpath(path)
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "xb")
    except OSError as exc:  # name the target, as a direct write would
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
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
