"""Every output file goes through one writer, ``sidkit.files.replace_file``,
and every file read goes through the one reader of ``sidkit.files``.

Each test runs every writer: ``save_dataset``, ``write_checkpoint``, a
report (``stats --out``), ``normalize --out`` and ``--trace``, and the
pipeline manifest.
"""

import ast
import errno
import json
import os
import re
import resource
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import make_checkpoint
from sidkit.cli import main
from sidkit.corpus import Dataset, FormatOptions, Utterance, save_dataset
from sidkit.files import replace_file
from sidkit.surgery import CheckpointFormatError, write_checkpoint

SRC = Path(__file__).resolve().parents[1] / "src"
DATASET = Dataset("d", (Utterance("1", ("a",), ("O",), "i"),))
TENSORS = {"a": ("F32", [2], b"\x00\x00\x80?\x00\x00\x00@")}


@pytest.fixture
def inputs(tmp_path_factory):
    """A directory of inputs for the CLI writers, apart from the directory a test writes to."""
    path = tmp_path_factory.mktemp("inputs")
    save_dataset(DATASET, path / "c.conll")
    (path / "t.txt").write_text("haLLo ve'l kLokka\n", encoding="utf-8")
    steps = [{"command": "parse-check", "args": {"in": str(path / "c.conll")}}]
    (path / "p.json").write_text(json.dumps({"steps": steps}), encoding="utf-8")
    return path


# name -> (argv that writes the file ``t`` from the inputs in ``i``, a file-size
# limit that only the write to ``t`` exceeds)
CLI_WRITERS = {
    "report": (lambda t, i: ["stats", "--in", i / "c.conll", "--out", t], 16),
    "normalize": (lambda t, i: ["normalize", "--in", i / "t.txt", "--out", t], 8),
    "trace": (lambda t, i: ["normalize", "--in", i / "t.txt", "--out", i / "n.txt", "--trace", t], 32),
    "manifest": (lambda t, i: ["pipeline", "--config", i / "p.json", "--manifest", t], 64),
}


def _in_process(argv):
    def write(target, inputs):
        assert main([str(a) for a in argv(target, inputs)]) == 0

    return write


WRITERS = {
    "save_dataset": lambda target, inputs: save_dataset(DATASET, target),
    "write_checkpoint": lambda target, inputs: write_checkpoint(target, TENSORS),
    **{name: _in_process(argv) for name, (argv, _) in CLI_WRITERS.items()},
}


def _bytes_of(write, inputs):
    """The bytes ``write`` puts in a new file."""
    write(inputs / "fresh", inputs)
    return (inputs / "fresh").read_bytes()


def _run_sidkit(argv, **kwargs):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "sidkit.cli", *map(str, argv)], env=env, capture_output=True, timeout=120, **kwargs
    )


def _late_comment_tag(target, inputs):
    utterances = [Utterance(str(i), ("a",), ("O",), "i") for i in range(500)]
    late = Utterance("late", ("a",), ("# x",), "i")  # reads back as a comment when in column 0
    with pytest.raises(ValueError, match="comment"):
        save_dataset(Dataset("d", (*utterances, late)), target, FormatOptions(token_col=1, tag_col=0))


def _short_source(target, inputs):
    with pytest.raises(CheckpointFormatError, match="source provided 4 bytes, expected 8"):
        write_checkpoint(target, {"a": ("F32", [2], b"\x00" * 4), "b": ("F32", [2], b"\x00" * 8)})


def _source_failing_after_its_first_chunk(target, inputs):
    def chunks():
        yield b"\x00" * 4
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        write_checkpoint(target, {"a": ("F32", [2], chunks())})


def _over_a_file_size_limit(argv, limit):
    """A sidkit process that can write at most ``limit`` bytes to a file, as on a full disk."""

    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

    def fail(target, inputs):
        result = _run_sidkit(argv(target, inputs), preexec_fn=limit_file_size, text=True)
        assert result.returncode == 1
        assert "File too large" in result.stderr and "Traceback" not in result.stderr

    return fail


FAILURES = {
    "save_dataset": _late_comment_tag,
    "write_checkpoint-short-source": _short_source,
    "write_checkpoint-failing-source": _source_failing_after_its_first_chunk,
    **{name: _over_a_file_size_limit(argv, limit) for name, (argv, limit) in CLI_WRITERS.items()},
}


@pytest.mark.parametrize("fail", FAILURES.values(), ids=FAILURES)
def test_failed_write_leaves_the_old_target_and_no_temp_file(tmp_path, inputs, fail):
    target = tmp_path / "out"
    target.write_bytes(b"old bytes\n")
    fail(target, inputs)
    assert target.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["out"]


@pytest.mark.parametrize("argv", [argv for argv, _ in CLI_WRITERS.values()], ids=CLI_WRITERS)
def test_a_failed_replace_names_the_output_not_its_temp_file(tmp_path, inputs, argv, monkeypatch, capsys):
    target = tmp_path / "out"
    target.write_bytes(b"old bytes\n")

    replace = os.replace

    def refused(src, dst):
        if dst != os.path.realpath(target):
            return replace(src, dst)
        raise OSError(errno.EIO, os.strerror(errno.EIO), src, None, dst)

    monkeypatch.setattr(os, "replace", refused)
    assert main([str(a) for a in argv(target, inputs)]) == 1
    assert capsys.readouterr().err == f"sidkit: error: {target}: {os.strerror(errno.EIO)}\n"
    assert target.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["out"]


FULL_WRITES = {
    "report": ["stats", "--in", "{i}/c.conll", "--report", "tsv"],
    "noise": ["noise", "--in", "{i}/c.conll", "--fraction", "1", "--alphabet-from", "{i}/t.txt"],
    "normalize": ["normalize", "--in", "{i}/t.txt"],
    "surgery-revert": ["surgery", "revert", "--a", "{i}/a.st", "--b", "{i}/b.st", "--layers", "0"],
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", FULL_WRITES.values(), ids=FULL_WRITES)
def test_a_write_to_a_full_device_names_the_device(inputs, argv, capsys):
    make_checkpoint(inputs / "a.st", seed=1)
    make_checkpoint(inputs / "b.st", seed=2)
    assert main([arg.format(i=inputs) for arg in argv] + ["--out", "/dev/full"]) == 1
    err = capsys.readouterr().err  # noise prints its seed first
    assert err.splitlines()[-1] == f"sidkit: error: /dev/full: {os.strerror(errno.ENOSPC)}"


def test_a_failed_checkpoint_read_names_the_checkpoint_not_the_output(tmp_path, inputs, monkeypatch, capsys):
    make_checkpoint(inputs / "a.st", seed=1)
    pread = os.pread

    def failing_after_the_header(fd, size, offset):  # the header is read at offsets 0 and 8
        if offset > 8:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        return pread(fd, size, offset)

    monkeypatch.setattr(os, "pread", failing_after_the_header)
    out = tmp_path / "out.st"
    argv = ["surgery", "revert", "--a", str(inputs / "a.st"), "--b", str(inputs / "a.st"), "--layers", "0"]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"sidkit: error: {inputs / 'a.st'}: {os.strerror(errno.EIO)}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(not os.path.exists("/proc/self/mem"), reason="needs /proc/self/mem")
@pytest.mark.parametrize("argv", [
    ["normalize", "--in", "/proc/self/mem", "--out", "o.txt"],
    ["pipeline", "--config", "p.json", "--manifest", "m.json"],  # the digest of a step's input
    ["surgery", "mav", "--a", "/proc/self/mem", "--b", "/proc/self/mem"],  # a checkpoint header read
    ["surgery", "revert", "--a", "/proc/self/mem", "--b", "/proc/self/mem", "--layers", "0", "--out", "o.st"],
], ids=["normalize", "pipeline-digest", "surgery-mav", "surgery-revert"])
def test_a_failed_read_names_the_file_read(tmp_path, argv, monkeypatch, capsys):
    # a read of /proc/self/mem at offset 0 fails with EIO, whose error names no file
    monkeypatch.chdir(tmp_path)
    steps = [{"command": "stats", "args": {"in": "/proc/self/mem"}}]
    (tmp_path / "p.json").write_text(json.dumps({"steps": steps}), encoding="utf-8")
    assert main(argv) == 1
    assert capsys.readouterr().err == f"sidkit: error: /proc/self/mem: {os.strerror(errno.EIO)}\n"
    assert os.listdir(tmp_path) == ["p.json"]


def _replace_file(path):
    with replace_file(path) as fh:
        fh.write(b"bytes\n")


LIBRARY_WRITERS = {
    "replace_file": _replace_file,
    "save_dataset": lambda path: save_dataset(DATASET, path),
    "write_checkpoint": lambda path: write_checkpoint(path, TENSORS),
}


@pytest.mark.parametrize(("path", "error"), [
    ("d", errno.EISDIR), ("o/", errno.EISDIR), ("nodir/o", errno.ENOENT), ("f/o", errno.ENOTDIR),
    ("", errno.ENOENT), ("link", errno.ENOENT),
], ids=["a-directory", "spelled-as-a-directory", "in-a-missing-directory", "under-a-file", "empty",
        "a-link-into-a-missing-directory"])
@pytest.mark.parametrize("write", LIBRARY_WRITERS.values(), ids=LIBRARY_WRITERS)
def test_a_writer_refuses_an_output_it_cannot_create_and_creates_nothing(tmp_path, monkeypatch, write, path, error):
    work = tmp_path / "work"
    (work / "d").mkdir(parents=True)
    (work / "f").write_bytes(b"a file\n")
    (work / "link").symlink_to("nodir/t")
    monkeypatch.chdir(work)
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(OSError) as raised:
        write(path)
    assert (raised.value.errno, raised.value.filename) == (error, path)
    assert sorted(tmp_path.rglob("*")) == before  # nothing in the working directory or its parent


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS)
def test_write_through_a_symlink_writes_the_linked_file(tmp_path, inputs, write):
    real = tmp_path / "data" / "real"
    real.parent.mkdir()
    real.write_bytes(b"old bytes\n")
    real.chmod(0o600)
    link = tmp_path / "link"
    link.symlink_to(real)
    write(link, inputs)
    assert link.is_symlink() and link.resolve() == real.resolve()
    assert real.read_bytes() == _bytes_of(write, inputs)
    assert stat.S_IMODE(real.stat().st_mode) == 0o600
    assert os.listdir(real.parent) == ["real"]
    assert sorted(os.listdir(tmp_path)) == ["data", "link"]


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS)
def test_write_keeps_the_permission_bits_of_the_file_it_replaces(tmp_path, inputs, write):
    expected = _bytes_of(write, inputs)
    for mode in (0o600, 0o640, 0o444):
        target = tmp_path / f"{mode:o}"
        target.write_bytes(b"old bytes\n")
        target.chmod(mode)
        write(target, inputs)
        assert stat.S_IMODE(target.stat().st_mode) == mode
        assert target.read_bytes() == expected
    open(tmp_path / "plain", "xb").close()
    write(tmp_path / "new", inputs)  # a new file gets the bits the umask leaves
    assert (tmp_path / "new").stat().st_mode == (tmp_path / "plain").stat().st_mode


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS)
def test_write_into_a_fifo_writes_through_it(tmp_path, inputs, write):
    expected = _bytes_of(write, inputs)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write(fifo, inputs)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [expected]
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert os.listdir(tmp_path) == ["fifo"]


def test_noise_to_dev_stdout_writes_the_corpus_to_the_pipe(tmp_path, inputs):
    argv = ["noise", "--in", inputs / "c.conll", "--fraction", "1", "--alphabet-from", inputs / "t.txt",
            "--seed", "3"]
    assert main([str(a) for a in argv] + ["--out", str(tmp_path / "n.conll")]) == 0
    result = _run_sidkit([*argv, "--out", "/dev/stdout"])
    assert result.returncode == 0, result.stderr
    assert result.stdout == (tmp_path / "n.conll").read_bytes()


@pytest.mark.parametrize("path", ["/dev/stdout", "/dev/fd/1", "/proc/self/fd/1"])
def test_report_to_dev_stdout_appends_to_the_redirected_file(tmp_path, inputs, path):
    assert main(["stats", "--in", str(inputs / "c.conll"), "--out", str(tmp_path / "r.json")]) == 0
    log = tmp_path / "log.txt"
    log.write_bytes(b"old line\n")
    argv = [sys.executable, "-m", "sidkit.cli", "stats", "--in", str(inputs / "c.conll"), "--out", path]
    with open(log, "ab") as stdout:
        result = subprocess.run(argv, env={**os.environ, "PYTHONPATH": str(SRC)}, stdout=stdout,
                                stderr=subprocess.PIPE, timeout=120)
    assert result.returncode == 0, result.stderr
    assert log.read_bytes() == b"old line\n" + (tmp_path / "r.json").read_bytes()


_MODE = re.compile(r"[rwxabt+]+")


def _calls(tree):
    """(node, name, modes) of each call in ``tree``: ``name`` is ``f`` for ``f(...)``
    and ``x.f(...)``, ``modes`` the string arguments that read as a file mode."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            modes = [a.value for a in (*node.args, *(k.value for k in node.keywords if k.arg == "mode"))
                     if isinstance(a, ast.Constant) and isinstance(a.value, str) and _MODE.fullmatch(a.value)]
            yield node, func.id if isinstance(func, ast.Name) else getattr(func, "attr", None), modes


def _file_writes(tree):
    """(line, call) of each call in ``tree`` that creates, truncates or replaces a file."""
    for node, name, modes in _calls(tree):
        if name in ("write_text", "write_bytes"):
            yield node.lineno, name
        elif name in ("replace", "rename") and ast.unparse(node.func) == f"os.{name}":
            yield node.lineno, f"os.{name}"
        elif name == "open" and any(set(mode) & set("wax+") for mode in modes):
            yield node.lineno, f"open(mode={modes})"


def _file_reads(tree):
    """(line, call) of each call in ``tree`` that reads a whole file (``Path.read_text``,
    ``Path.read_bytes``; a bare ``read_text(...)`` is the reader of ``sidkit.files``)
    or opens one to read it."""
    for node, name, modes in _calls(tree):
        if name in ("read_text", "read_bytes") and isinstance(node.func, ast.Attribute):
            yield node.lineno, name
        elif name == "open" and ast.unparse(node.func) == "os.open":
            yield node.lineno, "os.open"
        elif name in ("open", "fdopen") and (not modes or any(set(mode) & set("r+") for mode in modes)):
            yield node.lineno, f"{name}(mode={modes})"


def _outside_files_py(rule):
    """What ``rule`` finds in each module of the package but ``files.py``, and whether it finds anything there."""
    found = {
        path.name: list(rule(ast.parse(path.read_text(encoding="utf-8"))))
        for path in sorted((SRC / "sidkit").glob("*.py"))
    }
    return {name: calls for name, calls in found.items() if calls and name != "files.py"}, bool(found["files.py"])


def test_only_the_writer_module_writes_files():
    outside, in_files = _outside_files_py(_file_writes)
    assert outside == {}
    assert in_files  # the guard sees the one writer


def _placement_checks(tree):
    """(line, what) of each ``errno`` import in ``tree`` and each call that checks where a file could go."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and "errno" in (alias.name for alias in node.names) or (
            isinstance(node, ast.ImportFrom) and node.module == "errno"
        ):
            yield node.lineno, "import errno"
    for node, _, _ in _calls(tree):
        if (call := ast.unparse(node.func)) in ("os.stat", "os.path.isdir", "os.path.dirname", "os.path.realpath"):
            yield node.lineno, call


def test_only_the_writer_module_decides_where_an_output_goes():
    # one placement rule: the parse-time output check asks files.output_target, as replace_file does
    outside, in_files = _outside_files_py(_placement_checks)
    assert outside == {}
    assert in_files  # the guard sees the one rule


def _json_encoders(tree, scope):
    """The scope (``module.Class.function``) of each call in ``tree`` to ``json.dumps``,
    ``json.dump`` or ``json.JSONEncoder``, and of each ``from json import``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from _json_encoders(node, f"{scope}.{node.name}")
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "json" or (
            isinstance(node, ast.Call) and ast.unparse(node.func) in ("json.dumps", "json.dump", "json.JSONEncoder")
        ):
            yield scope
        yield from _json_encoders(node, scope)


def test_only_the_report_writer_encodes_json():
    # one encoder for every report, the pipeline manifest included; a trace line and a
    # checkpoint header are not reports
    found = {
        scope
        for path in (SRC / "sidkit").glob("*.py")
        for scope in _json_encoders(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    }
    assert "cli._write_report" in found  # the guard sees the one encoder
    assert found == {"cli._write_report", "normalize.RuleTrace.to_json", "surgery.write_checkpoint"}


def test_only_the_reader_module_reads_files():
    outside, in_files = _outside_files_py(_file_reads)
    assert in_files  # the guard sees the one reader
    # the one exception: a checkpoint is read by offset, through the descriptor
    # read_checkpoint checks its header through
    surgery = ast.parse((SRC / "sidkit" / "surgery.py").read_text(encoding="utf-8"))
    reader = next(node for node in surgery.body if getattr(node, "name", None) == "read_checkpoint")
    offset_reads = outside.pop("surgery.py")
    assert [call for _, call in offset_reads] == ["os.open", "open(mode=['rb'])"]
    assert all(reader.lineno <= line <= reader.end_lineno for line, _ in offset_reads)
    assert outside == {}
