"""Every output file goes through one writer, ``sidkit.files.replace_file``.

Each test runs every writer: ``save_dataset``, ``write_checkpoint``, a
report (``stats --out``), ``normalize --out`` and ``--trace``, and the
pipeline manifest.
"""

import ast
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

from sidkit.cli import main
from sidkit.corpus import Dataset, FormatOptions, Utterance, save_dataset
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


def _file_writes(tree):
    """(line, call) of each call in ``tree`` that creates, truncates or replaces a file."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            yield node.lineno, name
        elif name in ("replace", "rename") and ast.unparse(func) == f"os.{name}":
            yield node.lineno, f"os.{name}"
        elif name == "open":
            modes = [a.value for a in (*node.args, *(k.value for k in node.keywords if k.arg == "mode"))
                     if isinstance(a, ast.Constant) and isinstance(a.value, str) and _MODE.fullmatch(a.value)]
            if any(set(mode) & set("wax+") for mode in modes):
                yield node.lineno, f"open(mode={modes})"


def test_only_the_writer_module_writes_files():
    writes = {
        path.name: list(_file_writes(ast.parse(path.read_text(encoding="utf-8"))))
        for path in sorted((SRC / "sidkit").glob("*.py"))
    }
    assert {name: found for name, found in writes.items() if found and name != "files.py"} == {}
    assert writes["files.py"]  # the guard sees the one writer
