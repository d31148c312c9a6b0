"""Multi-step runs with a provenance manifest.

A pipeline config is JSON:

    {"steps": [
        {"name": "clean", "command": "normalize", "args": {"in": "raw.txt", "out": "clean.txt"}},
        {"name": "noise", "command": "noise", "args": {"in": "train.conll", "out": "noised.conll",
                                                       "fraction": 0.2, "alphabet-from": "dev.txt",
                                                       "seed": 7}}
    ]}

Steps run in order through ``cli.main``, so a pipeline step behaves exactly
like the equivalent command line; a step cannot run a nested pipeline. The
whole config is checked, and every step's argv parsed once, before the first
step runs: a bad step raises PipelineError naming it, and nothing runs. Each
step then runs the namespace that was checked, the one its manifest record
reads, and is not parsed again. A step whose output names one of its inputs
or another of its outputs, whose output the writer could not create
(``files.output_target``: no step makes a directory), or whose flag value is
empty or refused by the library, is such a bad step
(``cli.CommandParser.parse_command`` refuses it), and so is a step whose file
flag names the run's manifest, or whose output names the run's config.
Checking these before step 0 rather than when the step runs loses nothing:
no step creates a directory, a symlink or a hard link, so each path leads
where it led when it was checked; ``files.same_file`` compares the
``realpath`` of a file that does not exist yet, so an output that is a
symlink to a file an earlier step writes already aliases that file; and
``files.replace_file`` runs ``files.output_target`` again when it writes.
The manifest defaults to ``<config>.manifest.json``.
The manifest records, per step, the argv, its ``--seed`` (null for an
unseeded command), and SHA-256 digests of every file flag of its subcommand
(the flags ``cli.build_parser`` types ``InputPath`` before the step,
``OutputPath`` after, except an output that names an open descriptor such
as ``/dev/stdout``), and per run the sidkit version and the corpus and
container format versions that ``sidkit --version`` prints; it contains no
timestamps, so re-running an identical pipeline reproduces the manifest
byte for byte. A failing step aborts the run and the
manifest records the partial state. Its placement is checked before the
first step runs, by the writer's own rule (``files.output_target``), so a
manifest path that cannot be written (in a missing directory, or naming a
directory) fails the run before any step writes an output. Nothing is held
open while the steps run: the manifest is written once, at the end, through
``cli._write_report``, the report writer, which replaces the old manifest
only once it is written whole.

The run holds a ``corpus.DatasetStore`` and gives it, before each step, the
step's input digests that the manifest records (``DatasetStore.digests``):
a step that loads a corpus file an earlier step of the run parsed or wrote,
with the same format flags and with that digest the one of the bytes parsed
or written, reuses that dataset instead of parsing the file again, and the
store reads no file to tell. Every output stays byte-identical to the
equivalent command lines. After each step the store drops every file that
no later step reads (an ``InputPath`` flag of a later step).
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
from typing import Container

from . import __version__
from .corpus import DatasetStore
from .files import named_descriptor, new_sha256, output_target, read_text, sha256_file


class PipelineError(ValueError):
    pass


def _step_argv(i: int, step: object, commands: Container[str]) -> list[str]:
    """Check one step's shape and build its argv; raises PipelineError naming the step."""
    if not isinstance(step, dict):
        raise PipelineError(f"step {i}: must be a JSON object")
    unknown = set(step) - {"name", "command", "args"}
    if unknown:
        raise PipelineError(f"step {i}: unknown keys {sorted(unknown)}")
    command, args = step.get("command"), step.get("args", {})
    if not isinstance(command, str):
        raise PipelineError(f"step {i}: 'command' must be a string")
    if not isinstance(args, dict):
        raise PipelineError(f"step {i}: 'args' must be a JSON object")
    argv = command.split()
    if not argv or argv[0] not in commands:
        raise PipelineError(f"step {i}: unknown command {command!r}")
    if argv[0] == "pipeline":
        raise PipelineError(f"step {i}: a step cannot run a nested pipeline")
    for key, value in args.items():
        if isinstance(value, bool):
            argv += [f"--{key}"] if value else []
        elif isinstance(value, (str, int, float)):
            argv += [f"--{key}", str(value)]
        elif value is not None:
            raise PipelineError(f"step {i}: argument {key!r} must be a string, number, boolean or null")
    return argv


def _paths(parsed: argparse.Namespace, role: type) -> list[str]:
    """The distinct parsed flag values of type ``role``, sorted: a file that
    two flags name is listed, and digested, once."""
    return sorted({value for value in vars(parsed).values() if isinstance(value, role)})


def _digest_role(parsed: argparse.Namespace, role: type) -> dict[str, str]:
    """SHA-256 of each existing file named by a parsed flag value of type ``role``.

    An output that names an open descriptor is not digested: with ``--out
    /dev/stdout >> log`` the file is ``log``, which holds more than the step wrote.
    """
    from .cli import OutputPath

    return {
        p: sha256_file(p)
        for p in _paths(parsed, role)
        if Path(p).is_file() and (role is not OutputPath or named_descriptor(p) is None)
    }


def _config_steps(text: str) -> list:
    """The step list of the pipeline config ``text``."""
    config = json.loads(text)
    if not isinstance(config, dict):
        raise PipelineError("pipeline config must be a JSON object")
    unknown = set(config) - {"steps"}
    if unknown:
        raise PipelineError(f"unknown pipeline config keys: {sorted(unknown)}")
    steps = config.get("steps", [])
    if not isinstance(steps, list):
        raise PipelineError("'steps' must be a list")
    return steps


def run_pipeline(config_path: str | Path, manifest_path: str | Path | None = None) -> int:
    """Execute a pipeline config; returns 0 on success, 1 on step failure."""
    from . import cli  # late import: cli imports this module for the subcommand

    config_path = Path(config_path)
    if manifest_path is None:
        manifest_path = Path(f"{config_path}.manifest.json")
    config_digest = new_sha256()
    steps = read_text(config_path, _config_steps, config_digest)

    manifest: dict = {  # every dict of the manifest has its keys in sorted order
        "config": str(config_path),
        "config_digest": config_digest.hexdigest(),
        "status": "ok",
        "steps": [],
        "versions": {  # what ``sidkit --version`` prints
            "container_format": cli.CONTAINER_FORMAT_VERSION,
            "corpus_format": cli.CORPUS_FORMAT_VERSION,
            "sidkit": __version__,
        },
    }

    parser = cli.build_parser()
    run_files = (("--config", cli.InputPath(config_path)), ("--manifest", cli.OutputPath(manifest_path)))
    checked = []
    for i, step in enumerate(steps):
        argv = _step_argv(i, step, parser.commands)
        try:
            parsed = parser.parse_command(argv, run_files)
        except cli.UsageError as exc:
            raise PipelineError(f"step {i}: {exc.args[1]}") from None
        except ValueError as exc:  # an output that cannot be made or names an input, another output or a run file
            raise PipelineError(f"step {i}: {exc}") from None
        checked.append((argv, parsed))

    output_target(manifest_path)  # a manifest that could not be written fails the run here
    status = 0
    with DatasetStore() as store:
        for i, (step, (argv, parsed)) in enumerate(zip(steps, checked)):
            inputs = _digest_role(parsed, cli.InputPath)
            store.digests = {os.path.abspath(p): digest for p, digest in inputs.items()}
            code = cli.main(argv, parsed)
            store.keep(p for _, later in checked[i + 1 :] for p in _paths(later, cli.InputPath))
            manifest["steps"].append({
                "argv": argv,
                "command": step["command"],
                "inputs": inputs,
                "name": step.get("name", f"step{i}"),
                "outputs": _digest_role(parsed, cli.OutputPath),
                "seed": getattr(parsed, "seed", None),
                "status": "ok" if code == 0 else f"failed ({code})",
            })
            if code != 0:
                manifest["status"] = "failed"
                status = 1
                break
    cli._write_report(manifest, str(manifest_path))
    return status
