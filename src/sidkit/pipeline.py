"""Multi-step runs with a provenance manifest.

A pipeline config is JSON:

    {"steps": [
        {"name": "clean", "command": "normalize", "args": {"in": "raw.txt", "out": "clean.txt"}},
        {"name": "noise", "command": "noise", "args": {"in": "train.conll", "out": "noised.conll",
                                                       "fraction": 0.2, "alphabet-from": "dev.txt",
                                                       "seed": 7}}
    ]}

Steps run in order through the regular CLI dispatch, so a pipeline step
behaves exactly like the equivalent command line; a step cannot run a nested
pipeline. The whole config is checked, and every step's argv parsed, before
the first step runs: a bad step raises PipelineError naming it, and nothing
runs. A step whose output names one of its inputs or another of its outputs
is such a bad step (``cli.CommandParser.parse_command`` refuses it), and so
is a step whose file flag names the run's manifest or whose output names
the run's config. The manifest records, per step, the argv, the effective
seed, and SHA-256 digests of every file flag of its subcommand (the flags
``cli.build_parser`` types ``InputPath`` before the step, ``OutputPath``
after, except an output that names an open descriptor such as
``/dev/stdout``); it contains no timestamps, so re-running an identical pipeline
reproduces the manifest byte for byte. A failing step aborts the run and the
manifest records the partial state. The manifest, like every step output,
is written through ``files.replace_file``: it replaces the old manifest only
once it is written whole.

The run holds a ``corpus.DatasetStore``: a step that loads a corpus file an
earlier step of the run parsed or wrote, with the same bytes and format
flags, reuses that dataset instead of parsing the file again, so every
output stays byte-identical to the equivalent command lines. After each
step the store drops every file that no later step reads (an ``InputPath``
flag of a later step).
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path
from typing import Container

from .corpus import DatasetStore, decode_text, sha256_file
from .files import named_descriptor, naming, replace_file


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


def run_pipeline(config_path: str | Path, manifest_path: str | Path | None = None) -> int:
    """Execute a pipeline config; returns 0 on success, 1 on step failure."""
    from . import cli  # late import: cli imports this module for the subcommand

    config_path = Path(config_path)
    if manifest_path is None:
        manifest_path = config_path.with_suffix(config_path.suffix + ".manifest.json")
    config_bytes = config_path.read_bytes()
    with naming(config_path):
        config = json.loads(decode_text(config_bytes))
        if not isinstance(config, dict):
            raise PipelineError("pipeline config must be a JSON object")
        unknown = set(config) - {"steps"}
        if unknown:
            raise PipelineError(f"unknown pipeline config keys: {sorted(unknown)}")
        steps = config.get("steps", [])
        if not isinstance(steps, list):
            raise PipelineError("'steps' must be a list")

    manifest: dict = {
        "config": str(config_path),
        "config_digest": hashlib.sha256(config_bytes).hexdigest(),
        "steps": [],
        "status": "ok",
    }

    parser = cli.build_parser()
    run_files = (("--config", cli.InputPath(config_path)), ("--manifest", cli.OutputPath(manifest_path)))
    checked = []
    for i, step in enumerate(steps):
        argv = _step_argv(i, step, parser.commands)
        try:
            checked.append((argv, parser.parse_command(argv, run_files)))
        except cli.UsageError as exc:
            raise PipelineError(f"step {i}: {exc.args[1]}") from None
        except ValueError as exc:  # an output that names an input, another output or a run file
            raise PipelineError(f"step {i}: {exc}") from None

    status = 0
    with DatasetStore() as store:
        for i, (step, (argv, parsed)) in enumerate(zip(steps, checked)):
            inputs = _digest_role(parsed, cli.InputPath)
            code = cli.main(argv)
            store.keep(p for _, later in checked[i + 1 :] for p in _paths(later, cli.InputPath))
            record = {
                "name": step.get("name", f"step{i}"),
                "command": step["command"],
                "argv": argv,
                "seed": cli.effective_seed(parsed) if code == 0 else getattr(parsed, "seed", None),
                "inputs": inputs,
                "outputs": _digest_role(parsed, cli.OutputPath),
                "status": "ok" if code == 0 else f"failed ({code})",
            }
            manifest["steps"].append(record)
            if code != 0:
                manifest["status"] = "failed"
                status = 1
                break

    with replace_file(manifest_path) as fh:
        fh.write((json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    return status
