import errno
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import sidkit
from sidkit import cli, corpus, files
from sidkit.cli import InputPath, OutputPath, build_parser, main
from sidkit.pipeline import PipelineError, _step_argv, run_pipeline, sha256_file

SRC = Path(__file__).resolve().parents[1] / "src"

GOLD = (
    "# id: 1\n# intent: alarm/set\nvekk\tO\nmekk\tB-datetime\n"
    "\n"
    "# id: 2\n# intent: weather/find\nkor\tO\nvarmt\tB-weather/attribute\nidag\tO\n"
)


def write_config(tmp_path, steps, name="pipe.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"steps": steps}, indent=2), encoding="utf-8")
    return path


def test_empty_pipeline_succeeds_with_empty_manifest(tmp_path):
    config = write_config(tmp_path, [])
    manifest_path = tmp_path / "manifest.json"
    assert run_pipeline(config, manifest_path) == 0
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert manifest["steps"] == []
    assert manifest["status"] == "ok"
    assert manifest["config_digest"] == sha256_file(config)


def test_manifest_records_the_versions_that_version_prints(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.json"
    assert run_pipeline(write_config(tmp_path, []), manifest_path) == 0
    versions = json.loads(manifest_path.read_text(encoding="utf-8"))["versions"]
    assert versions == {"sidkit": sidkit.__version__, "corpus_format": cli.CORPUS_FORMAT_VERSION,
                        "container_format": cli.CONTAINER_FORMAT_VERSION}
    with pytest.raises(SystemExit):
        main(["--version"])
    assert capsys.readouterr().out == (
        f"sidkit {versions['sidkit']} (corpus format v{versions['corpus_format']}, "
        f"container format v{versions['container_format']})\n"
    )


def test_two_step_pipeline_chains_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw.txt").write_text("vat'n  soL\n", encoding="utf-8")
    (tmp_path / "gold.conll").write_text(GOLD, encoding="utf-8")
    config = write_config(
        tmp_path,
        [
            {"name": "clean", "command": "normalize",
             "args": {"in": "raw.txt", "out": "clean.txt"}},
            {"name": "noise", "command": "noise",
             "args": {"in": "gold.conll", "out": "noised.conll",
                      "fraction": 0.5, "alphabet-from": "clean.txt", "seed": 5}},
        ],
    )
    manifest_path = tmp_path / "manifest.json"
    assert run_pipeline(config, manifest_path) == 0
    text = manifest_path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"  # the keys of every dict sorted
    manifest = json.loads(text)
    step1, step2 = manifest["steps"]
    assert step1["outputs"]["clean.txt"] == step2["inputs"]["clean.txt"]
    assert step2["seed"] == 5
    assert step2["outputs"]["noised.conll"] == sha256_file(tmp_path / "noised.conll")
    assert manifest["status"] == "ok"


def test_rerun_reproduces_manifest_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gold.conll").write_text(GOLD, encoding="utf-8")
    (tmp_path / "alpha.txt").write_text("abcdefghij æøå", encoding="utf-8")
    config = write_config(
        tmp_path,
        [
            {"name": "noise", "command": "noise",
             "args": {"in": "gold.conll", "out": "noised.conll",
                      "fraction": 0.5, "alphabet-from": "alpha.txt", "seed": 9}},
            {"name": "score", "command": "evaluate",
             "args": {"gold": "gold.conll", "pred": "noised.conll", "out": "report.json"}},
        ],
    )
    manifest_path = tmp_path / "manifest.json"
    assert run_pipeline(config, manifest_path) == 0
    first = manifest_path.read_bytes()
    first_report = (tmp_path / "report.json").read_bytes()
    assert run_pipeline(config, manifest_path) == 0
    assert manifest_path.read_bytes() == first
    assert (tmp_path / "report.json").read_bytes() == first_report


def test_rerun_appending_to_one_log_through_dev_stdout_reproduces_the_manifest(tmp_path):
    (tmp_path / "gold.conll").write_text(GOLD, encoding="utf-8")
    config = write_config(tmp_path, [
        {"command": "parse-check", "args": {"in": "gold.conll"}},
        {"command": "stats", "args": {"in": "gold.conll", "out": "/dev/stdout"}},
    ])
    log = tmp_path / "log.txt"
    for manifest in ("m1.json", "m2.json"):
        with open(log, "ab") as stdout:
            result = subprocess.run(
                [sys.executable, "-m", "sidkit.cli", "pipeline", "--config", str(config), "--manifest", manifest],
                cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)}, stdout=stdout,
                stderr=subprocess.PIPE, timeout=120,
            )
        assert result.returncode == 0, result.stderr
    assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
    steps = json.loads((tmp_path / "m1.json").read_text(encoding="utf-8"))["steps"]
    assert steps[1]["outputs"] == {}
    assert steps[1]["inputs"] == {"gold.conll": sha256_file(tmp_path / "gold.conll")}
    assert log.read_bytes().count(b'"name": "gold"') == 2  # each run's stats report is in the log


def test_a_manifest_written_to_stdout_follows_what_the_steps_printed(tmp_path):
    (tmp_path / "gold.conll").write_text(GOLD, encoding="utf-8")
    config = write_config(tmp_path, [{"command": "stats", "args": {"in": "gold.conll"}}])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}  # stdout buffers, as in a shell
    result = subprocess.run(
        [sys.executable, "-m", "sidkit.cli", "pipeline", "--config", str(config), "--manifest", "/dev/stdout"],
        cwd=tmp_path, env={**env, "PYTHONPATH": str(SRC)}, capture_output=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report, manifest = result.stdout.decode("utf-8").split("\n}\n", 1)
    assert json.loads(report + "}")["name"] == "gold"
    assert json.loads(manifest)["steps"][0]["command"] == "stats"


def test_failing_step_aborts_and_records_partial_state(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw.txt").write_text("soL\n", encoding="utf-8")
    config = write_config(
        tmp_path,
        [
            {"name": "clean", "command": "normalize",
             "args": {"in": "raw.txt", "out": "clean.txt"}},
            {"name": "broken", "command": "evaluate",
             "args": {"gold": "missing.conll", "pred": "missing.conll"}},
            {"name": "never-runs", "command": "normalize",
             "args": {"in": "clean.txt", "out": "clean2.txt"}},
        ],
    )
    manifest_path = tmp_path / "manifest.json"
    assert run_pipeline(config, manifest_path) == 1
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert manifest["status"] == "failed"
    assert len(manifest["steps"]) == 2
    assert manifest["steps"][0]["status"] == "ok"
    assert manifest["steps"][1]["status"].startswith("failed")
    assert not (tmp_path / "clean2.txt").exists()


def test_unknown_command_rejected(tmp_path):
    config = write_config(tmp_path, [{"command": "explode", "args": {}}])
    with pytest.raises(PipelineError, match="unknown command"):
        run_pipeline(config, tmp_path / "m.json")


def test_unknown_config_keys_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"steps": [], "surprise": 1}), encoding="utf-8")
    with pytest.raises(PipelineError, match="unknown pipeline config keys"):
        run_pipeline(path, tmp_path / "m.json")


def test_default_manifest_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, [])
    assert main(["pipeline", "--config", str(config)]) == 0
    assert (tmp_path / "pipe.json.manifest.json").exists()


@pytest.mark.parametrize("config", [".", "/"])
def test_a_config_that_is_a_directory_names_it(config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["pipeline", "--config", config]) == 1
    assert capsys.readouterr().err == f"sidkit: error: {config}: Is a directory\n"
    assert os.listdir(tmp_path) == []


# Each config step below is invalid; it sits second, after a valid step.
INVALID_STEPS = {
    "step-not-object": ["normalize", "must be a JSON object"],
    "command-not-string": [{"command": ["normalize"], "args": {}}, "'command' must be a string"],
    "args-not-object": [{"command": "normalize", "args": ["--in", "x"]}, "'args' must be a JSON object"],
    "arg-value-list": [
        {"command": "normalize", "args": {"in": ["raw.txt"], "out": "o.txt"}},
        "argument 'in' must be a string, number, boolean or null",
    ],
    "arg-value-object": [
        {"command": "normalize", "args": {"in": {"a": 1}, "out": "o.txt"}},
        "argument 'in' must be a string, number, boolean or null",
    ],
    "nested-pipeline": [{"command": "pipeline", "args": {"config": "pipe.json"}}, "nested pipeline"],
    "empty-command": [{"command": "", "args": {"in": "raw.txt"}}, "unknown command ''"],
    "missing-flag": [{"command": "normalize", "args": {"in": "raw.txt"}}, "--out"],
    "unknown-flag": [
        {"command": "normalize", "args": {"in": "raw.txt", "out": "o.txt", "bogus": 1}},
        "unrecognized arguments: --bogus",
    ],
    "step-unknown-key": [
        {"command": "normalize", "args": {"in": "raw.txt", "out": "o.txt"}, "seed": 1},
        "unknown keys ['seed']",
    ],
    "surgery-without-out": [
        {"command": "surgery revert", "args": {"a": "x", "b": "y"}},
        "surgery revert/swap require --out",
    ],
    "surgery-swap-heads": [
        {"command": "surgery swap", "args": {"a": "x", "b": "y", "out": "z", "heads": True}},
        "task heads are never swapped",
    ],
    "noise-without-fraction": [
        {"command": "noise", "args": {"in": "raw.txt", "out": "n.conll", "alphabet-from": "raw.txt"}},
        "the following arguments are required: --fraction",
    ],
    "noise-without-alphabet-from": [
        {"command": "noise", "args": {"in": "raw.txt", "out": "n.conll", "fraction": 0.2}},
        "the following arguments are required: --alphabet-from",
    ],
    "noise-with-config": [
        {"command": "noise", "args": {"in": "raw.txt", "out": "n.conll", "fraction": 0.2,
                                      "alphabet-from": "raw.txt", "config": "n.json"}},
        "unrecognized arguments: --config",
    ],
    "fraction-not-a-number": [
        {"command": "noise", "args": {"in": "raw.txt", "out": "n.conll", "fraction": "x",
                                      "alphabet-from": "raw.txt"}},
        "argument --fraction: invalid float value: 'x'",
    ],
    "op-weights-not-numbers": [
        {"command": "noise", "args": {"in": "raw.txt", "out": "n.conll", "fraction": 0.2,
                                      "alphabet-from": "raw.txt", "op-weights": "1,x,1"}},
        "argument --op-weights: expected three comma-separated numbers",
    ],
    "op-weights-all-zero": [
        {"command": "noise", "args": {"in": "raw.txt", "out": "n.conll", "fraction": 0.2,
                                      "alphabet-from": "raw.txt", "op-weights": "0,0,0"}},
        "argument --op-weights: operation weights must not all be zero",
    ],
    "op-weights-negative": [
        {"command": "noise", "args": {"in": "raw.txt", "out": "n.conll", "fraction": 0.2,
                                      "alphabet-from": "raw.txt", "op-weights": "1,-1,1"}},
        "argument --op-weights: operation weights must be finite and non-negative",
    ],
    "noise-fraction-outside-0-1": [
        {"command": "noise", "args": {"in": "raw.txt", "out": "n.conll", "fraction": 2,
                                      "alphabet-from": "raw.txt"}},
        "word_fraction must be in [0, 1], got 2.0",
    ],
    "split-ratio-outside-0-1": [
        {"command": "split", "args": {"in": "clean.txt", "ratio": 1.5, "seed": 1, "out1": "a.conll",
                                      "out2": "b.conll"}},
        "ratio must be in (0, 1), got 1.5",
    ],
    "split-empty-group-delimiter": [
        {"command": "split", "args": {"in": "clean.txt", "ratio": 0.5, "seed": 1, "strategy": "grouped",
                                      "group-delimiter": "", "out1": "a.conll", "out2": "b.conll"}},
        "the group delimiter is empty, so no utterance id has a group key",
    ],
    "layers-not-integers": [
        {"command": "surgery revert", "args": {"a": "x", "b": "y", "out": "z", "layers": "0,a"}},
        "argument --layers: expected comma-separated integers",
    ],
    "output-names-input": [
        {"command": "normalize", "args": {"in": "raw.txt", "out": "./raw.txt"}},
        "--in 'raw.txt' and --out './raw.txt' name the same file",
    ],
    "output-in-missing-directory": [
        {"command": "normalize", "args": {"in": "raw.txt", "out": "nodir/o.txt"}},
        "step 1: nodir/o.txt: No such file or directory\n",
    ],
    "output-under-a-file": [
        {"command": "normalize", "args": {"in": "raw.txt", "out": "raw.txt/o.txt"}},
        "step 1: raw.txt/o.txt: Not a directory\n",
    ],
    "output-is-a-directory": [
        {"command": "normalize", "args": {"in": "raw.txt", "out": "."}},
        "step 1: .: Is a directory\n",
    ],
    "output-spelled-as-a-directory": [
        {"command": "normalize", "args": {"in": "raw.txt", "out": "o/"}},
        "step 1: o/: Is a directory\n",
    ],
    "output-links-into-a-missing-directory": [
        {"command": "normalize", "args": {"in": "raw.txt", "out": "link.txt"}},
        "step 1: link.txt: No such file or directory\n",
    ],
    "output-links-to-the-input-step-0-writes": [  # before step 0 runs, clean.txt does not exist
        {"command": "normalize", "args": {"in": "clean.txt", "out": "pending.txt"}},
        "--in 'clean.txt' and --out 'pending.txt' name the same file",
    ],
    "empty-file-value": [
        {"command": "normalize", "args": {"in": "", "out": "o.txt"}},
        "step 1: argument --in: invalid InputPath value: ''\n",
    ],
    "negative-token-col": [
        {"command": "stats", "args": {"in": "raw.txt", "token-col": -1}},
        "argument --token-col/--tag-col: column indices must be non-negative",
    ],
    "equal-columns": [
        {"command": "stats", "args": {"in": "raw.txt", "tag-col": 0}},
        "argument --token-col/--tag-col: token and tag columns must differ",
    ],
}


@pytest.mark.parametrize("case", sorted(INVALID_STEPS))
def test_invalid_step_exits_1_before_any_step_runs(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw.txt").write_text("soL\n", encoding="utf-8")
    (tmp_path / "link.txt").symlink_to("nodir/t.txt")
    (tmp_path / "pending.txt").symlink_to("clean.txt")
    bad_step, message = INVALID_STEPS[case]
    config = write_config(
        tmp_path,
        [{"name": "clean", "command": "normalize", "args": {"in": "raw.txt", "out": "clean.txt"}},
         bad_step],
    )
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["pipeline", "--config", str(config), "--manifest", "m.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sidkit: error: step 1: ")
    assert message in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


# Each step names a file of the run itself: its manifest (given or default) or its config.
RUN_FILE_STEPS = {
    "out-is-manifest": (["--manifest", "m.json"], {"in": "gold.conll", "out": "m.json"},
                        "--out 'm.json' and --manifest 'm.json' name the same file"),
    "out-is-default-manifest": ([], {"in": "gold.conll", "out": "pipe.json.manifest.json"},
                                "--out 'pipe.json.manifest.json' and --manifest 'pipe.json.manifest.json'"),
    "in-is-manifest": (["--manifest", "m.json"], {"in": "m.json"},
                       "--in 'm.json' and --manifest 'm.json' name the same file"),
    "out-is-config": (["--manifest", "m.json"], {"in": "gold.conll", "out": "pipe.json"},
                      "--out 'pipe.json' and --config 'pipe.json' name the same file"),
}


@pytest.mark.parametrize("case", sorted(RUN_FILE_STEPS))
def test_a_step_naming_the_runs_config_or_manifest_exits_1_before_any_step_runs(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    manifest_flag, args, message = RUN_FILE_STEPS[case]
    (tmp_path / "raw.txt").write_text("soL\n", encoding="utf-8")
    (tmp_path / "gold.conll").write_text(GOLD, encoding="utf-8")
    for old_manifest in ("m.json", "pipe.json.manifest.json"):
        (tmp_path / old_manifest).write_text('{"status": "ok"}\n', encoding="utf-8")
    write_config(
        tmp_path,
        [{"name": "clean", "command": "normalize", "args": {"in": "raw.txt", "out": "clean.txt"}},
         {"name": "stats", "command": "stats", "args": args}],
    )
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(["pipeline", "--config", "pipe.json", *manifest_flag]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sidkit: error: step 1: ")
    assert message in err
    assert "Traceback" not in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("manifest, message", [
    ("nodir/m.json", "sidkit: error: nodir/m.json: No such file or directory\n"),
    ("d", "sidkit: error: d: Is a directory\n"),
], ids=["in-a-missing-directory", "a-directory"])
def test_an_unwritable_manifest_exits_1_before_any_step_runs(manifest, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw.txt").write_text("soL\n", encoding="utf-8")
    (tmp_path / "d").mkdir()
    write_config(tmp_path, [{"name": "clean", "command": "normalize", "args": {"in": "raw.txt", "out": "clean.txt"}}])
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    assert main(["pipeline", "--config", "pipe.json", "--manifest", manifest]) == 1
    assert capsys.readouterr().err == message
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before


@pytest.mark.parametrize("manifest", ["nodir/m.json", None], ids=["in-a-missing-directory", "default-a-directory"])
def test_run_pipeline_checks_where_the_manifest_goes_before_step_0(manifest, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw.txt").write_text("soL\n", encoding="utf-8")
    config = write_config(tmp_path, [{"command": "normalize", "args": {"in": "raw.txt", "out": "clean.txt"}}])
    (tmp_path / "pipe.json.manifest.json").mkdir()
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(OSError) as exc:
        run_pipeline(config, manifest)
    assert exc.value.filename == (manifest or f"{config}.manifest.json")
    assert sorted(tmp_path.rglob("*")) == before


def test_a_pipeline_killed_during_a_step_leaves_no_manifest_temp_file(tmp_path):
    fifo = tmp_path / "raw.txt"
    os.mkfifo(fifo)
    write_config(tmp_path, [{"command": "normalize", "args": {"in": "raw.txt", "out": "clean.txt"}}])
    proc = subprocess.Popen(
        [sys.executable, "-m", "sidkit.cli", "pipeline", "--config", "pipe.json", "--manifest", "m.json"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)}, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 30  # a step that never opens the FIFO must not hang the suite
        while True:  # a writer can open the FIFO once step 0 has opened it to read: the step blocks there
            try:
                writer = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                break
            except OSError as exc:
                assert exc.errno == errno.ENXIO and proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
    finally:
        proc.kill()
        proc.wait(timeout=30)
    os.close(writer)
    assert sorted(os.listdir(tmp_path)) == ["pipe.json", "raw.txt"]


def test_second_invalid_step_leaves_first_output_unwritten(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw.txt").write_text("soL\n", encoding="utf-8")
    config = write_config(
        tmp_path,
        [{"name": "clean", "command": "normalize", "args": {"in": "raw.txt", "out": "clean.txt"}},
         {"name": "broken", "command": "evaluate", "args": {"gold": "clean.txt", "mode": "bogus"}}],
    )
    with pytest.raises(PipelineError, match="step 1: "):
        run_pipeline(config, tmp_path / "m.json")
    assert not (tmp_path / "clean.txt").exists()
    assert not (tmp_path / "m.json").exists()


def test_manifest_digests_every_file_flag_of_a_step(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gold.conll").write_text(GOLD, encoding="utf-8")
    (tmp_path / "train.conll").write_text(GOLD, encoding="utf-8")
    config = write_config(
        tmp_path,
        [{"name": "unseen", "command": "stats",
          "args": {"in": "gold.conll", "unseen-from": "train.conll", "report": "tsv", "out": "s.tsv"}}],
    )
    assert run_pipeline(config, tmp_path / "m.json") == 0
    step = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))["steps"][0]
    assert sorted(step["inputs"]) == ["gold.conll", "train.conll"]
    assert step["outputs"] == {"s.tsv": sha256_file(tmp_path / "s.tsv")}


def test_a_file_two_flags_name_is_digested_once(tmp_path, monkeypatch):
    from sidkit import pipeline

    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.txt").write_text("vekk mæ kl\n", encoding="utf-8")
    (tmp_path / "vocab.txt").write_text("[UNK]\nvekk\nmæ\n", encoding="utf-8")
    hashed = []
    monkeypatch.setattr(pipeline, "sha256_file", lambda path: hashed.append(path) or sha256_file(path))
    config = write_config(tmp_path, [{"command": "subword-ratio", "args": {
        "vocab": "vocab.txt", "in": "t.txt", "compare": "t.txt", "out": "r.json"}}])
    assert run_pipeline(config, tmp_path / "m.json") == 0
    assert sorted(hashed) == ["r.json", "t.txt", "vocab.txt"]
    step = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))["steps"][0]
    assert step["inputs"] == {name: sha256_file(name) for name in ("t.txt", "vocab.txt")}


# The file-flag tables the pipeline kept before the parser declared each flag's role,
# plus `pipeline`'s own flags, typed so that an output cannot alias an input there either.
ORACLE_INPUTS = {
    "parse-check": {"in"},
    "stats": {"in", "unseen-from"},
    "split": {"in"},
    "noise": {"in", "alphabet-from"},
    "normalize": {"in"},
    "evaluate": {"gold", "pred"},
    "subword-ratio": {"vocab", "in", "compare"},
    "correlate": {"in"},
    "surgery": {"a", "b", "scheme"},
    "pipeline": {"config"},
}
ORACLE_OUTPUTS = {
    "parse-check": {"out"},
    "stats": {"out"},
    "split": {"out1", "out2"},
    "noise": {"out"},
    "normalize": {"out", "trace"},
    "evaluate": {"out"},
    "subword-ratio": {"out"},
    "correlate": {"out"},
    "surgery": {"out"},
    "pipeline": {"manifest"},
}


def test_parser_file_roles_match_the_old_tables():
    def flags(parser, role):
        return {
            action.option_strings[0][2:] for action in parser._actions if action.type is role
        }

    commands = build_parser().commands
    assert set(commands) == set(ORACLE_INPUTS)
    for name, parser in commands.items():
        assert flags(parser, InputPath) == ORACLE_INPUTS[name], name
        assert flags(parser, OutputPath) == ORACLE_OUTPUTS[name], name


@pytest.mark.parametrize(("args_seed", "recorded"), [(None, 0), (3, 3)])
def test_manifest_records_the_noise_seed_flag(tmp_path, monkeypatch, args_seed, recorded):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gold.conll").write_text(GOLD, encoding="utf-8")
    (tmp_path / "alpha.txt").write_text("abc", encoding="utf-8")
    args = {"in": "gold.conll", "out": "noised.conll", "fraction": 0.5, "alphabet-from": "alpha.txt",
            "seed": args_seed}
    config = write_config(tmp_path, [{"command": "noise", "args": args}])
    assert run_pipeline(config, tmp_path / "manifest.json") == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["steps"][0]["seed"] == recorded


def test_manifest_seed_of_failed_noise_step_is_the_flag(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gold.conll").write_text(GOLD, encoding="utf-8")
    config = write_config(tmp_path, [{"command": "noise", "args": {
        "in": "gold.conll", "out": "noised.conll", "fraction": 0.5, "alphabet-from": "missing.txt"}}])
    assert run_pipeline(config, tmp_path / "manifest.json") == 1
    step = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))["steps"][0]
    assert (step["status"], step["seed"]) == ("failed (1)", 0)  # the --seed default


def test_manifest_seed_of_unseeded_step_is_null(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw.txt").write_text("soL\n", encoding="utf-8")
    config = write_config(tmp_path, [{"command": "normalize", "args": {"in": "raw.txt", "out": "clean.txt"}}])
    assert run_pipeline(config, tmp_path / "manifest.json") == 0
    assert json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))["steps"][0]["seed"] is None


# ---------------------------------------------------------------------------
# The dataset store of a run
# ---------------------------------------------------------------------------

CORPUS = "".join(
    f"# id: {g}-{k}\n# intent: {'alarm/set' if g % 2 else 'weather/find'}\n# variety: {'ns'[k]}\n"
    f"vekk\tO\nmæ{g}\tB-datetime\nkl\tI-datetime\n\n"
    for g in range(12) for k in range(2)
)
STORE_STEPS = [
    {"command": "split", "args": {"in": "corpus.conll", "ratio": 0.5, "seed": 3, "strategy": "grouped",
                                  "out1": "train.conll", "out2": "heldout.conll"}},
    {"command": "noise", "args": {"in": "train.conll", "out": "noised.conll", "fraction": 0.5,
                                  "alphabet-from": "alpha.txt", "seed": 4}},
    {"command": "stats", "args": {"in": "heldout.conll", "unseen-from": "train.conll", "out": "stats.json"}},
    {"command": "evaluate", "args": {"gold": "train.conll", "pred": "noised.conll", "group-by": "variety",
                                     "out": "eval.json"}},
]


def _store_inputs(path):
    path.mkdir()
    (path / "corpus.conll").write_text(CORPUS, encoding="utf-8")
    (path / "alpha.txt").write_text("abcæøå", encoding="utf-8")


def _active_store():
    return corpus._active_store.get()


def test_steps_reuse_corpora_and_match_separate_command_lines(tmp_path, monkeypatch):
    run, alone = tmp_path / "run", tmp_path / "alone"
    _store_inputs(run)
    _store_inputs(alone)
    monkeypatch.chdir(alone)
    for i, step in enumerate(STORE_STEPS):
        assert main(_step_argv(i, step, build_parser().commands)) == 0

    parses, held = [], []
    parse, step_main = corpus._parse_pieces, cli.main
    monkeypatch.setattr(corpus, "_parse_pieces", lambda *a, **k: parses.append(a) or parse(*a, **k))
    monkeypatch.setattr(cli, "main", lambda argv, args=None: held.append(sorted(
        os.path.basename(p) for p in _active_store()._entries)) or step_main(argv, args))
    monkeypatch.chdir(run)
    assert run_pipeline(write_config(run, STORE_STEPS), run / "manifest.json") == 0

    assert len(parses) == 1  # corpus.conll; every later load is served by the store
    assert held == [
        [],
        ["heldout.conll", "train.conll"],  # corpus.conll is read by no later step
        ["heldout.conll", "noised.conll", "train.conll"],
        ["noised.conll", "train.conll"],
    ]
    assert _active_store() is None
    for name in os.listdir(alone):
        assert (run / name).read_bytes() == (alone / name).read_bytes(), name


PRED_STEPS = [
    {"command": "noise", "args": {"in": "corpus.conll", "out": "noised.conll", "fraction": 0.5,
                                  "alphabet-from": "alpha.txt", "seed": 4}},
    {"command": "evaluate", "args": {"gold": "corpus.conll", "pred": "noised.conll", "out": "held.json"}},
    {"command": "evaluate", "args": {"gold": "corpus.conll", "pred": "other.conll", "group-by": "variety",
                                     "out": "streamed.json"}},
    {"command": "parse-check", "args": {"in": "other.conll", "out": "check.json"}},
]


def test_a_streamed_prediction_file_is_served_when_held_and_never_stored(tmp_path, monkeypatch):
    run, alone = tmp_path / "run", tmp_path / "alone"
    for path in (run, alone):
        _store_inputs(path)
        (path / "other.conll").write_text(CORPUS.replace("alarm/set", "weather/find"), encoding="utf-8")
    monkeypatch.chdir(alone)
    for i, step in enumerate(PRED_STEPS):
        assert main(_step_argv(i, step, build_parser().commands)) == 0

    reads, held = [], []
    read, step_main = corpus._read_utterances, cli.main
    monkeypatch.setattr(corpus, "_read_utterances",
                        lambda path, *a: reads.append(os.path.basename(path)) or read(path, *a))
    monkeypatch.setattr(cli, "main", lambda argv, args=None: held.append(sorted(
        os.path.basename(p) for p in _active_store()._entries)) or step_main(argv, args))
    monkeypatch.chdir(run)
    assert run_pipeline(write_config(run, PRED_STEPS), run / "manifest.json") == 0

    # corpus.conll is parsed once, by noise; noised.conll, which noise wrote, is streamed from the
    # store; other.conll, which the store does not hold, is parsed by each stream and never stored
    assert reads == ["corpus.conll", "other.conll", "other.conll"]
    assert held == [[], ["corpus.conll", "noised.conll"], ["corpus.conll"], []]
    for name in os.listdir(alone):
        assert (run / name).read_bytes() == (alone / name).read_bytes(), name
    steps = json.loads((run / "manifest.json").read_text(encoding="utf-8"))["steps"]
    assert [step["status"] for step in steps] == ["ok"] * len(PRED_STEPS)
    for step in steps:
        for name, digest in {**step["inputs"], **step["outputs"]}.items():
            assert digest == sha256_file(alone / name), name


def test_a_run_parses_each_step_once_and_runs_the_namespace_it_checked(tmp_path, monkeypatch):
    _store_inputs(tmp_path / "run")
    monkeypatch.chdir(tmp_path / "run")
    parsed, ran = [], []
    parse_command, step_main = cli.CommandParser.parse_command, cli.main
    monkeypatch.setattr(cli.CommandParser, "parse_command",
                        lambda self, *a, **k: parsed.append(parse_command(self, *a, **k)) or parsed[-1])
    monkeypatch.setattr(cli, "main", lambda argv, args=None: ran.append(args) or step_main(argv, args))
    config = write_config(tmp_path, STORE_STEPS)
    assert main(["pipeline", "--config", str(config), "--manifest", "m.json"]) == 0
    assert len(parsed) == 1 + len(STORE_STEPS)  # the pipeline command, then each step once
    assert len(ran) == len(STORE_STEPS)
    assert all(args is checked for args, checked in zip(ran, parsed[1:]))
    steps = json.loads(Path("m.json").read_text(encoding="utf-8"))["steps"]
    assert [step["seed"] for step in steps] == [getattr(args, "seed", None) for args in ran] == [3, 4, None, None]


def test_a_file_the_store_serves_is_read_only_for_the_manifest(tmp_path, monkeypatch):
    _store_inputs(tmp_path / "run")
    monkeypatch.chdir(tmp_path / "run")
    reads = Counter()
    read_pieces = files._read_pieces

    def counted(path, digest=None):
        reads[os.path.basename(path)] += 1
        return read_pieces(path, digest)

    monkeypatch.setattr(files, "_read_pieces", counted)
    monkeypatch.setattr(corpus, "_read_pieces", counted)
    assert run_pipeline(write_config(tmp_path, STORE_STEPS), tmp_path / "manifest.json") == 0
    # a digest before each step that reads the file, after each that writes it, and one parse of corpus.conll
    assert reads == {"pipe.json": 1, "corpus.conll": 2, "alpha.txt": 2, "train.conll": 4, "heldout.conll": 2,
                     "noised.conll": 2, "stats.json": 1, "eval.json": 1}


def test_a_corpus_rewritten_between_two_steps_is_parsed_again(tmp_path, monkeypatch):
    run, alone = tmp_path / "run", tmp_path / "alone"
    _store_inputs(run)
    _store_inputs(alone)

    def rewrite(path):  # other bytes of the same size, at the same mtime
        before = path.stat()
        path.write_bytes(path.read_bytes().replace(b"vekk", b"vakk", 1))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))

    monkeypatch.chdir(alone)
    for i, step in enumerate(STORE_STEPS[:2]):
        assert main(_step_argv(i, step, build_parser().commands)) == 0
        if i == 0:
            rewrite(alone / "train.conll")

    parses = []
    parse, step_main = corpus._parse_pieces, cli.main
    monkeypatch.setattr(corpus, "_parse_pieces", lambda *a, **k: parses.append(a) or parse(*a, **k))

    def split_then_rewrite(argv, args=None):
        code = step_main(argv, args)
        if argv[0] == "split":
            rewrite(run / "train.conll")
        return code

    monkeypatch.setattr(cli, "main", split_then_rewrite)
    monkeypatch.chdir(run)
    assert run_pipeline(write_config(run, STORE_STEPS[:2]), run / "manifest.json") == 0

    assert len(parses) == 2  # corpus.conll, then the rewritten train.conll
    steps = json.loads((run / "manifest.json").read_text(encoding="utf-8"))["steps"]
    assert steps[1]["inputs"]["train.conll"] == sha256_file(run / "train.conll")
    for name in os.listdir(alone):
        assert (run / name).read_bytes() == (alone / name).read_bytes(), name


def test_no_store_is_active_after_a_run(tmp_path, monkeypatch):
    _store_inputs(tmp_path / "in")
    monkeypatch.chdir(tmp_path / "in")
    assert run_pipeline(write_config(tmp_path, STORE_STEPS[:2]), tmp_path / "ok.json") == 0
    assert _active_store() is None

    failing = [STORE_STEPS[0], {"command": "evaluate", "args": {"gold": "train.conll", "pred": "none.conll"}}]
    assert run_pipeline(write_config(tmp_path, failing), tmp_path / "failed.json") == 1
    assert _active_store() is None

    seen = []

    def explode(dataset, cfg):
        seen.append(_active_store())
        raise RuntimeError("not a data error")

    monkeypatch.setattr(cli, "noise_dataset", explode)
    with pytest.raises(RuntimeError, match="not a data error"):
        run_pipeline(write_config(tmp_path, STORE_STEPS[:2]), tmp_path / "raised.json")
    assert seen[0] is not None
    assert _active_store() is None


def test_a_thread_started_during_a_run_sees_no_store(tmp_path, monkeypatch):
    import threading

    _store_inputs(tmp_path / "in")
    monkeypatch.chdir(tmp_path / "in")
    seen = {}
    noise = cli.noise_dataset

    def noise_from_a_thread(dataset, cfg):
        seen["step"] = _active_store()
        thread = threading.Thread(target=lambda: seen.setdefault("thread", _active_store()))
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        return noise(dataset, cfg)

    monkeypatch.setattr(cli, "noise_dataset", noise_from_a_thread)
    assert run_pipeline(write_config(tmp_path, STORE_STEPS[:2]), tmp_path / "m.json") == 0
    assert seen["step"] is not None
    assert "thread" in seen and seen["thread"] is None


SUBWORD_STEPS = [
    {"command": "subword-ratio", "args": {"vocab": "vocab.txt", "in": "corpus.conll", "compare": "gold.conll",
                                          "format": "conll", "out": "r1.json"}},
    {"command": "subword-ratio", "args": {"vocab": "vocab.txt", "in": "gold.conll", "compare": "corpus.conll",
                                          "format": "conll", "letters-only": True, "out": "r2.json"}},
    {"command": "subword-ratio", "args": {"vocab": "vocab.txt", "in": "text.txt", "out": "r3.json"}},
    {"command": "subword-ratio", "args": {"vocab": "vocab.txt", "in": "text.txt", "compare": "text.txt",
                                          "out": "r4.json"}},
]


def test_subword_steps_match_separate_command_lines(tmp_path, monkeypatch):
    run, alone = tmp_path / "run", tmp_path / "alone"
    for path in (run, alone):
        _store_inputs(path)
        (path / "gold.conll").write_text(GOLD, encoding="utf-8")
        (path / "text.txt").write_text("vekk mæ1 kl zz\nkor mekk 12 mæ3\n", encoding="utf-8")
        (path / "vocab.txt").write_text("[UNK]\nvekk\nmæ\n##1\n##2\nkl\nkor\n##kk\n", encoding="utf-8")
    monkeypatch.chdir(alone)
    for i, step in enumerate(SUBWORD_STEPS):
        assert main(_step_argv(i, step, build_parser().commands)) == 0

    monkeypatch.chdir(run)
    assert run_pipeline(write_config(run, SUBWORD_STEPS), run / "manifest.json") == 0
    for name in os.listdir(alone):
        assert (run / name).read_bytes() == (alone / name).read_bytes(), name
