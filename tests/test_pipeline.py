import json

import pytest

from sidkit.cli import InputPath, OutputPath, build_parser, main
from sidkit.pipeline import PipelineError, run_pipeline, sha256_file

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
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
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
    "surgery-without-out": [
        {"command": "surgery revert", "args": {"a": "x", "b": "y"}},
        "surgery revert/swap require --out",
    ],
}


@pytest.mark.parametrize("case", sorted(INVALID_STEPS))
def test_invalid_step_exits_1_before_any_step_runs(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw.txt").write_text("soL\n", encoding="utf-8")
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


# The file-flag tables the pipeline kept before the parser declared each flag's role.
ORACLE_INPUTS = {
    "parse-check": {"in"},
    "stats": {"in", "unseen-from"},
    "split": {"in"},
    "noise": {"in", "alphabet-from", "config"},
    "normalize": {"in"},
    "evaluate": {"gold", "pred"},
    "subword-ratio": {"vocab", "in", "compare"},
    "correlate": {"in"},
    "surgery": {"a", "b", "scheme"},
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
}


def test_parser_file_roles_match_the_old_tables():
    def flags(parser, role):
        return {
            action.option_strings[0][2:] for action in parser._actions if action.type is role
        }

    commands = build_parser().commands
    assert set(commands) == set(ORACLE_INPUTS) | {"pipeline"}
    for name, parser in commands.items():
        assert flags(parser, InputPath) == ORACLE_INPUTS.get(name, set()), name
        assert flags(parser, OutputPath) == ORACLE_OUTPUTS.get(name, set()), name


@pytest.mark.parametrize(
    ("config_seed", "args_seed", "recorded"),
    [(None, None, 0), (11, None, 11), (11, 3, 3)],
)
def test_manifest_records_effective_noise_seed(tmp_path, monkeypatch, config_seed, args_seed, recorded):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gold.conll").write_text(GOLD, encoding="utf-8")
    args = {"in": "gold.conll", "out": "noised.conll", "seed": args_seed}
    if config_seed is None:
        (tmp_path / "alpha.txt").write_text("abc", encoding="utf-8")
        args.update({"fraction": 0.5, "alphabet-from": "alpha.txt"})
    else:
        (tmp_path / "noise.json").write_text(
            json.dumps({"word_fraction": 0.5, "alphabet": "abc", "seed": config_seed}), encoding="utf-8"
        )
        args["config"] = "noise.json"
    config = write_config(tmp_path, [{"command": "noise", "args": args}])
    assert run_pipeline(config, tmp_path / "manifest.json") == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["steps"][0]["seed"] == recorded


def test_manifest_seed_of_failed_noise_step_is_the_flag(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gold.conll").write_text(GOLD, encoding="utf-8")
    (tmp_path / "noise.json").write_text("{not json", encoding="utf-8")
    config = write_config(tmp_path, [{"command": "noise", "args": {
        "in": "gold.conll", "out": "noised.conll", "config": "noise.json"}}])
    assert run_pipeline(config, tmp_path / "manifest.json") == 1
    step = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))["steps"][0]
    assert (step["status"], step["seed"]) == ("failed (1)", None)


def test_manifest_seed_of_unseeded_step_is_null(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "raw.txt").write_text("soL\n", encoding="utf-8")
    config = write_config(tmp_path, [{"command": "normalize", "args": {"in": "raw.txt", "out": "clean.txt"}}])
    assert run_pipeline(config, tmp_path / "manifest.json") == 0
    assert json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))["steps"][0]["seed"] is None


def test_noise_config_is_parsed_once_per_run(tmp_path, monkeypatch):
    from sidkit.noise import NoiseConfig

    parses = []
    parse = NoiseConfig.from_json
    monkeypatch.setattr(NoiseConfig, "from_json", lambda text: parses.append(text) or parse(text))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gold.conll").write_text(GOLD, encoding="utf-8")
    (tmp_path / "noise.json").write_text(
        json.dumps({"word_fraction": 0.5, "alphabet": "abc", "seed": 11}), encoding="utf-8"
    )
    assert main(["noise", "--in", "gold.conll", "--out", "cli.conll", "--config", "noise.json"]) == 0
    assert len(parses) == 1
    config = write_config(tmp_path, [{"command": "noise", "args": {
        "in": "gold.conll", "out": "step.conll", "config": "noise.json"}}])
    assert run_pipeline(config, tmp_path / "manifest.json") == 0
    assert len(parses) - 1 <= 2  # the step's run, then the manifest's seed
    assert json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))["steps"][0]["seed"] == 11
    assert (tmp_path / "step.conll").read_bytes() == (tmp_path / "cli.conll").read_bytes()
