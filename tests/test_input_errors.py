"""Bad input ends in exit 1 with a message naming the file, never in a traceback.

Every sidkit data error derives from ValueError, so ``main`` turns exactly
``OSError`` and ``ValueError`` into exit 1; a usage error exits 2.
"""

import importlib
import json
import math
import pkgutil
import struct

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sidkit
from conftest import make_checkpoint
from sidkit.cli import UsageError, main
from sidkit.corpus import read_text
from sidkit.noise import NoiseConfig, NoiseError
from sidkit.surgery import DTYPE_SIZES, CheckpointFormatError, NamingScheme, SchemeError, read_checkpoint

CORPUS = "# id: 1\n# intent: a/b\nvekk\tO\nmæ\tB-datetime\n\n# id: 2\n# intent: c/d\nkor\tO\n"


def test_every_sidkit_error_is_a_value_error():
    errors = []
    for info in pkgutil.iter_modules(sidkit.__path__):
        module = importlib.import_module(f"sidkit.{info.name}")
        errors += [
            obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__
        ]
    assert {e.__name__ for e in errors} >= {"CorpusError", "SchemeError", "PipelineError", "UsageError"}
    assert [e for e in errors if e is not UsageError and not issubclass(e, ValueError)] == []
    assert not issubclass(UsageError, ValueError)  # exit 2, not 1


def _run_noise(tmp_path, config_bytes):
    corpus, config = tmp_path / "in.conll", tmp_path / "noise.json"
    corpus.write_text(CORPUS, encoding="utf-8")
    config.write_bytes(config_bytes)
    return main(["noise", "--in", str(corpus), "--out", str(tmp_path / "out.conll"), "--config", str(config)])


def _run_surgery(tmp_path, scheme_bytes):
    a, b, scheme = tmp_path / "a.safetensors", tmp_path / "b.safetensors", tmp_path / "scheme.json"
    if not a.exists():
        make_checkpoint(a, seed=1, num_layers=2, hidden=2)
        make_checkpoint(b, seed=2, num_layers=2, hidden=2)
    scheme.write_bytes(scheme_bytes)
    return main([
        "surgery", "revert", "--a", str(a), "--b", str(b), "--layers", "0", "--embeddings",
        "--scheme", str(scheme), "--out", str(tmp_path / "out.safetensors"),
    ])


def _run_pipeline(tmp_path, config_bytes):
    config = tmp_path / "pipe.json"
    config.write_bytes(config_bytes)
    return main(["pipeline", "--config", str(config), "--manifest", str(tmp_path / "manifest.json")])


def _assert_exit_1_naming(code, capsys, path, expected):
    err = capsys.readouterr().err
    assert code == 1
    assert f"sidkit: error: {path}: " in err
    assert expected in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "config,expected",
    [
        ('{"alphabet": "ab"}', "missing noise config keys: ['word_fraction']"),
        ("[]", "noise config must be a JSON object"),
        ('{"word_fraction": 0.5, "alphabet": "ab", "op_weights": [1]}', "op_weights must map"),
        ('{"word_fraction": 0.5, "alphabet": "ab", "op_weights": {"delet": 1}}', "op_weights must map"),
        ('{"word_fraction": 0.5, "alphabet": "ab", "op_weights": {"both": "1"}}', "op_weights.both must be"),
        ('{"word_fraction": 0.5, "alphabet": "ab", "op_weights": {"both": 1e999}}', "must be finite"),
        ('{"word_fraction": 0.5, "alphabet": "ab", "op_weights": {"insert": ' + "9" * 400 + "}}",
         "must be finite"),
        ('{"word_fraction": "x", "alphabet": "ab"}', "word_fraction must be a number, got 'x'"),
        ('{"word_fraction": NaN, "alphabet": "ab"}', "word_fraction must be in [0, 1], got nan"),
        ('{"word_fraction": 0.5, "alphabet": ["a"]}', "alphabet must be a string"),
        ('{"word_fraction": 0.5, "alphabet": "ab", "seed": true}', "seed must be an integer, got True"),
        ("", "Expecting value: line 1 column 1 (char 0)"),
    ],
)
def test_hostile_noise_config_exits_1_naming_the_file(config, expected, tmp_path, capsys):
    code = _run_noise(tmp_path, config.encode("utf-8"))
    _assert_exit_1_naming(code, capsys, tmp_path / "noise.json", expected)
    assert not (tmp_path / "out.conll").exists()


@pytest.mark.parametrize(
    "scheme,expected",
    [
        ("5", "a naming scheme must be a JSON object"),
        ("[]", "a naming scheme must be a JSON object"),
        ('{"num_layers": "x"}', "num_layers must be an integer, got 'x'"),
        ('{"num_layers": true}', "num_layers must be an integer, got True"),
        ('{"num_layers": 2.0}', "num_layers must be an integer, got 2.0"),
        ('{"embeddings_prefixes": "emb."}', "embeddings_prefixes must be a list of non-empty strings"),
        ('{"head_prefixes": ["classifier.", ""]}', "head_prefixes must be a list of non-empty strings"),
        ('{"head_prefixes": [1]}', "head_prefixes must be a list of non-empty strings"),
        ('{"layer_template": 3}', "layer_template must contain exactly one {i} placeholder"),
        ("{", "Expecting property name enclosed in double quotes"),
    ],
)
def test_hostile_naming_scheme_exits_1_naming_the_file(scheme, expected, tmp_path, capsys):
    code = _run_surgery(tmp_path, scheme.encode("utf-8"))
    _assert_exit_1_naming(code, capsys, tmp_path / "scheme.json", expected)
    assert not (tmp_path / "out.safetensors").exists()


@pytest.mark.parametrize("weights", ["nan,1,1", "1e999,1,1", "1,-1,1"])
def test_noise_weights_must_be_finite_and_non_negative(weights, tmp_path, capsys):
    corpus, alphabet = tmp_path / "in.conll", tmp_path / "alphabet.txt"
    corpus.write_text(CORPUS, encoding="utf-8")
    alphabet.write_text("abc", encoding="utf-8")
    code = main([
        "noise", "--in", str(corpus), "--out", str(tmp_path / "out.conll"), "--fraction", "1",
        "--alphabet-from", str(alphabet), "--op-weights", weights,
    ])
    assert code == 1
    assert "operation weights must be finite and non-negative" in capsys.readouterr().err


def test_scheme_types_checked_in_the_library():
    with pytest.raises(SchemeError, match="embeddings_prefixes"):
        NamingScheme(embeddings_prefixes="embeddings.")
    with pytest.raises(SchemeError, match="num_layers must be an integer"):
        NamingScheme(num_layers=False)
    assert NamingScheme.from_json('{"head_prefixes": []}').head_prefixes == ()


def test_classify_does_not_scan_every_layer_index():
    scheme = NamingScheme(num_layers=10**12)  # the old per-index scan never finished
    assert scheme.classify("embeddings.word") == "embeddings"
    assert scheme.classify("encoder.layer.987654321.w") == 987654321
    assert scheme.classify("encoder.layer.01.w") is None


@pytest.mark.parametrize(
    "config,expected",
    [
        (b'{"steps": [\xff]}', "invalid UTF-8 byte 0xff at line 1, column 12"),
        (b'{"steps": [\r\n\r\n  \xff]}', "invalid UTF-8 byte 0xff at line 3, column 3"),
        (b'{"steps": [\r\r  \xff]}', "invalid UTF-8 byte 0xff at line 3, column 3"),
        (b'{"steps":\r[\n\r\n\xff]}', "invalid UTF-8 byte 0xff at line 4, column 1"),
        (b'{"steps": [}', "Expecting value: line 1 column 12 (char 11)"),
    ],
)
def test_undecodable_pipeline_config_names_the_file(config, expected, tmp_path, capsys):
    code = _run_pipeline(tmp_path, config)
    _assert_exit_1_naming(code, capsys, tmp_path / "pipe.json", expected)
    assert not (tmp_path / "manifest.json").exists()


BAD_SHAPE = b'{"w":{"dtype":"F32","shape":[-1],"data_offsets":[0,0]}}'

# Per reader: the bad file's bytes, and the command line reading it as {bad}.
BAD_INPUTS = {
    "corpus, bad byte": (b"# id: 1\n\xff", ["parse-check", "--in", "{bad}"]),
    "corpus, no intent": (b"# id: 1\nvekk\tO\n", ["parse-check", "--in", "{bad}"]),
    "pipeline config, bad byte": (b'{"steps": [\xff]}', ["pipeline", "--config", "{bad}", "--manifest", "{out}"]),
    "pipeline config, not an object": (b"[]", ["pipeline", "--config", "{bad}", "--manifest", "{out}"]),
    "vocabulary without [UNK]": (b"vekk\nm\xc3\xa6\n", ["subword-ratio", "--vocab", "{bad}", "--in", "{text}"]),
    "table, missing column": (b"a\tb\n1\t2\n", ["correlate", "--in", "{bad}", "--x", "a", "--y", "zz"]),
    "table, non-numeric cell": (b"a\tb\n1\t2\n2\tx\n", ["correlate", "--in", "{bad}", "--x", "a", "--y", "b"]),
    "noise config": (b"[]", ["noise", "--in", "{corpus}", "--out", "{out}", "--config", "{bad}"]),
    "naming scheme": (b"5", ["surgery", "mav", "--a", "{ckpt}", "--b", "{ckpt}", "--scheme", "{bad}"]),
    "checkpoint, short header": (b"\x00\x00\x00", ["surgery", "mav", "--a", "{ckpt}", "--b", "{bad}"]),
    "checkpoint, bad shape": (
        struct.pack("<Q", len(BAD_SHAPE)) + BAD_SHAPE, ["surgery", "mav", "--a", "{bad}", "--b", "{ckpt}"],
    ),
}


@pytest.mark.parametrize("reader", BAD_INPUTS)
def test_every_reader_names_its_bad_file_first(reader, tmp_path, capsys):
    content, argv = BAD_INPUTS[reader]
    paths = {name: tmp_path / name for name in ("bad", "text", "corpus", "ckpt", "out")}
    paths["bad"].write_bytes(content)
    paths["text"].write_text("vekk mæ\n", encoding="utf-8")
    paths["corpus"].write_text(CORPUS, encoding="utf-8")
    make_checkpoint(paths["ckpt"], seed=1, num_layers=2, hidden=2)
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"sidkit: error: {paths['bad']}: "), err
    assert err.count(str(paths["bad"])) == 1 and "Traceback" not in err


@pytest.mark.parametrize("parse,error", [(NoiseConfig.from_json, NoiseError), (NamingScheme.from_json, SchemeError)])
def test_a_config_error_keeps_its_class_and_names_the_file(parse, error, tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(error) as exc:
        read_text(path, parse)
    assert str(exc.value).startswith(f"{path}: ")


def test_two_checkpoints_of_one_name_are_told_apart_by_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for run in ("d1", "d2"):
        (tmp_path / run).mkdir()
        make_checkpoint(tmp_path / run / "m.st", seed=1, num_layers=2, hidden=2)
    truncated = (tmp_path / "d2" / "m.st").read_bytes()[:-4]
    (tmp_path / "d2" / "m.st").write_bytes(truncated)
    assert main(["surgery", "mav", "--a", "d1/m.st", "--b", "d2/m.st"]) == 1
    assert capsys.readouterr().err.startswith("sidkit: error: d2/m.st: tensor ")


# ---------------------------------------------------------------------------
# Arbitrary JSON as a config file
# ---------------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _shaped(fields):
    """Objects whose keys come from ``fields`` (key -> strategy), each value possibly any JSON."""
    return st.fixed_dictionaries({}, optional={key: strategy | json_values for key, strategy in fields.items()})


noise_configs = json_values | _shaped({
    "word_fraction": st.floats(0, 1),
    "alphabet": st.text(max_size=6),
    "op_weights": _shaped({op: st.floats(0, 10) | st.integers() for op in ("delete", "insert", "both")}),
    "seed": st.integers(),
})
schemes = json_values | _shaped({
    "embeddings_prefixes": st.lists(st.sampled_from(["embeddings.", "encoder.", ""]) | st.text(max_size=6)),
    "layer_template": st.sampled_from(["encoder.layer.{i}.", "encoder.layer.{i}", "{i}", "x"]),
    "head_prefixes": st.lists(st.sampled_from(["classifier.", "encoder."]) | st.text(max_size=6)),
    "num_layers": st.integers(),
})
pipeline_configs = json_values | _shaped({
    "steps": st.lists(json_values | _shaped({
        "name": st.text(max_size=6),
        "command": st.sampled_from(["parse-check", "stats", "pipeline", "nope", ""]),
        "args": json_values,
    }), max_size=3),
})


def _assert_clean_exit(run, tmp_path, value, capsys):
    """Exit 0, 1 with a sidkit error message, or 2; never a traceback."""
    try:
        code = run(tmp_path, json.dumps(value).encode("utf-8"))
    except SystemExit as exc:  # a usage error, reported by argparse
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (value, code)
    assert "Traceback" not in err
    if code == 1:
        assert "sidkit: error: " in err


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(noise=noise_configs, scheme=schemes, pipeline=pipeline_configs)
@example(noise=[], scheme=5, pipeline={"steps": None})
def test_any_json_config_exits_0_1_or_2(noise, scheme, pipeline, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a pipeline step with relative paths stays in here
    _assert_clean_exit(_run_noise, tmp_path, noise, capsys)
    _assert_clean_exit(_run_surgery, tmp_path, scheme, capsys)
    _assert_clean_exit(_run_pipeline, tmp_path, pipeline, capsys)


# ---------------------------------------------------------------------------
# Arbitrary checkpoint headers
# ---------------------------------------------------------------------------

@st.composite
def checkpoint_files(draw):
    """A header and the length of the data region after it: tensors that tile
    the region, each field perhaps replaced by any JSON value, and entries
    that are any JSON value; or a header that is any JSON value at all."""
    if draw(st.integers(0, 4)) == 0:
        return draw(json_values), draw(st.integers(0, 72))
    header, end = {}, 0
    for name in draw(st.lists(st.sampled_from(["a", "b", "c", ""]) | st.text(max_size=4), unique=True, max_size=4)):
        dtype = draw(st.sampled_from(sorted(DTYPE_SIZES)))
        shape = draw(st.lists(st.integers(0, 3), max_size=2))
        size = math.prod(shape) * DTYPE_SIZES[dtype]
        entry = {"dtype": dtype, "shape": shape, "data_offsets": [end, end + size]}
        end += size
        for key in draw(st.lists(st.sampled_from([*entry, "extra"]), unique=True, max_size=2)):
            entry[key] = draw(json_values | st.lists(st.integers(-4, 72), max_size=3))
        header[name] = draw(st.just(entry) | json_values) if draw(st.integers(0, 5)) == 0 else entry
    if draw(st.booleans()):
        header["__metadata__"] = draw(st.dictionaries(st.text(max_size=4), st.text(max_size=4)) | json_values)
    return header, end + draw(st.sampled_from([0, 0, 0, 1, 4]) | st.integers(0, 72))  # plus padding


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=checkpoint_files())
def test_any_checkpoint_header_loads_or_raises_checkpoint_format_error(case, tmp_path):
    header, data_len = case
    raw = json.dumps(header).encode("utf-8")
    path = tmp_path / "any.safetensors"
    path.write_bytes(struct.pack("<Q", len(raw)) + raw + bytes(data_len))
    try:
        checkpoint = read_checkpoint(path)
    except CheckpointFormatError:
        return
    assert sorted(checkpoint.names()) == sorted(name for name in header if name != "__metadata__")
