"""Bad input ends in exit 1 with a message naming the file, never in a traceback.

Every sidkit data error derives from ValueError, so ``main`` turns exactly
``OSError`` and ``ValueError`` into exit 1; a usage error exits 2.
"""

import importlib
import json
import math
import pkgutil
import struct
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sidkit
from conftest import make_checkpoint
from sidkit.cli import UsageError, main
from sidkit.corpus import CorpusError, ParseError, load_dataset
from sidkit.files import read_text
from sidkit.noise import load_alphabet
from sidkit.subword import SubwordVocab
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


def _run_noise(tmp_path, *flags, alphabet="abc", text=CORPUS):
    """``noise`` over the corpus ``text`` with these flags and an alphabet file holding
    ``alphabet``; the exit code, argparse's included."""
    corpus, alphabet_file = tmp_path / "in.conll", tmp_path / "alphabet.txt"
    corpus.write_text(text, encoding="utf-8")
    alphabet_file.write_text(alphabet, encoding="utf-8")
    argv = ["noise", "--in", str(corpus), "--out", str(tmp_path / "out.conll"), "--alphabet-from", str(alphabet_file)]
    try:
        return main(argv + list(flags))
    except SystemExit as exc:  # a usage error, reported by argparse
        return exc.code


@pytest.mark.parametrize("weights", ["nan,1,1", "1e999,1,1", "1,-1,1", "inf,1,1", "1,1,-inf", "1," + "9" * 400 + ",1"])
def test_noise_weights_must_be_finite_and_non_negative(weights, tmp_path, capsys):
    assert _run_noise(tmp_path, "--fraction", "1", "--op-weights", weights) == 2
    assert "argument --op-weights: operation weights must be finite and non-negative" in capsys.readouterr().err
    assert not (tmp_path / "out.conll").exists()


def test_noise_weights_whose_sum_overflows_exit_2(tmp_path, capsys):
    assert _run_noise(tmp_path, "--fraction", "1", "--op-weights", "1e308,1e308,1e308") == 2
    assert "argument --op-weights: operation weights must have a finite sum" in capsys.readouterr().err
    assert not (tmp_path / "out.conll").exists()


def test_noise_weights_near_the_largest_float_draw_as_ones_do(tmp_path):
    """Weights of 5e307 each sum to 1.5e308, a finite float: every op is drawn, and the
    output is the bytes that weights 1,1,1 give."""
    words = ("vekk", "mæ", "kor", "varmt", "ute")
    text = "\n".join(f"# id: {i}\n# intent: a/b\n" + "".join(f"{w}\tO\n" for w in words) for i in range(200))
    outputs = []
    for weights in ("5e307,5e307,5e307", "1,1,1"):
        assert _run_noise(tmp_path, "--fraction", "1", "--op-weights", weights, text=text) == 0
        outputs.append((tmp_path / "out.conll").read_bytes())
    assert outputs[0] == outputs[1]
    noised = [token for utt in load_dataset(tmp_path / "out.conll") for token in utt.tokens]
    ops = Counter(len(new) - len(old) for old, new in zip(words * 200, noised))
    assert sorted(ops) == [-1, 0, 1] and min(ops.values()) > 200  # delete, substitute, insert


@pytest.mark.parametrize("fraction,shown", [("nan", "nan"), ("-0.1", "-0.1"), ("1.5", "1.5"), ("inf", "inf"),
                                            ("1e999", "inf")])
def test_noise_fraction_outside_0_1_exits_1(fraction, shown, tmp_path, capsys):
    assert _run_noise(tmp_path, "--fraction", fraction) == 1
    err = capsys.readouterr().err
    assert err.endswith(f"sidkit: error: word_fraction must be in [0, 1], got {shown}\n")
    assert "Traceback" not in err
    assert not (tmp_path / "out.conll").exists()


@pytest.mark.parametrize("fraction", ["x", "", "0,5", "1/2"])
def test_noise_fraction_that_is_no_number_exits_2(fraction, tmp_path, capsys):
    assert _run_noise(tmp_path, "--fraction", fraction) == 2
    assert f"argument --fraction: invalid float value: {fraction!r}" in capsys.readouterr().err
    assert not (tmp_path / "out.conll").exists()


@pytest.mark.parametrize("fraction,changed", [("0", 0), ("-0.0", 0), ("1e-320", 0), ("1", 3)])
def test_noise_fraction_bounds_are_accepted(fraction, changed, tmp_path):
    assert _run_noise(tmp_path, "--fraction", fraction) == 0
    before, after = load_dataset(tmp_path / "in.conll"), load_dataset(tmp_path / "out.conll")
    pairs = [(old, new) for u, v in zip(before, after) for old, new in zip(u.tokens, v.tokens)]
    assert sum(old != new for old, new in pairs) == changed  # CORPUS holds 3 alphabetic words


@pytest.mark.parametrize("alphabet", ["", "123 !\n"])
@pytest.mark.parametrize("weights,code", [("1,0,0", 0), ("0,1,0", 1), ("0,0,1", 1)])
def test_alphabet_file_without_letters(alphabet, weights, code, tmp_path, capsys):
    """An alphabet file with no letters is fine until an insertion or substitution is drawn."""
    assert _run_noise(tmp_path, "--fraction", "1", "--op-weights", weights, alphabet=alphabet) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 1:
        assert f"sidkit: error: {tmp_path / 'alphabet.txt'}: " in err and "alphabet" in err
    assert (tmp_path / "out.conll").exists() == (code == 0)


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


@pytest.mark.parametrize("table, x, y, expected", [
    ("a\tb\n1\t2\n2\t1\n", "5", "0", "column '5', line 2: the row has 2 cells"),
    ("1\t2\n2\t1\n", "0", "2", "column '2', line 1: the row has 2 cells"),
    ("a\tb\n1\t2\n3\n", "a", "b", "column 'b', line 3: the row has 1 cell"),
])
def test_a_row_without_the_column_names_its_cell_count(table, x, y, expected, tmp_path, capsys):
    path = tmp_path / "table.tsv"
    path.write_text(table, encoding="utf-8")
    code = main(["correlate", "--in", str(path), "--x", x, "--y", y])
    _assert_exit_1_naming(code, capsys, path, expected)


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
    "table, two rows": (b"a\tb\n1\t2\n2\t1\n", ["correlate", "--in", "{bad}", "--x", "a", "--y", "b"]),
    "table, constant column": (b"a\tb\n1\t2\n2\t2\n3\t2\n", ["correlate", "--in", "{bad}", "--x", "a", "--y", "b"]),
    "table, too long for an exact p": (
        b"".join(b"%d\t%d\n" % (i, i * i % 17) for i in range(15)),
        ["correlate", "--in", "{bad}", "--x", "0", "--y", "1", "--method", "exact"],
    ),
    "text with no words": (b" \n\t\n", ["subword-ratio", "--vocab", "{vocab}", "--in", "{bad}"]),
    "corpus with no words, compared": (
        b"", ["subword-ratio", "--vocab", "{vocab}", "--in", "{corpus}", "--compare", "{bad}", "--format", "conll"],
    ),
    "naming scheme": (b"5", ["surgery", "mav", "--a", "{ckpt}", "--b", "{ckpt}", "--scheme", "{bad}"]),
    "checkpoint, short header": (b"\x00\x00\x00", ["surgery", "mav", "--a", "{ckpt}", "--b", "{bad}"]),
    "checkpoint, bad shape": (
        struct.pack("<Q", len(BAD_SHAPE)) + BAD_SHAPE, ["surgery", "mav", "--a", "{bad}", "--b", "{ckpt}"],
    ),
}


@pytest.mark.parametrize("reader", BAD_INPUTS)
def test_every_reader_names_its_bad_file_first(reader, tmp_path, capsys):
    content, argv = BAD_INPUTS[reader]
    paths = {name: tmp_path / name for name in ("bad", "text", "vocab", "corpus", "ckpt", "out")}
    paths["bad"].write_bytes(content)
    paths["text"].write_text("vekk mæ\n", encoding="utf-8")
    paths["vocab"].write_text("[UNK]\nvekk\n", encoding="utf-8")
    paths["corpus"].write_text(CORPUS, encoding="utf-8")
    make_checkpoint(paths["ckpt"], seed=1, num_layers=2, hidden=2)
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"sidkit: error: {paths['bad']}: "), err
    assert err.count(str(paths["bad"])) == 1 and "Traceback" not in err


def test_a_config_error_keeps_its_class_and_names_the_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(SchemeError) as exc:
        read_text(path, NamingScheme.from_json)
    assert str(exc.value).startswith(f"{path}: ")


def test_a_bad_byte_is_a_plain_value_error_except_in_a_corpus(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"# id: 1\r\nab\xffcd\n")
    message = f"{path}: invalid UTF-8 byte 0xff at line 2, column 3"
    for reader in (read_text, load_alphabet, SubwordVocab.from_file):
        with pytest.raises(ValueError) as exc:
            reader(path)
        assert not isinstance(exc.value, CorpusError), reader
        assert str(exc.value) == message, reader
    with pytest.raises(ParseError) as exc:
        load_dataset(path)
    assert str(exc.value) == message


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
@given(scheme=schemes, pipeline=pipeline_configs)
@example(scheme=5, pipeline={"steps": None})
def test_any_json_config_exits_0_1_or_2(scheme, pipeline, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a pipeline step with relative paths stays in here
    _assert_clean_exit(_run_surgery, tmp_path, scheme, capsys)
    _assert_clean_exit(_run_pipeline, tmp_path, pipeline, capsys)


_numbers = st.floats().map(repr) | st.integers().map(str) | st.sampled_from(["nan", "inf", "1e999", "-0.0"])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    fraction=_numbers | st.text(max_size=6),
    weights=st.none() | st.lists(_numbers, min_size=1, max_size=4).map(",".join) | st.text(max_size=8),
    alphabet=st.text(max_size=8),
)
@example(fraction="1", weights="0,1,0", alphabet="")
def test_any_noise_flags_exit_0_1_or_2(fraction, weights, alphabet, tmp_path, capsys):
    """The noise flags, the only source of noise parameters, never end in a traceback."""
    flags = ["--fraction=" + fraction] + ([] if weights is None else ["--op-weights=" + weights])
    code = _run_noise(tmp_path, *flags, alphabet=alphabet)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (flags, code)
    assert "Traceback" not in err
    if code == 1:
        assert "sidkit: error: " in err
    (tmp_path / "out.conll").unlink(missing_ok=True)


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
    with checkpoint:
        assert sorted(checkpoint.names()) == sorted(name for name in header if name != "__metadata__")
