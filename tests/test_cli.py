import errno
import itertools
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_checkpoint
from sidkit.cli import InputPath, OutputPath, build_parser, main
from sidkit.corpus import ParseError, extract_spans, load_dataset
from sidkit.correlation import pearson, spearman
from sidkit.evaluate import span_f1
from sidkit.surgery import read_checkpoint, write_checkpoint

GOLD = (
    "# id: s1-bm\n# intent: alarm/set\n# variety: bokmål\nvekk\tO\nmæ\tB-datetime\n"
    "\n"
    "# id: s1-no\n# intent: alarm/set\n# variety: north\nvekk\tO\nmæ\tB-datetime\nno\tI-datetime\n"
    "\n"
    "# id: s2-bm\n# intent: weather/find\n# variety: bokmål\nkor\tO\nvarmt\tB-weather/attribute\n"
    "\n"
    "# id: s2-no\n# intent: weather/find\n# variety: north\nkor\tO\nkaldt\tB-weather/attribute\n"
)


@pytest.fixture
def gold_file(tmp_path):
    path = tmp_path / "gold.conll"
    path.write_text(GOLD, encoding="utf-8")
    return path


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "sidkit" in out
    assert "format" in out


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--gold", "x"])
    assert exc.value.code == 2


def test_parse_check_clean_file(gold_file, capsys):
    assert main(["parse-check", "--in", str(gold_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["utterances"] == 4
    assert report["violations"] == 0


def test_parse_check_flags_violations(tmp_path, capsys):
    path = tmp_path / "bad.conll"
    path.write_text("# id: 1\n# intent: x\na\tO\nb\tI-z\n", encoding="utf-8")
    assert main(["parse-check", "--in", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == 1
    assert report["details"][0]["kind"] == "I-without-B"


def test_parse_check_unreadable_file_is_data_error(tmp_path, capsys):
    assert main(["parse-check", "--in", str(tmp_path / "missing.conll")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("variety", [" nord", "nord ", "no\nrd"])
@pytest.mark.parametrize("corpus_text", [GOLD, ""])
def test_bad_variety_flag_is_usage_error(tmp_path, capsys, variety, corpus_text):
    path = tmp_path / "in.conll"
    path.write_text(corpus_text, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["parse-check", "--in", str(path), "--variety", variety])
    assert exc.value.code == 2
    assert "argument --variety: variety" in capsys.readouterr().err


def test_variety_flag_fills_blocks_without_a_variety_comment(tmp_path, capsys):
    path = tmp_path / "in.conll"
    path.write_text("# id: 1\n# intent: x\na\tO\n", encoding="utf-8")
    out = tmp_path / "noised.conll"
    assert main(["noise", "--in", str(path), "--out", str(out), "--fraction", "0", "--alphabet-from", str(path),
                 "--variety", "nord"]) == 0
    assert "# variety: nord\n" in out.read_text(encoding="utf-8")


def test_stats_json(gold_file, capsys):
    assert main(["stats", "--in", str(gold_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["utterances"] == 4
    assert report["num_intents"] == 2
    assert report["num_slot_labels"] == 2


def test_stats_with_unseen(gold_file, tmp_path, capsys):
    train = tmp_path / "train.conll"
    train.write_text("# id: t1\n# intent: alarm/set\nvekk\tB-datetime\n", encoding="utf-8")
    assert main(["stats", "--in", str(gold_file), "--unseen-from", str(train)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["unseen"]["unseen_intents"] == {"weather/find": 2}
    assert "I-datetime" in report["unseen"]["unseen_full_tags"]
    assert report["unseen"]["unseen_i_tags_with_seen_b"] == ["I-datetime"]


def test_stats_tsv(gold_file, tmp_path):
    out = tmp_path / "stats.tsv"
    assert main(["stats", "--in", str(gold_file), "--report", "tsv", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("kind\titem\tcount")


def test_stats_tsv_with_unseen(gold_file, tmp_path):
    train = tmp_path / "train.conll"
    train.write_text("# id: t1\n# intent: alarm/set\nvekk\tB-datetime\n", encoding="utf-8")
    out = tmp_path / "stats.tsv"
    argv = ["stats", "--in", str(gold_file), "--unseen-from", str(train), "--report", "tsv", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (
        b"kind\titem\tcount\n"
        b"intent\talarm/set\t2\nintent\tweather/find\t2\n"
        b"slot_label\tdatetime\t3\nslot_label\tweather/attribute\t2\n"
        b"full_tag\tB-datetime\t2\nfull_tag\tB-weather/attribute\t2\nfull_tag\tI-datetime\t1\nfull_tag\tO\t4\n"
        b"utterances\t\t4\n"
        b"\n"
        b"kind\titem\teval_count\n"
        b"intent\tweather/find\t2\n"
        b"slot_label\tweather/attribute\t2\n"
        b"full_tag\tB-weather/attribute\t2\nfull_tag\tI-datetime\t1\nfull_tag\tO\t4\n"
        b"i_tag_with_seen_b\tI-datetime\t1\n"
    )


def test_split_writes_both_parts_and_echoes_seed(gold_file, tmp_path, capsys):
    out1, out2 = tmp_path / "p1.conll", tmp_path / "p2.conll"
    code = main([
        "split", "--in", str(gold_file), "--ratio", "0.75", "--seed", "3",
        "--out1", str(out1), "--out2", str(out2),
    ])
    assert code == 0
    assert "seed: 3" in capsys.readouterr().err
    part1, part2 = load_dataset(out1), load_dataset(out2)
    assert (len(part1), len(part2)) == (3, 1)


def test_split_with_an_empty_group_delimiter(gold_file, tmp_path, capsys):
    out1, out2 = tmp_path / "p1.conll", tmp_path / "p2.conll"
    args = ["split", "--in", str(gold_file), "--ratio", "0.5", "--seed", "1",
            "--group-delimiter", "", "--out1", str(out1), "--out2", str(out2)]
    assert main([*args, "--strategy", "grouped"]) == 1
    assert capsys.readouterr().err.endswith(
        "\nsidkit: error: the group delimiter is empty, so no utterance id has a group key\n"
    )
    assert not out1.exists() and not out2.exists()
    assert main(args) == 0  # uniform reads no group key, so it takes any delimiter
    assert len(load_dataset(out1)) + len(load_dataset(out2)) == len(load_dataset(gold_file))


def test_split_grouped_by_id_prefix(gold_file, tmp_path):
    out1, out2 = tmp_path / "p1.conll", tmp_path / "p2.conll"
    code = main([
        "split", "--in", str(gold_file), "--ratio", "0.5", "--seed", "1",
        "--strategy", "grouped", "--out1", str(out1), "--out2", str(out2),
    ])
    assert code == 0
    groups1 = {u.id.split("-")[0] for u in load_dataset(out1)}
    groups2 = {u.id.split("-")[0] for u in load_dataset(out2)}
    assert not groups1 & groups2


def test_noise_deterministic_end_to_end(gold_file, tmp_path, capsys):
    alphabet = tmp_path / "dev.txt"
    alphabet.write_text("minn mæ på å send inn mine timeplana", encoding="utf-8")
    out1, out2 = tmp_path / "n1.conll", tmp_path / "n2.conll"
    argv = ["noise", "--in", str(gold_file), "--fraction", "0.5",
            "--alphabet-from", str(alphabet), "--seed", "7"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert "seed: 7" in capsys.readouterr().err
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    noised = load_dataset(out1)
    gold = load_dataset(gold_file)
    assert [u.slot_tags for u in noised] == [u.slot_tags for u in gold]


def test_noise_config_file(gold_file, tmp_path):
    config = tmp_path / "noise.json"
    config.write_text(
        json.dumps({"word_fraction": 0.5, "alphabet": "abcæøå", "seed": 11}),
        encoding="utf-8",
    )
    out = tmp_path / "out.conll"
    assert main(["noise", "--in", str(gold_file), "--out", str(out), "--config", str(config)]) == 0
    assert out.exists()


def test_noise_requires_fraction_or_config(gold_file, tmp_path, capsys):
    assert main(["noise", "--in", str(gold_file), "--out", str(tmp_path / "x.conll")]) == 1
    assert "fraction" in capsys.readouterr().err


def test_noise_refuses_a_config_with_a_fraction(gold_file, tmp_path, capsys):
    config = tmp_path / "noise.json"
    config.write_text(json.dumps({"word_fraction": 0.5, "alphabet": "abc"}), encoding="utf-8")
    out = tmp_path / "out.conll"
    argv = ["noise", "--in", str(gold_file), "--out", str(out), "--config", str(config), "--fraction", "0.1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "sidkit: error: --config cannot be combined with --fraction/--alphabet-from\n"
    assert not out.exists()


@pytest.mark.parametrize("weights", ["1,2", "1,x,1", "1,1,1,1"])
def test_noise_bad_op_weights(gold_file, tmp_path, capsys, weights):
    alphabet = tmp_path / "dev.txt"
    alphabet.write_text("abc", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main([
            "noise", "--in", str(gold_file), "--out", str(tmp_path / "x.conll"),
            "--fraction", "0.2", "--alphabet-from", str(alphabet), "--op-weights", weights,
        ])
    assert exc.value.code == 2
    assert "argument --op-weights: expected three comma-separated numbers" in capsys.readouterr().err
    assert not (tmp_path / "x.conll").exists()


def test_normalize_with_trace(tmp_path):
    src = tmp_path / "raw.txt"
    src.write_text("vat'n  soL\nbakkst issjn\n", encoding="utf-8")
    out = tmp_path / "clean.txt"
    trace = tmp_path / "trace.jsonl"
    assert main(["normalize", "--in", str(src), "--out", str(out), "--trace", str(trace)]) == 0
    assert out.read_text(encoding="utf-8") == "vatn  sol\nbakst issjn\n"
    records = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
    assert {r["input"] for r in records} == {"vat'n", "soL", "bakkst"}


def test_normalize_matches_dotted_capital_i_as_one_character(tmp_path):
    src, out, trace = tmp_path / "raw.txt", tmp_path / "clean.txt", tmp_path / "trace.jsonl"
    src.write_text("İssjt İnnd\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "sidkit.cli", "normalize", "--in", str(src), "--out", str(out), "--trace", str(trace)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert out.read_text(encoding="utf-8") == "İrst İnd\n"
    records = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
    assert [r["applied"] for r in records] == [[{"rule": "cluster-rst", "offset": 1}], [{"rule": "cluster-drop", "offset": 1}]]


def test_normalize_output_and_trace_match_per_token_loop(tmp_path, monkeypatch):
    import sidkit.cli
    from sidkit.normalize import trace_token

    raw = "vat'n  soL\r\nbakkst vat'n\tsoL  soL\r\n\r\nissjn L'aLLkst bakkst’ vat'n \u00a0 kattne katt\r\n"
    src = tmp_path / "raw.txt"
    src.write_bytes(raw.encode("utf-8"))
    out, trace = tmp_path / "clean.txt", tmp_path / "trace.jsonl"
    calls = []
    monkeypatch.setattr(sidkit.cli, "trace_token", lambda token: calls.append(token) or trace_token(token))
    assert main(["normalize", "--in", str(src), "--out", str(out), "--trace", str(trace)]) == 0

    # Oracle: the per-token loops, tracing every occurrence; the file is read with newlines translated.
    text = raw.replace("\r\n", "\n")
    expected_out = "".join(
        part if part.isspace() or not part else trace_token(part).output for part in re.split(r"(\s+)", text)
    )
    expected_trace = "".join(
        trace_token(token).to_json() + "\n" for token in text.split() if trace_token(token).applied
    )
    assert out.read_bytes() == expected_out.encode("utf-8")
    assert trace.read_bytes() == expected_trace.encode("utf-8")
    assert sorted(calls) == sorted(set(text.split()))


@pytest.mark.parametrize(
    "reader,argv",
    [
        ("corpus", ["parse-check", "--in", "{bad}"]),
        ("second corpus", ["stats", "--in", "{gold}", "--unseen-from", "{bad}"]),
        ("vocabulary", ["subword-ratio", "--vocab", "{bad}", "--in", "{gold}"]),
        ("text corpus", ["subword-ratio", "--vocab", "{vocab}", "--in", "{bad}"]),
        ("alphabet", ["noise", "--in", "{gold}", "--out", "{out}", "--fraction", "0.5", "--alphabet-from", "{bad}"]),
        ("noise config", ["noise", "--in", "{gold}", "--out", "{out}", "--config", "{bad}"]),
        ("transcript", ["normalize", "--in", "{bad}", "--out", "{out}"]),
        ("table", ["correlate", "--in", "{bad}", "--x", "0", "--y", "1"]),
        ("naming scheme", ["surgery", "revert", "--a", "{gold}", "--b", "{gold}", "--out", "{out}", "--scheme", "{bad}"]),
    ],
)
def test_undecodable_input_names_file_and_line(reader, argv, gold_file, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"# ok\r\nab\xffcd\n")
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("[UNK]\nab\n", encoding="utf-8")
    paths = {"bad": bad, "gold": gold_file, "vocab": vocab, "out": tmp_path / "out"}
    assert main([arg.format(**paths) for arg in argv]) == 1, reader
    err = capsys.readouterr().err
    assert f"{bad}: invalid UTF-8 byte 0xff at line 2, column 3" in err, reader
    assert err.count(str(bad)) == 1, reader  # a corpus's decode error is not prefixed twice
    assert "Traceback" not in err


# Per input kind: the file's LF text and the command reading it as in.txt, ending with its output flag.
BOM_CASES = {
    "vocabulary": ("[UNK]\nvekk\nmæ\n", ["subword-ratio", "--vocab", "in.txt", "--in", "text.txt", "--out"]),
    "text corpus": ("vekk mæ\nno vekk\n", ["subword-ratio", "--vocab", "vocab.txt", "--in", "in.txt", "--out"]),
    "alphabet": (
        "abcæøå\nxyz\n",
        ["noise", "--in", "gold.conll", "--fraction", "0.5", "--seed", "3", "--alphabet-from", "in.txt", "--out"],
    ),
    "transcript": ("vat'n  soL\nbakkst issjn\n", ["normalize", "--in", "in.txt", "--trace", "trace.jsonl", "--out"]),
    "table": ("a\tb\n1\t2\n2\t1\n3\t4\n4\t3\n", ["correlate", "--in", "in.txt", "--x", "a", "--y", "b", "--out"]),
    "noise config": (
        '{\n  "word_fraction": 0.5,\n  "alphabet": "xyz",\n  "seed": 3\n}\n',
        ["noise", "--in", "gold.conll", "--config", "in.txt", "--out"],
    ),
    "naming scheme": (
        '{\n  "num_layers": 12\n}\n',
        ["surgery", "mav", "--a", "a.safetensors", "--b", "b.safetensors", "--scheme", "in.txt", "--out"],
    ),
    "pipeline config": (
        '{"steps": [\n  {"command": "stats", "args": {"in": "gold.conll", "out": "stats.json"}}\n]}\n',
        ["pipeline", "--config", "in.txt", "--manifest"],
    ),
}


@pytest.mark.parametrize("reader", list(BOM_CASES))
def test_bom_and_crlf_input_reads_like_the_lf_copy(reader, tmp_path, monkeypatch, capsys):
    text, argv = BOM_CASES[reader]

    def run(name: str, data: bytes) -> tuple:
        work = tmp_path / name
        work.mkdir()
        (work / "in.txt").write_bytes(data)
        (work / "gold.conll").write_text(GOLD, encoding="utf-8")
        (work / "vocab.txt").write_text("[UNK]\nvekk\nmæ\n", encoding="utf-8")
        (work / "text.txt").write_text("vekk mæ no\n", encoding="utf-8")
        make_checkpoint(work / "a.safetensors", seed=1)
        make_checkpoint(work / "b.safetensors", seed=2)
        monkeypatch.chdir(work)
        code = main(argv + ["out.json"])
        outputs = {path.name: path.read_bytes() for path in sorted(work.iterdir()) if path.name != "in.txt"}
        if reader == "pipeline config":  # the manifest's digest of the config bytes differs, and only it
            manifest = json.loads(outputs.pop("out.json"))
            assert manifest.pop("config_digest")
            outputs["out.json"] = manifest
        return code, capsys.readouterr(), outputs

    plain = run("plain", text.encode("utf-8"))
    assert plain[0] == 0, plain[1].err
    assert run("bom", b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode("utf-8")) == plain, reader


def test_corpus_file_drops_only_one_bom(tmp_path, capsys):
    path = tmp_path / "two.conll"
    path.write_bytes(b"\xef\xbb\xbf" * 2 + GOLD.encode("utf-8"))
    with pytest.raises(ParseError):
        load_dataset(path)
    assert main(["parse-check", "--in", str(path)]) == 1
    assert "sidkit: error:" in capsys.readouterr().err


BAD_CORPORA = {
    "ragged line": "# id: 1\n# intent: x\na\tO\nonlyone\n",
    "missing intent": "# id: 1\na\tO\n",
    "whitespace token": "# id: 1\n# intent: x\na b\tO\n",
    "duplicate id": "# id: 1\n# intent: x\na\tO\n\n# id: 1\n# intent: x\nb\tO\n",
}


# Per command reading a corpus: its command line, reading the corpus as {bad}.
CORPUS_READERS = {
    "parse-check": ["parse-check", "--in", "{bad}"],
    "stats": ["stats", "--in", "{bad}"],
    "split": ["split", "--in", "{bad}", "--ratio", "0.5", "--seed", "1", "--out1", "{out}1", "--out2", "{out}2"],
    "noise": ["noise", "--in", "{bad}", "--out", "{out}", "--fraction", "0.5", "--alphabet-from", "{vocab}"],
    "evaluate gold": ["evaluate", "--gold", "{bad}", "--pred", "{gold}"],
    "evaluate pred": ["evaluate", "--gold", "{gold}", "--pred", "{bad}"],
    "subword-ratio conll": ["subword-ratio", "--vocab", "{vocab}", "--in", "{bad}", "--format", "conll"],
}


@pytest.mark.parametrize("problem", list(BAD_CORPORA))
@pytest.mark.parametrize("reader", list(CORPUS_READERS))
def test_corpus_parse_error_names_the_file(reader, problem, gold_file, tmp_path, capsys):
    bad = tmp_path / "bad.conll"
    bad.write_text(BAD_CORPORA[problem], encoding="utf-8")
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("[UNK]\na\n", encoding="utf-8")
    paths = {"bad": bad, "gold": gold_file, "vocab": vocab, "out": tmp_path / "out"}
    assert main([arg.format(**paths) for arg in CORPUS_READERS[reader]]) == 1
    err = capsys.readouterr().err
    assert f"sidkit: error: {bad}: " in err, err
    assert "Traceback" not in err


def test_evaluate_self_is_perfect(gold_file, capsys):
    assert main(["evaluate", "--gold", str(gold_file), "--pred", str(gold_file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["intent_accuracy"] == 1.0
    assert report["strict"]["f1"] == 1.0


def test_evaluate_grouped_and_tsv(gold_file, tmp_path):
    out = tmp_path / "report.tsv"
    code = main([
        "evaluate", "--gold", str(gold_file), "--pred", str(gold_file),
        "--group-by", "variety", "--report", "tsv", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("group\t")
    assert {line.split("\t")[0] for line in lines[1:]} == {"all", "bokmål", "north"}


def test_evaluate_single_mode(gold_file, capsys):
    assert main([
        "evaluate", "--gold", str(gold_file), "--pred", str(gold_file), "--mode", "loose",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "loose"
    assert report["loose"]["f1"] == 1.0
    assert "strict" not in report


def test_evaluate_loose_unlabelled_mode_matches_span_f1(gold_file, tmp_path, capsys):
    # shifted boundaries and swapped labels: loose-unlabelled differs from every standard mode
    pred_file = tmp_path / "pred.conll"
    pred_file.write_text(
        GOLD.replace("vekk\tO\nmæ\tB-datetime\nno\tI-datetime", "vekk\tB-x\nmæ\tI-x\nno\tO")
        .replace("varmt\tB-weather/attribute", "varmt\tB-datetime"),
        encoding="utf-8",
    )
    assert main([
        "evaluate", "--gold", str(gold_file), "--pred", str(pred_file), "--mode", "loose-unlabelled",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    gold, pred = load_dataset(gold_file), load_dataset(pred_file).by_id()
    expected = span_f1(
        [extract_spans(u.slot_tags, "lenient") for u in gold],
        [extract_spans(pred[u.id].slot_tags, "lenient") for u in gold],
        "loose-unlabelled",
    )
    assert report["loose-unlabelled"] == expected.to_dict()
    assert expected.matched == 4 and expected.f1 == 1.0
    assert set(report) == {"mode", "intent_accuracy", "loose-unlabelled"}


def test_evaluate_strict_repair_names_side_dataset_and_utterance(tmp_path, capsys):
    gold, pred = tmp_path / "gold.conll", tmp_path / "pred.conll"
    gold.write_text("# id: a\n# intent: x\nin\tO\noslo\tB-loc\n", encoding="utf-8")
    pred.write_text("# id: a\n# intent: x\nin\tO\noslo\tI-loc\n", encoding="utf-8")
    assert main(["evaluate", "--gold", str(gold), "--pred", str(pred), "--repair", "strict"]) == 1
    err = capsys.readouterr().err
    assert err == (
        "sidkit: error: predicted dataset 'pred', utterance 'a': BIO violation at position 1: "
        "I-without-B (I-loc not preceded by B/I tag)\n"
    )


def test_evaluate_mode_choices_are_the_match_modes():
    from typing import get_args

    from sidkit.evaluate import MatchMode

    mode = next(a for a in build_parser().commands["evaluate"]._actions if a.dest == "mode")
    assert tuple(mode.choices) == ("all", *get_args(MatchMode))


def test_evaluate_alignment_failure_is_data_error(gold_file, tmp_path, capsys):
    other = tmp_path / "other.conll"
    other.write_text("# id: zz\n# intent: x\na\tO\n", encoding="utf-8")
    assert main(["evaluate", "--gold", str(gold_file), "--pred", str(other)]) == 1
    assert "error" in capsys.readouterr().err


def test_subword_ratio_with_compare(tmp_path, capsys):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("[UNK]\nhei\ndu\n##i\nhe\n", encoding="utf-8")
    a = tmp_path / "a.txt"
    a.write_text("hei du hei du", encoding="utf-8")
    b = tmp_path / "b.txt"
    b.write_text("hei zz", encoding="utf-8")
    code = main(["subword-ratio", "--vocab", str(vocab), "--in", str(a), "--compare", str(b)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["split_word_ratio"] == 0.0
    assert report["compare_ratio"] == 0.5
    assert report["ratio_difference"] == 0.5


def _ratio_difference(vocab, a, b, capsys):
    assert main(["subword-ratio", "--vocab", str(vocab), "--in", str(a), "--compare", str(b)]) == 0
    return json.loads(capsys.readouterr().out)["ratio_difference"]


def test_subword_ratio_difference_is_symmetric_and_zero_on_self(tmp_path, capsys):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("[UNK]\nhei\ndu\n", encoding="utf-8")
    a = tmp_path / "a.txt"
    a.write_text("hei zz", encoding="utf-8")
    b = tmp_path / "b.txt"
    b.write_text("hei du du", encoding="utf-8")
    assert _ratio_difference(vocab, a, b, capsys) == _ratio_difference(vocab, b, a, capsys) == 0.5
    assert _ratio_difference(vocab, a, a, capsys) == 0.0


def test_subword_ratio_difference_arithmetic(tmp_path, capsys):
    # ratios 0.30 and 0.18 differ by 0.12
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("[UNK]\na\n", encoding="utf-8")
    a = tmp_path / "a.txt"
    a.write_text(" ".join(["a"] * 70 + ["zz"] * 30), encoding="utf-8")
    b = tmp_path / "b.txt"
    b.write_text(" ".join(["a"] * 82 + ["zz"] * 18), encoding="utf-8")
    assert _ratio_difference(vocab, a, b, capsys) == pytest.approx(0.12)


def test_subword_ratio_conll_format(gold_file, tmp_path, capsys):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("[UNK]\nvekk\nmæ\nkor\nvarmt\nkaldt\nno\n", encoding="utf-8")
    code = main(["subword-ratio", "--vocab", str(vocab), "--in", str(gold_file),
                 "--format", "conll"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["split_word_ratio"] == 0.0


def test_subword_ratio_has_no_marker_flag(gold_file, tmp_path, capsys):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("[UNK]\nvekk\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["subword-ratio", "--vocab", str(vocab), "--in", str(gold_file), "--marker", "@@"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --marker @@" in capsys.readouterr().err


def test_correlate_by_header_name(tmp_path, capsys):
    table = tmp_path / "data.tsv"
    rows = ["diff\tscore"] + [f"{i}\t{20 - 2 * i}" for i in range(10)]
    table.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["correlate", "--in", str(table), "--x", "diff", "--y", "score"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["r"] == -1.0
    assert report["rho"] == -1.0
    assert report["n"] == 10


def test_correlate_by_index_without_header(tmp_path, capsys):
    table = tmp_path / "data.tsv"
    table.write_text("\n".join(f"{i}\t{i * i}" for i in range(1, 9)) + "\n", encoding="utf-8")
    assert main(["correlate", "--in", str(table), "--x", "0", "--y", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rho"] == 1.0


def test_correlate_by_index_skips_a_header_row(tmp_path, capsys):
    table = tmp_path / "data.tsv"
    table.write_text("diff\tscore\n" + "".join(f"{i}\t{(i * 7) % 5}\n" for i in range(9)), encoding="utf-8")
    assert main(["correlate", "--in", str(table), "--x", "diff", "--y", "score"]) == 0
    by_name = capsys.readouterr().out
    assert main(["correlate", "--in", str(table), "--x", "0", "--y", "1"]) == 0
    assert capsys.readouterr().out == by_name
    assert json.loads(by_name)["n"] == 9


def test_correlate_exact_reports_permutation_p(tmp_path, capsys):
    x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    y = [2.0, 1.0, 4.0, 3.0, 7.0, 5.0, 6.0]
    table = tmp_path / "data.tsv"
    table.write_text("x\ty\n" + "".join(f"{a}\t{b}\n" for a, b in zip(x, y)), encoding="utf-8")
    assert main(["correlate", "--in", str(table), "--x", "x", "--y", "y", "--method", "exact"]) == 0
    report = json.loads(capsys.readouterr().out)
    r, p_r = pearson(x, y)
    rho, p_exact = spearman(x, y, method="exact")
    assert report == {"n": 7, "r": r, "p_r": p_r, "rho": rho, "p_rho": p_exact}
    assert p_exact != spearman(x, y)[1]


def test_correlate_missing_column(tmp_path, capsys):
    table = tmp_path / "data.tsv"
    table.write_text("a\tb\n1\t2\n", encoding="utf-8")
    assert main(["correlate", "--in", str(table), "--x", "a", "--y", "nope"]) == 1


@pytest.mark.parametrize("flag", ["--x", "--y"])
def test_correlate_reads_a_negative_number_as_a_header_name(tmp_path, capsys, flag):
    table = tmp_path / "data.tsv"
    table.write_text("a\tx\tb\n1\t2\t4\n2\t1\t3\n3\t4\t2\n4\t3\t1\n", encoding="utf-8")
    args = {"--x": "x", "--y": "x", flag: "-1"}
    assert main(["correlate", "--in", str(table), "--x", args["--x"], "--y", args["--y"]]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"sidkit: error: {table}: column '-1' not found in header ['a', 'x', 'b']\n"
    assert captured.out == ""


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--x", "--y"])
def test_correlate_refuses_a_non_finite_cell(tmp_path, capsys, bad, flag):
    table = tmp_path / "data.tsv"
    cells = {"x": ["1", "2", "3", "4"], "y": ["2", "1", "4", "3"]}
    cells[flag[2:]][1] = bad
    table.write_text("x\ty\n\n" + "".join(f"{a}\t{b}\n" for a, b in zip(cells["x"], cells["y"])),
                     encoding="utf-8")
    out = tmp_path / "corr.json"
    assert main(["correlate", "--in", str(table), "--x", "x", "--y", "y", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"sidkit: error: {table}: column {flag[2:]!r}, line 4: {float(bad)} is not a finite number\n"
    assert captured.out == ""
    assert not out.exists()


def test_surgery_swap_and_mav(tmp_path, capsys):
    a = make_checkpoint(tmp_path / "a.safetensors", seed=30)
    b = make_checkpoint(tmp_path / "b.safetensors", seed=31)
    out = tmp_path / "assembled.safetensors"
    code = main([
        "surgery", "swap", "--a", str(a), "--b", str(b),
        "--layers", "0,1", "--embeddings", "--out", str(out),
    ])
    assert code == 0
    with read_checkpoint(out) as assembled, read_checkpoint(b) as donor:
        assert assembled.tensor_bytes("embeddings.word.weight") == donor.tensor_bytes(
            "embeddings.word.weight"
        )

    assert main(["surgery", "mav", "--a", str(a), "--b", str(a)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["global_variance"] == 0.0


@pytest.mark.parametrize("action", ["revert", "swap"])
def test_surgery_writes_to_a_device_or_a_pipe_without_reading_it_back(action, tmp_path):
    a = make_checkpoint(tmp_path / "a.safetensors", seed=30)
    b = make_checkpoint(tmp_path / "b.safetensors", seed=31)
    argv = ["surgery", action, "--a", str(a), "--b", str(b), "--layers", "0,1", "--embeddings", "--out"]
    assert main([*argv, str(tmp_path / "file.safetensors")]) == 0
    assert main([*argv, os.devnull]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    piped = subprocess.run([sys.executable, "-m", "sidkit.cli", *argv, "/dev/stdout"],
                           env=env, capture_output=True, timeout=120)
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == (tmp_path / "file.safetensors").read_bytes()


def test_surgery_revert_requires_out(tmp_path):
    a = make_checkpoint(tmp_path / "a.safetensors", seed=32)
    with pytest.raises(SystemExit) as exc:
        main(["surgery", "revert", "--a", str(a), "--b", str(a)])
    assert exc.value.code == 2


@pytest.mark.parametrize("action", ["revert", "swap"])
def test_surgery_malformed_layers_is_usage_error(action, tmp_path, capsys):
    a = make_checkpoint(tmp_path / "a.safetensors", seed=32)
    with pytest.raises(SystemExit) as exc:
        main(["surgery", action, "--a", str(a), "--b", str(a), "--layers", "0,a",
              "--out", str(tmp_path / "x.safetensors")])
    assert exc.value.code == 2
    assert "argument --layers: expected comma-separated integers, got '0,a'" in capsys.readouterr().err
    assert not (tmp_path / "x.safetensors").exists()


def test_surgery_swap_refuses_heads(tmp_path, capsys):
    a = make_checkpoint(tmp_path / "a.safetensors", seed=33)
    code = main([
        "surgery", "swap", "--a", str(a), "--b", str(a), "--layers", "0",
        "--heads", "--out", str(tmp_path / "x.safetensors"),
    ])
    assert code == 1
    assert "never swapped" in capsys.readouterr().err


def test_surgery_revert_heads(tmp_path):
    a = make_checkpoint(tmp_path / "a.safetensors", seed=33)
    b = make_checkpoint(tmp_path / "b.safetensors", seed=34)
    out = tmp_path / "r.safetensors"
    assert main(["surgery", "revert", "--a", str(a), "--b", str(b), "--heads", "--out", str(out)]) == 0
    with read_checkpoint(out) as reverted, read_checkpoint(a) as ft, read_checkpoint(b) as pre:
        assert reverted.names() == ft.names()
        for name in reverted.names():
            source = pre if name.startswith("classifier.") else ft
            assert reverted.tensor_bytes(name) == source.tensor_bytes(name), name


def test_surgery_mav_refuses_checkpoints_of_empty_tensors(tmp_path, capsys):
    for name in ("a.st", "b.st"):
        write_checkpoint(tmp_path / name, {"embeddings.w": ("F32", (0,), b""), "classifier.b": ("F16", (2, 0), b"")})
    out = tmp_path / "mav.json"
    argv = ["surgery", "mav", "--a", str(tmp_path / "a.st"), "--b", str(tmp_path / "b.st"), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"sidkit: error: checkpoints {tmp_path / 'a.st'} and {tmp_path / 'b.st'} contain no parameters\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["stats", "--in", "{gold}", "--out", "{out}"],
    ["noise", "--in", "{gold}", "--fraction", "0.5", "--alphabet-from", "{gold}", "--out", "{out}"],
    ["surgery", "revert", "--a", "{ckpt}", "--b", "{ckpt}", "--layers", "0", "--out", "{out}"],
])
def test_an_output_in_a_missing_directory_is_named_and_leaves_no_temp_file(argv, gold_file, tmp_path, capsys):
    ckpt = make_checkpoint(tmp_path / "a.safetensors", seed=39)
    out = tmp_path / "missing" / "out"
    before = sorted(tmp_path.rglob("*"))
    assert main([arg.format(gold=gold_file, ckpt=ckpt, out=out) for arg in argv]) == 1
    err = capsys.readouterr().err  # noise prints its seed first
    assert err.splitlines()[-1] == f"sidkit: error: {out}: No such file or directory"
    assert ".tmp" not in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(("argv", "path", "error"), [
    (["surgery", "mav", "--a", "{ckpt}", "--b", "{ckpt}", "--out", "{dir}"], "{dir}", errno.EISDIR),
    (["surgery", "revert", "--a", "{ckpt}", "--b", "{ckpt}", "--layers", "0", "--out", "{dir}"],
     "{dir}", errno.EISDIR),
    (["stats", "--in", "{gold}", "--out", "{dir}"], "{dir}", errno.EISDIR),
    (["evaluate", "--gold", "{gold}", "--pred", "{gold}", "--out", "{dir}"], "{dir}", errno.EISDIR),
    (["stats", "--in", "{missing}"], "{missing}", errno.ENOENT),
    (["surgery", "mav", "--a", "{missing}", "--b", "{ckpt}"], "{missing}", errno.ENOENT),
], ids=["mav-out-dir", "revert-out-dir", "stats-out-dir", "evaluate-out-dir", "missing-in", "missing-a"])
def test_a_file_error_names_its_path_like_every_data_error(argv, path, error, gold_file, tmp_path, capsys):
    paths = {"gold": gold_file, "ckpt": make_checkpoint(tmp_path / "a.safetensors", seed=40),
             "dir": tmp_path / "outdir", "missing": tmp_path / "missing.conll"}
    paths["dir"].mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert capsys.readouterr().err == f"sidkit: error: {path.format(**paths)}: {os.strerror(error)}\n"
    assert sorted(tmp_path.rglob("*")) == before  # no temp file left


REPORT_CORPUS = (
    "# id: s1-bokmål\n# intent: vekkjar/set\n# variety: bokmål\n"
    "vekk\tO\nmæ\tB-tidspunkt/dag\nno\tI-tidspunkt/dag\n"
    "\n"
    "# id: s2-nord\n# intent: vêr/finn\n# variety: nord-ø\nkor\tO\nkaldt\tB-vêr/eigenskap\n"
)
REPORTS = {  # case: (argv, exit code, has a TSV form)
    "parse-check": (["parse-check", "--in", "{pred}"], 1, False),
    "stats": (["stats", "--in", "{gold}"], 0, True),
    "stats-unseen": (["stats", "--in", "{gold}", "--unseen-from", "{train}"], 0, True),
    "evaluate": (["evaluate", "--gold", "{gold}", "--pred", "{pred}"], 0, True),
    "evaluate-grouped": (["evaluate", "--gold", "{gold}", "--pred", "{pred}", "--group-by", "variety"], 0, True),
    "evaluate-mode": (["evaluate", "--gold", "{gold}", "--pred", "{pred}", "--mode", "loose-unlabelled"], 0, True),
    "subword-ratio": (
        ["subword-ratio", "--vocab", "{vocab}", "--in", "{gold}", "--format", "conll", "--compare", "{pred}"], 0, False
    ),
    "correlate": (["correlate", "--in", "{table}", "--x", "x", "--y", "vêr"], 0, True),
    "correlate-exact": (["correlate", "--in", "{table}", "--x", "x", "--y", "vêr", "--method", "exact"], 0, True),
    "surgery-mav": (["surgery", "mav", "--a", "{a}", "--b", "{b}"], 0, False),
}


@pytest.fixture
def report_inputs(tmp_path):
    files = {
        "gold": REPORT_CORPUS,
        "pred": REPORT_CORPUS.replace("mæ\tB-", "mæ\tI-").replace("intent: vêr/finn", "intent: vekkjar/set"),
        "train": "# id: t1\n# intent: vekkjar/set\nvekk\tB-tidspunkt/dag\n",
        "vocab": "[UNK]\nvekk\nmæ\nkor\n##t\n",
        "table": "x\tvêr\n1\t2\n2\t1\n3\t4\n4\t3\n5\t6\n",
    }
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text, encoding="utf-8")
    ids = np.array([[0, 1]], dtype="<i8").tobytes()  # a non-ASCII name, equal in both: listed, not scored
    for name, weights in (("a", [1.0, 2.0]), ("b", [1.5, 2.0])):
        paths[name] = tmp_path / f"{name}.st"
        write_checkpoint(paths[name], {
            "embeddings.posisjon_æ": ("I64", (1, 2), ids),
            "encoder.layer.0.w": ("F32", (2,), np.array(weights, dtype="<f4").tobytes()),
        })
    return paths


def _report(case, report_inputs, *extra):
    argv, code, _ = REPORTS[case]
    out = report_inputs["gold"].parent / "report"
    assert main([arg.format(**report_inputs) for arg in argv] + [*extra, "--out", str(out)]) == code
    return out.read_bytes().decode("utf-8")


@pytest.mark.parametrize("case", list(REPORTS))
def test_every_json_report_is_indented_utf8_json(case, report_inputs):
    text = _report(case, report_inputs)
    assert text == json.dumps(json.loads(text), ensure_ascii=False, indent=2) + "\n"


@pytest.mark.parametrize("case", [case for case, (_, _, tsv) in REPORTS.items() if tsv])
def test_every_tsv_report_is_rows_as_wide_as_their_header(case, report_inputs):
    text = _report(case, report_inputs, "--report", "tsv")
    assert text.endswith("\n") and not text.endswith("\n\n")
    for table in text[:-1].split("\n\n"):  # stats --unseen-from writes two tables
        header, *rows = table.split("\n")
        assert [row.count("\t") for row in rows] == [header.count("\t")] * len(rows)


def test_surgery_with_scheme_file(tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(
        json.dumps({"layer_template": "encoder.layer.{i}.", "num_layers": 2}),
        encoding="utf-8",
    )
    a = make_checkpoint(tmp_path / "a.safetensors", seed=34, num_layers=2)
    out = tmp_path / "r.safetensors"
    code = main([
        "surgery", "revert", "--a", str(a), "--b", str(a),
        "--layers", "0", "--scheme", str(scheme_path), "--out", str(out),
    ])
    assert code == 0
    assert out.read_bytes() == a.read_bytes()


def test_surgery_refuses_output_that_is_an_input(tmp_path, capsys):
    a = make_checkpoint(tmp_path / "a.safetensors", seed=35)
    b = make_checkpoint(tmp_path / "b.safetensors", seed=36)
    before = a.read_bytes()
    code = main([
        "surgery", "revert", "--a", str(a), "--b", str(b), "--layers", "0,1", "--out", str(a),
    ])
    assert code == 1
    assert str(a) in capsys.readouterr().err
    assert a.read_bytes() == before


def test_surgery_revert_rejects_name_in_two_groups(tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(
        json.dumps({"embeddings_prefixes": ["embeddings.", "encoder."]}), encoding="utf-8"
    )
    a = make_checkpoint(tmp_path / "a.safetensors", seed=37)
    b = make_checkpoint(tmp_path / "b.safetensors", seed=38)
    out = tmp_path / "r.safetensors"
    code = main([
        "surgery", "revert", "--a", str(a), "--b", str(b), "--embeddings",
        "--scheme", str(scheme_path), "--out", str(out),
    ])
    assert code == 1
    assert "several groups" in capsys.readouterr().err
    assert not out.exists()


def test_surgery_rejects_checkpoint_with_trailing_bytes(tmp_path, capsys):
    a = make_checkpoint(tmp_path / "a.safetensors", seed=32)
    b = make_checkpoint(tmp_path / "b.safetensors", seed=33)
    size = b.stat().st_size
    with open(b, "ab") as fh:
        fh.write(b"\x00\x00")
    assert main(["surgery", "mav", "--a", str(a), "--b", str(b)]) == 1
    err = capsys.readouterr().err
    assert f"b.safetensors: 2 trailing bytes at file offset {size}" in err
    assert "Traceback" not in err


def test_surgery_rejects_bool_shape_in_header(tmp_path, capsys):
    a = make_checkpoint(tmp_path / "a.safetensors", seed=36)
    header = b'{"t":{"dtype":"F32","shape":[true,2],"data_offsets":[0,8]}}'
    b = tmp_path / "b.safetensors"
    b.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 8)
    assert main(["surgery", "mav", "--a", str(a), "--b", str(b)]) == 1
    err = capsys.readouterr().err
    assert "bad shape (True, 2)" in err
    assert "Traceback" not in err


def _fresh_python(code, cwd):
    """Run ``code`` in a new interpreter that imports sidkit from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_cli_import_loads_no_numpy(tmp_path):
    assert _fresh_python("import sys, sidkit.cli; print('numpy' in sys.modules)", tmp_path) == "False"


def _sidkit_modules_after(code, cwd):
    """The sidkit submodules a fresh interpreter holds after running ``code``."""
    report = "; import sys; print(' '.join(sorted(m for m in sys.modules if m.startswith('sidkit.'))))"
    return set(_fresh_python(code + report, cwd).split())


def test_package_import_loads_no_submodule(tmp_path):
    assert _sidkit_modules_after("import sidkit", tmp_path) == set()


def test_each_command_loads_only_its_modules(tmp_path, gold_file):
    make_checkpoint(tmp_path / "a.safetensors", seed=37)
    make_checkpoint(tmp_path / "b.safetensors", seed=38)
    revert = _sidkit_modules_after(
        "from sidkit.cli import main; assert main(['surgery', 'revert', '--a', 'a.safetensors', "
        "'--b', 'b.safetensors', '--layers', '0', '--out', 'r.safetensors']) == 0",
        tmp_path,
    )
    assert revert == {"sidkit.cli", "sidkit.files", "sidkit.surgery"}
    evaluate = _sidkit_modules_after(
        f"from sidkit.cli import main; assert main(['evaluate', '--gold', {str(gold_file)!r}, "
        f"'--pred', {str(gold_file)!r}, '--out', 'report.json']) == 0",
        tmp_path,
    )
    assert evaluate == {"sidkit.cli", "sidkit.corpus", "sidkit.evaluate", "sidkit.files", "sidkit.rng"}


def test_package_exports_are_the_defining_modules_objects(tmp_path):
    code = (
        "import importlib, sys, sidkit\n"
        "assert sidkit.surgery is sys.modules['sidkit.surgery']\n"
        "import sidkit.evaluate  # binds the submodule's name on the package\n"
        "from sidkit import evaluate\n"
        "assert evaluate is sys.modules['sidkit.evaluate'].evaluate\n"
        "for name in sidkit.__all__:\n"
        "    module = importlib.import_module('sidkit.' + sidkit._OWNER[name])\n"
        "    assert getattr(sidkit, name) is getattr(module, name), name\n"
        "assert set(dir(sidkit)) >= set(sidkit.__all__)\n"
        "try:\n"
        "    sidkit.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)"
    )
    assert _fresh_python(code, tmp_path) == "module 'sidkit' has no attribute 'no_such_name'"


def test_every_export_is_documented_in_the_readme():
    import sidkit

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert [name for name in sidkit.__all__ if name not in set(re.findall(r"\w+", readme))] == []


def test_every_readme_command_line_parses(tmp_path, monkeypatch):
    import shlex

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [line.strip() for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    argvs = [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("sidkit ")]
    argvs = [argv for argv in argvs if argv != ["--version"]]
    assert len(argvs) >= 16
    monkeypatch.chdir(tmp_path)  # the same-file check looks at no file of the checkout
    for argv in argvs:
        assert build_parser().parse_command(argv).command == argv[0], argv


def test_every_lazy_cli_binding_resolves():
    import importlib

    import sidkit.cli

    bound = {name: value.target for name, value in vars(sidkit.cli).items() if hasattr(value, "target")}
    assert len(bound) == 20
    for name, (module, attr) in bound.items():
        assert attr == name
        assert callable(getattr(importlib.import_module(f"sidkit.{module}"), attr)), name


def test_only_surgery_mav_loads_numpy(tmp_path):
    make_checkpoint(tmp_path / "a.safetensors", seed=34)
    make_checkpoint(tmp_path / "b.safetensors", seed=35)
    code = (
        "import sys; from sidkit.cli import main; "
        "rc = main(['surgery', '{}', '--a', 'a.safetensors', '--b', 'b.safetensors', "
        "'--layers', '0,1', '--out', '{}']); print(rc, 'numpy' in sys.modules)"
    )
    assert _fresh_python(code.format("revert", "reverted.safetensors"), tmp_path) == "0 False"
    with read_checkpoint(tmp_path / "reverted.safetensors") as reverted:
        assert reverted.names()
    assert _fresh_python(code.format("mav", "mav.json"), tmp_path) == "0 True"


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_commands_in_one_process_match_separate_runs(tmp_path, monkeypatch):
    argvs = [
        ["stats", "--in", "gold.conll", "--report", "tsv", "--out", "stats.tsv"],
        ["stats", "--in", "gold.conll", "--out", "stats.json"],  # --report back at its default
        ["split", "--in", "gold.conll", "--ratio", "0.5", "--seed", "3", "--strategy", "grouped",
         "--out1", "a.conll", "--out2", "b.conll"],
        ["noise", "--in", "gold.conll", "--out", "n.conll", "--fraction", "0.5",
         "--alphabet-from", "gold.conll", "--seed", "2", "--op-weights", "1,0,0"],
        ["noise", "--in", "gold.conll", "--out", "n0.conll", "--fraction", "0.5",
         "--alphabet-from", "gold.conll"],  # --seed and --op-weights back at their defaults
        ["evaluate", "--gold", "gold.conll", "--pred", "n.conll", "--mode", "strict",
         "--report", "tsv", "--out", "strict.tsv"],
        ["evaluate", "--gold", "gold.conll", "--pred", "n.conll", "--out", "all.json"],
    ]
    together, apart = tmp_path / "together", tmp_path / "apart"
    for path in (together, apart):
        path.mkdir()
        (path / "gold.conll").write_text(GOLD, encoding="utf-8")
    for argv in argvs:
        _fresh_python(f"from sidkit.cli import main; raise SystemExit(main({argv!r}))", apart)
    monkeypatch.chdir(together)
    assert [main(argv) for argv in argvs] == [0] * len(argvs)
    assert sorted(os.listdir(together)) == sorted(os.listdir(apart))
    for name in os.listdir(apart):
        assert (together / name).read_bytes() == (apart / name).read_bytes(), name


def test_commands_outside_a_pipeline_import_no_hashlib(tmp_path, gold_file):
    gold = str(gold_file)
    code = (
        "import sys; from sidkit.cli import main; "
        f"main(['parse-check', '--in', {gold!r}, '--out', 'check.json']); "
        f"main(['evaluate', '--gold', {gold!r}, '--pred', {gold!r}, '--out', 'eval.json']); "
        f"main(['split', '--in', {gold!r}, '--ratio', '0.5', '--seed', '1', "
        "'--out1', 'a.conll', '--out2', 'b.conll']); "
        "print('hashlib' in sys.modules)"
    )
    assert _fresh_python(code, tmp_path) == "False"


# Arguments a command line needs to parse, other than its file flags.
REQUIRED_ARGS = {"split": ["--ratio", "0.5", "--seed", "1"], "correlate": ["--x", "0", "--y", "1"],
                 "surgery": ["revert"]}


def _file_flags(command):
    return [a.option_strings[0] for a in build_parser().commands[command]._actions
            if a.type in (InputPath, OutputPath)]


def _aliasing_flag_pairs():
    """(command, flag, later flag) for each pair of file flags of which one is an output."""
    for command, parser in build_parser().commands.items():
        outputs = {a.option_strings[0] for a in parser._actions if a.type is OutputPath}
        for first, second in itertools.combinations(_file_flags(command), 2):
            if first in outputs or second in outputs:
                yield command, first, second


@pytest.mark.parametrize("alias", ["same string", "./ prefix", "symlink", "hard link", "missing file"])
@pytest.mark.parametrize(("command", "first", "second"), list(_aliasing_flag_pairs()))
def test_an_output_naming_the_file_of_another_file_flag_is_refused(
    tmp_path, monkeypatch, capsys, command, first, second, alias
):
    monkeypatch.chdir(tmp_path)
    if alias != "missing file":
        Path("shared").write_bytes(b"old bytes\n")
    if alias == "symlink":
        os.symlink("shared", "link")
    if alias == "hard link":
        os.link("shared", "hard")
    other = {"./ prefix": "./shared", "symlink": "link", "hard link": "hard"}.get(alias, "shared")
    before = sorted(os.listdir())
    argv = [command, *REQUIRED_ARGS.get(command, [])]
    for flag in _file_flags(command):  # each other flag names a file of its own
        argv += [flag, {first: "shared", second: other}.get(flag, flag.lstrip("-"))]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{first} 'shared' and {second} '{other}' name the same file" in err
    assert "Traceback" not in err
    assert sorted(os.listdir()) == before
    if alias != "missing file":
        assert Path("shared").read_bytes() == b"old bytes\n"
