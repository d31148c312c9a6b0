import copy
import dataclasses
import json
import os
import pickle
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NUMPY_DTYPES, make_checkpoint
from sidkit.surgery import (
    Checkpoint,
    CheckpointFormatError,
    NamingScheme,
    SchemeError,
    SurgeryError,
    _resolve_groups,
    mav_report,
    read_checkpoint,
    revert_layers,
    swap_layers,
    write_checkpoint,
)

SCHEME = NamingScheme()


# ---------------------------------------------------------------------------
# Container round trips
# ---------------------------------------------------------------------------


def test_read_write_round_trip_byte_identical(tmp_path):
    src = make_checkpoint(tmp_path / "a.safetensors", seed=1)
    dst = tmp_path / "b.safetensors"
    with read_checkpoint(src) as cp:
        write_checkpoint(
            dst,
            {e.name: (e.dtype, e.shape, cp.tensor_bytes(e.name)) for e in cp.entries},
            metadata=cp.metadata,
        )
    assert src.read_bytes() == dst.read_bytes()


def test_empty_tensor_set_is_a_valid_container(tmp_path):
    path = tmp_path / "empty.safetensors"
    write_checkpoint(path, {})
    with read_checkpoint(path) as cp:
        assert cp.names() == []


def test_random_tensors_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    tensors = {}
    for i in range(100):
        dtype = rng.choice(["F64", "F32", "F16"])
        shape = tuple(int(d) for d in rng.integers(1, 5, size=rng.integers(0, 4)))
        data = rng.standard_normal(shape).astype(NUMPY_DTYPES[dtype]).tobytes()
        tensors[f"t.{i}"] = (dtype, shape, data)
    path = tmp_path / "rand.safetensors"
    write_checkpoint(path, tensors)
    with read_checkpoint(path) as cp:
        assert set(cp.names()) == set(tensors)
        for name, (dtype, shape, data) in tensors.items():
            entry = cp.entry(name)
            assert entry.dtype == dtype
            assert entry.shape == tuple(shape)
            assert cp.tensor_bytes(name) == data


def test_scalar_tensor_round_trip(tmp_path):
    path = tmp_path / "scalar.safetensors"
    data = np.float64(3.25).tobytes()
    write_checkpoint(path, {"s": ("F64", (), data)})
    with read_checkpoint(path) as cp:
        assert cp.entry("s").shape == ()
        assert cp.tensor_bytes("s") == data


def test_metadata_preserved(tmp_path):
    path = tmp_path / "m.safetensors"
    write_checkpoint(path, {"t": ("F32", (1,), b"\x00" * 4)}, metadata={"k": "v"})
    with read_checkpoint(path) as cp:
        assert cp.metadata == {"k": "v"}


@pytest.mark.parametrize(
    "field, value",
    [("path", "other.safetensors"), ("entries", ()), ("metadata", {"k": "w"}), ("data_start", 0)],
)
def test_checkpoint_handle_fields_cannot_be_reassigned(tmp_path, field, value):
    with read_checkpoint(make_checkpoint(tmp_path / "a.safetensors", seed=1)) as cp:
        before = getattr(cp, field)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cp, field, value)
        assert getattr(cp, field) is before


def test_checkpoint_metadata_cannot_be_edited_in_place(tmp_path):
    with read_checkpoint(make_checkpoint(tmp_path / "a.safetensors", seed=1)) as cp:
        with pytest.raises(TypeError):
            cp.metadata["origin"] = "edited"
        assert cp.metadata == {"origin": "synthetic"}


def test_revert_after_attempted_metadata_edit_writes_the_metadata_on_disk(tmp_path):
    pretrained = make_checkpoint(tmp_path / "pt.safetensors", seed=2)
    with read_checkpoint(make_checkpoint(tmp_path / "ft.safetensors", seed=1)) as finetuned:
        with pytest.raises(TypeError):
            finetuned.metadata["origin"] = "edited"
        revert_layers(finetuned, pretrained, [0], SCHEME, tmp_path / "out.safetensors")
    with read_checkpoint(tmp_path / "out.safetensors") as out, read_checkpoint(tmp_path / "ft.safetensors") as ft:
        assert out.metadata == ft.metadata == {"origin": "synthetic"}


def test_checkpoint_keeps_a_copy_of_the_metadata_it_is_given(tmp_path):
    path = make_checkpoint(tmp_path / "a.safetensors", seed=1)
    with read_checkpoint(path) as read:
        entry = read.entries[0]
    given = {"k": "v"}
    with Checkpoint(path, (entry,), given, 8, open(path, "rb", buffering=0)) as cp:
        given["k"] = "w"
        assert cp.metadata == {"k": "v"}


def test_copy_and_pickle_refuse_a_handle_that_still_reads_after(tmp_path):
    path = make_checkpoint(tmp_path / "a.safetensors", seed=1)
    with read_checkpoint(path) as cp:
        for clone in (copy.copy, copy.deepcopy, pickle.dumps):
            with pytest.raises(TypeError, match=re.escape(f"open {path} again with read_checkpoint")):
                clone(cp)
        assert cp.tensor_bytes(cp.names()[0])


def test_handle_keeps_reading_the_file_it_validated_after_a_replace(tmp_path):
    path = tmp_path / "a.st"
    write_checkpoint(path, {"w": ("U8", [4], b"AAAA")})
    cp = read_checkpoint(path)
    write_checkpoint(path, {"w": ("U8", [4], b"BBBB")})
    assert cp.tensor_bytes("w") == b"AAAA"
    write_checkpoint(path, {"a": ("U8", [1], b"x"), "w": ("U8", [2], b"CC")})  # another layout, a smaller file
    assert cp.tensor_bytes("w") == b"AAAA"
    assert cp.tensor_bytes("w", 1, 3) == b"AA"
    cp.close()
    with read_checkpoint(path) as replacement:
        assert replacement.tensor_bytes("w") == b"CC"


def test_threads_read_disjoint_ranges_of_one_handle(tmp_path):
    import sys
    import threading

    data = np.random.default_rng(9).integers(0, 256, 8 * 4096, dtype=np.uint8).tobytes()
    path = tmp_path / "a.st"
    write_checkpoint(path, {"w": ("U8", [len(data)], data)})
    wrong: list[int] = []

    def read(k: int) -> None:
        lo, hi = k * 4096 + k, (k + 1) * 4096
        for _ in range(300):
            if cp.tensor_bytes("w", lo, hi) != data[lo:hi]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with read_checkpoint(path) as cp:
            threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_a_file_truncated_under_a_live_handle_is_a_format_error(tmp_path):
    path = tmp_path / "a.st"
    write_checkpoint(path, {"a": ("U8", [4], b"AAAA"), "b": ("U8", [4], b"BBBB")})
    with read_checkpoint(path) as cp:
        os.truncate(path, path.stat().st_size - 2)
        assert cp.tensor_bytes("a") == b"AAAA"
        with pytest.raises(CheckpointFormatError) as exc:
            cp.tensor_bytes("b")
    assert str(exc.value) == f"{path}: tensor 'b': data region truncated"


def test_closed_handle_refuses_reads_and_closes_twice(tmp_path):
    with read_checkpoint(make_checkpoint(tmp_path / "a.safetensors", seed=1)) as cp:
        name = cp.names()[0]
        assert cp.tensor_bytes(name)
    with pytest.raises(ValueError):
        cp.tensor_bytes(name)
    cp.close()


def _open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_surgery_closes_the_handles_it_opens_and_keeps_those_it_is_given(tmp_path):
    a = make_checkpoint(tmp_path / "a.safetensors", seed=1)
    b = make_checkpoint(tmp_path / "b.safetensors", seed=2)
    bad = tmp_path / "bad.safetensors"
    bad.write_bytes(b"\x01")
    out = tmp_path / "out.safetensors"
    before = _open_descriptors()
    for _ in range(20):
        revert_layers(a, b, [0], SCHEME, out)
        swap_layers(a, b, [0], SCHEME, out, include_embeddings=True)
        mav_report(a, b, SCHEME)
        with pytest.raises(CheckpointFormatError):
            read_checkpoint(bad)
    assert _open_descriptors() == before
    given = read_checkpoint(a)
    revert_layers(given, b, [0], SCHEME, out)
    mav_report(given, b, SCHEME)
    assert given.tensor_bytes(given.names()[0])
    given.close()
    assert _open_descriptors() == before


def test_read_checkpoint_refuses_a_file_it_cannot_read_by_offset(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = os.open(fifo, os.O_RDWR | os.O_NONBLOCK)  # a writer, so opening for reading does not block
    try:
        with pytest.raises(CheckpointFormatError, match=f"{fifo}: not a regular file"):
            read_checkpoint(fifo)
    finally:
        os.close(writer)
    with pytest.raises(CheckpointFormatError, match=f"{tmp_path}: not a regular file"):
        read_checkpoint(tmp_path)


@pytest.mark.parametrize("kind", ["fifo", "directory"])
def test_surgery_mav_names_a_fifo_or_directory_input_without_blocking(tmp_path, kind):
    path = tmp_path / kind
    os.mkfifo(path) if kind == "fifo" else path.mkdir()
    b = make_checkpoint(tmp_path / "b.safetensors", seed=2)
    # a subprocess with a timeout: a FIFO that no process writes must not hang the suite
    result = subprocess.run(
        [sys.executable, "-m", "sidkit.cli", "surgery", "mav", "--a", str(path), "--b", str(b)],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 1
    assert result.stderr == f"sidkit: error: {path}: not a regular file; a checkpoint is read by offset\n"


def test_checkpoint_handle_refuses_duplicate_names(tmp_path):
    path = make_checkpoint(tmp_path / "a.safetensors", seed=1)
    with read_checkpoint(path) as read:
        entry = read.entries[0]
    with open(path, "rb", buffering=0) as fh:
        with pytest.raises(CheckpointFormatError, match="duplicate tensor names in index"):
            Checkpoint(path, (entry, entry), None, 8, fh)


# ---------------------------------------------------------------------------
# Format errors
# ---------------------------------------------------------------------------


def test_header_length_exceeding_file_size(tmp_path):
    path = tmp_path / "bad.safetensors"
    path.write_bytes(struct.pack("<Q", 10_000) + b"{}")
    with pytest.raises(CheckpointFormatError, match="header length"):
        read_checkpoint(path)


def test_truncated_data_region(tmp_path):
    header = json.dumps(
        {"t": {"dtype": "F32", "shape": [4], "data_offsets": [0, 16]}},
        separators=(",", ":"),
    ).encode()
    path = tmp_path / "short.safetensors"
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 8)
    with pytest.raises(CheckpointFormatError, match="past end"):
        read_checkpoint(path)


def test_overlapping_ranges_rejected(tmp_path):
    header = json.dumps(
        {
            "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
            "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
        },
        separators=(",", ":"),
    ).encode()
    path = tmp_path / "overlap.safetensors"
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 12)
    with pytest.raises(CheckpointFormatError, match="overlapping"):
        read_checkpoint(path)


def test_inconsistent_range_size_rejected(tmp_path):
    header = json.dumps(
        {"t": {"dtype": "F32", "shape": [4], "data_offsets": [0, 12]}},
        separators=(",", ":"),
    ).encode()
    path = tmp_path / "size.safetensors"
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 12)
    with pytest.raises(CheckpointFormatError, match="imply"):
        read_checkpoint(path)


@pytest.mark.parametrize(
    ("spec", "message"),
    [
        ({"dtype": "F32", "shape": [True, 2], "data_offsets": [0, 8]}, "bad shape"),
        ({"dtype": "F32", "shape": [2], "data_offsets": [False, 8]}, "data_offsets must be two integers"),
    ],
)
def test_json_bools_are_no_shape_or_offset(tmp_path, spec, message):
    header = json.dumps({"t": spec}, separators=(",", ":")).encode()
    path = tmp_path / "bools.safetensors"
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 8)
    with pytest.raises(CheckpointFormatError, match=message):
        read_checkpoint(path)


def test_non_json_header_rejected(tmp_path):
    path = tmp_path / "junk.safetensors"
    path.write_bytes(struct.pack("<Q", 4) + b"junk")
    with pytest.raises(CheckpointFormatError, match="JSON"):
        read_checkpoint(path)


def test_write_rejects_unknown_dtype(tmp_path):
    path = tmp_path / "x.safetensors"
    with pytest.raises(CheckpointFormatError, match="unknown dtype 'X'"):
        write_checkpoint(path, {"t": ("X", (2,), b"\x00\x00")})


# ---------------------------------------------------------------------------
# Naming scheme and groups
# ---------------------------------------------------------------------------


def test_layer_group_selects_exact_layer(tmp_path):
    with read_checkpoint(make_checkpoint(tmp_path / "a.safetensors", seed=2)) as cp:
        names = _resolve_groups(SCHEME, [0], cp.names())
    assert names == {
        "encoder.layer.0.attention.weight",
        "encoder.layer.0.ffn.weight",
        "encoder.layer.0.norm.bias",
    }


def test_delimiter_aware_matching():
    scheme = NamingScheme(layer_template="encoder.layer.{i}", num_layers=12)
    names = ["encoder.layer.1.w", "encoder.layer.10.w", "encoder.layer.11.w"]
    assert _resolve_groups(scheme, [1], names) == {"encoder.layer.1.w"}
    assert _resolve_groups(scheme, [10], names) == {"encoder.layer.10.w"}


def test_groups_partition_synthetic_checkpoint(tmp_path):
    with read_checkpoint(make_checkpoint(tmp_path / "a.safetensors", seed=3)) as cp:
        names = cp.names()
    assert None not in {SCHEME.classify(name) for name in names}
    union = set()
    for group in ["embeddings", "heads", *range(12)]:
        members = _resolve_groups(SCHEME, [group], names)
        assert not union & members  # disjoint
        union |= members
    assert union == set(names)


def test_empty_group_resolution_errors():
    with pytest.raises(SchemeError, match="matches no tensor"):
        _resolve_groups(SCHEME, [3], ["classifier.weight"])


def test_layer_index_out_of_range():
    with pytest.raises(SchemeError, match="outside"):
        _resolve_groups(SCHEME, [12], ["encoder.layer.0.w"])


def test_scheme_validation_and_from_json():
    with pytest.raises(SchemeError):
        NamingScheme(layer_template="encoder.layer.")
    with pytest.raises(SchemeError):
        NamingScheme(num_layers=0)
    scheme = NamingScheme(
        embeddings_prefixes=("embed.", "rel_pos."),
        layer_template="blocks.{i}.",
        head_prefixes=("lm_head.",),
        num_layers=6,
    )
    raw = {"embeddings_prefixes": ["embed.", "rel_pos."], "layer_template": "blocks.{i}.",
           "head_prefixes": ["lm_head."], "num_layers": 6}
    assert NamingScheme.from_json(json.dumps(raw)) == scheme


def test_ambiguous_scheme_detected():
    scheme = NamingScheme(
        embeddings_prefixes=("encoder.",), layer_template="encoder.layer.{i}.", num_layers=2
    )
    with pytest.raises(SchemeError, match="several groups"):
        scheme.classify("encoder.layer.0.w")


def _prefix_filter(scheme, group, names):
    """The per-prefix filter that defined groups before group resolution used classify."""

    def prefix_match(name, prefix):
        if name == prefix:
            return True
        if not name.startswith(prefix):
            return False
        return prefix.endswith(".") or name[len(prefix)] == "."

    if group == "embeddings":
        prefixes = scheme.embeddings_prefixes
    elif group == "heads":
        prefixes = scheme.head_prefixes
    else:
        prefixes = (scheme.layer_prefix(group),)
    return {n for n in names if any(prefix_match(n, p) for p in prefixes)}


def _filter_layer_group(scheme, group, names):
    """One group's resolution as the per-prefix filter computed it, errors included."""
    if group not in ("embeddings", "heads") and not isinstance(group, int):
        raise SchemeError(f"unknown group {group!r}")
    selected = _prefix_filter(scheme, group, names)
    if not selected:
        raise SchemeError(f"group {group!r} matches no tensor names; scheme misconfigured?")
    return selected


@st.composite
def schemes_and_names(draw):
    template = draw(st.sampled_from(["encoder.layer.{i}.", "encoder.layer.{i}", "h{i}", "blocks.{i}.mlp"]))
    scheme = NamingScheme(
        embeddings_prefixes=tuple(draw(st.lists(
            st.sampled_from(["embeddings.", "embeddings", "encoder.", "h"]),
            min_size=1, max_size=2, unique=True,
        ))),
        layer_template=template,
        head_prefixes=tuple(draw(st.lists(
            st.sampled_from(["classifier.", "classifier", "pooler", "blocks.1"]),
            min_size=1, max_size=2, unique=True,
        ))),
        num_layers=draw(st.integers(1, 12)),
    )
    # indices past num_layers, with leading zeros, or not numbers at all
    index = st.one_of(st.integers(0, 14).map(str), st.sampled_from(["00", "01", "011", "-1", "x"]))
    stem = st.one_of(
        index.map(lambda i: template.replace("{i}", i)),
        st.sampled_from(["embeddings", "embeddings.", "classifier", "classifier.", "pooler", "encoder"]),
    )
    # "" leaves a name equal to its stem, which may be a whole prefix
    suffix = st.sampled_from(["", ".", ".w", "w", "0.w", ".0.bias"])
    names = draw(st.lists(st.tuples(stem, suffix).map("".join), max_size=25, unique=True))
    return scheme, names


@settings(max_examples=300, deadline=None)
@given(schemes_and_names())
def test_group_resolution_agrees_with_per_prefix_filter(case):
    scheme, names = case
    groups = ["embeddings", "heads", *range(scheme.num_layers)]
    members = [_prefix_filter(scheme, g, names) for g in groups]
    ambiguous = any(sum(n in m for m in members) > 1 for n in names)
    for group in [*groups, scheme.num_layers, scheme.num_layers + 3, -1, "layers"]:
        if ambiguous:
            with pytest.raises(SchemeError, match="several groups"):
                _resolve_groups(scheme, [group], names)
            continue
        try:
            expected = _filter_layer_group(scheme, group, names)
        except SchemeError as exc:
            with pytest.raises(SchemeError, match=re.escape(str(exc))):
                _resolve_groups(scheme, [group], names)
        else:
            assert _resolve_groups(scheme, [group], names) == expected


def test_ambiguous_scheme_rejected_by_revert_swap_and_group_resolution(tmp_path):
    scheme = NamingScheme(embeddings_prefixes=("embeddings.", "encoder."))
    a = make_checkpoint(tmp_path / "a.safetensors", seed=40)
    b = make_checkpoint(tmp_path / "b.safetensors", seed=41)
    out = tmp_path / "out.safetensors"
    with pytest.raises(SchemeError, match="several groups"):
        revert_layers(a, b, ["embeddings"], scheme, out)
    with pytest.raises(SchemeError, match="several groups"):
        swap_layers(a, b, [0, 1], scheme, out)
    with read_checkpoint(a) as cp, pytest.raises(SchemeError, match="several groups"):
        _resolve_groups(scheme, ["heads"], cp.names())
    assert not out.exists()


# ---------------------------------------------------------------------------
# Revert and swap
# ---------------------------------------------------------------------------


def _tensor_map(path):
    with read_checkpoint(path) as cp:
        return {name: cp.tensor_bytes(name) for name in cp.names()}


def test_revert_no_groups_is_identity(tmp_path):
    finetuned = make_checkpoint(tmp_path / "ft.safetensors", seed=4)
    pretrained = make_checkpoint(tmp_path / "pt.safetensors", seed=5)
    out = tmp_path / "out.safetensors"
    revert_layers(finetuned, pretrained, [], SCHEME, out)
    assert out.read_bytes() == finetuned.read_bytes()


def test_revert_all_groups_restores_pretrained(tmp_path):
    finetuned = make_checkpoint(tmp_path / "ft.safetensors", seed=6)
    pretrained = make_checkpoint(tmp_path / "pt.safetensors", seed=7)
    out = tmp_path / "out.safetensors"
    revert_layers(
        finetuned, pretrained, ["embeddings", "heads", *range(12)], SCHEME, out
    )
    assert out.read_bytes() == pretrained.read_bytes()


def test_revert_is_idempotent(tmp_path):
    finetuned = make_checkpoint(tmp_path / "ft.safetensors", seed=8)
    pretrained = make_checkpoint(tmp_path / "pt.safetensors", seed=9)
    once = tmp_path / "once.safetensors"
    twice = tmp_path / "twice.safetensors"
    revert_layers(finetuned, pretrained, [0, 1], SCHEME, once)
    revert_layers(once, pretrained, [0, 1], SCHEME, twice)
    assert once.read_bytes() == twice.read_bytes()


def test_revert_frame_rule(tmp_path):
    finetuned = make_checkpoint(tmp_path / "ft.safetensors", seed=10)
    pretrained = make_checkpoint(tmp_path / "pt.safetensors", seed=11)
    out = tmp_path / "out.safetensors"
    revert_layers(finetuned, pretrained, [3, 4], SCHEME, out)
    ft, pt, result = _tensor_map(finetuned), _tensor_map(pretrained), _tensor_map(out)
    reverted = {name for name in ft if SCHEME.classify(name) in (3, 4)}
    assert reverted
    for name in ft:
        if name in reverted:
            assert result[name] == pt[name], name
        else:
            assert result[name] == ft[name], name


def test_swap_from_self_is_identity(tmp_path):
    a = make_checkpoint(tmp_path / "a.safetensors", seed=12)
    out = tmp_path / "out.safetensors"
    swap_layers(a, a, [0, 1], SCHEME, out, include_embeddings=True)
    assert out.read_bytes() == a.read_bytes()


def test_swap_then_swap_back_restores_original(tmp_path):
    a = make_checkpoint(tmp_path / "a.safetensors", seed=13)
    b = make_checkpoint(tmp_path / "b.safetensors", seed=14)
    ab = tmp_path / "ab.safetensors"
    back = tmp_path / "back.safetensors"
    swap_layers(a, b, [0, 1], SCHEME, ab, include_embeddings=True)
    swap_layers(ab, a, [0, 1], SCHEME, back, include_embeddings=True)
    assert back.read_bytes() == a.read_bytes()


def test_assembled_model_tensor_audit(tmp_path):
    recipient = make_checkpoint(tmp_path / "task.safetensors", seed=15)
    donor = make_checkpoint(tmp_path / "lang.safetensors", seed=16)
    out = tmp_path / "assembled.safetensors"
    swap_layers(recipient, donor, [0, 1], SCHEME, out, include_embeddings=True)
    rec, don, result = _tensor_map(recipient), _tensor_map(donor), _tensor_map(out)
    swapped = {name for name in rec if SCHEME.classify(name) in (0, 1, "embeddings")}
    assert swapped
    for name in rec:
        expected = don[name] if name in swapped else rec[name]
        assert result[name] == expected, name
    # heads must come from the recipient
    for name in rec:
        if SCHEME.classify(name) == "heads":
            assert result[name] == rec[name]


@pytest.mark.parametrize("alias", ["base", "donor", "hard link to base"])
def test_output_aliasing_an_input_is_rejected(tmp_path, alias):
    ft = make_checkpoint(tmp_path / "ft.safetensors", seed=42)
    pre = make_checkpoint(tmp_path / "pre.safetensors", seed=43)
    before = (ft.read_bytes(), pre.read_bytes())
    out = {"base": ft, "donor": pre}.get(alias, tmp_path / "link.safetensors")
    if alias == "hard link to base":
        os.link(ft, out)
    with pytest.raises(SurgeryError, match=re.escape(str(out))):
        revert_layers(ft, pre, [0, 1], SCHEME, out)
    with pytest.raises(SurgeryError, match=re.escape(str(out))):
        swap_layers(ft, pre, [0, 1], SCHEME, out, include_embeddings=True)
    assert (ft.read_bytes(), pre.read_bytes()) == before


def test_swap_rejects_non_integer_layers(tmp_path):
    a = make_checkpoint(tmp_path / "a.safetensors", seed=17)
    with pytest.raises(SurgeryError):
        swap_layers(a, a, ["heads"], SCHEME, tmp_path / "x.safetensors")


def test_surgery_reports_missing_tensor(tmp_path):
    finetuned = make_checkpoint(tmp_path / "ft.safetensors", seed=18)
    small = make_checkpoint(tmp_path / "small.safetensors", seed=19, num_layers=2)
    with pytest.raises(SurgeryError, match=re.escape(f"'encoder.layer.5.") + ".*" + re.escape(f"in {small}")):
        revert_layers(finetuned, small, [5], SCHEME, tmp_path / "x.safetensors")


def test_surgery_reports_shape_mismatch(tmp_path):
    a = make_checkpoint(tmp_path / "a.safetensors", seed=20, hidden=4)
    b = make_checkpoint(tmp_path / "b.safetensors", seed=21, hidden=8)
    with pytest.raises(SurgeryError, match="mismatch"):
        revert_layers(a, b, [0], SCHEME, tmp_path / "x.safetensors")


# ---------------------------------------------------------------------------
# MAV
# ---------------------------------------------------------------------------


def test_mav_of_identical_checkpoints_is_zero(tmp_path):
    a = make_checkpoint(tmp_path / "a.safetensors", seed=22)
    report = mav_report(a, a, SCHEME)
    assert report.global_variance == 0.0
    assert set(report.per_group) == {"embeddings", "heads", *(f"layer {i}" for i in range(12))}
    assert all(v == 0.0 for v in report.per_group.values())


def test_mav_constant_shift_on_one_layer(tmp_path):
    a_path = make_checkpoint(tmp_path / "a.safetensors", seed=23, dtype="F64")
    b_path = tmp_path / "b.safetensors"
    with read_checkpoint(a_path) as a:
        tensors = {
            e.name: (e.dtype, e.shape, a.tensor_bytes(e.name)) for e in a.entries
        }
        shift = 0.125  # exactly representable
        for name in (n for n in a.names() if SCHEME.classify(n) == 5):
            arr = np.frombuffer(a.tensor_bytes(name), dtype="<f8") + shift
            tensors[name] = ("F64", a.entry(name).shape, arr.astype("<f8").tobytes())
        write_checkpoint(b_path, tensors, metadata=a.metadata)

    report = mav_report(a_path, b_path, SCHEME)
    assert report.per_group["layer 5"] == pytest.approx(shift, rel=0, abs=0)
    for key, value in report.per_group.items():
        if key != "layer 5":
            assert value == 0.0


def test_mav_symmetry_and_linearity(tmp_path):
    a_path = make_checkpoint(tmp_path / "a.safetensors", seed=24, dtype="F64")
    b_path = make_checkpoint(tmp_path / "b.safetensors", seed=25, dtype="F64")
    forward = mav_report(a_path, b_path, SCHEME)
    backward = mav_report(b_path, a_path, SCHEME)
    assert forward.per_group == backward.per_group
    assert forward.global_variance == backward.global_variance

    # c = a + 2(b - a): doubles every difference exactly in float64
    c_path = tmp_path / "c.safetensors"
    with read_checkpoint(a_path) as a, read_checkpoint(b_path) as b:
        tensors = {}
        for entry in a.entries:
            va = np.frombuffer(a.tensor_bytes(entry.name), dtype="<f8")
            vb = np.frombuffer(b.tensor_bytes(entry.name), dtype="<f8")
            tensors[entry.name] = ("F64", entry.shape, (va + 2.0 * (vb - va)).tobytes())
        write_checkpoint(c_path, tensors, metadata=a.metadata)

    doubled = mav_report(a_path, c_path, SCHEME)
    for key in forward.per_group:
        assert doubled.per_group[key] == pytest.approx(2 * forward.per_group[key], rel=1e-12)
    assert doubled.global_variance == pytest.approx(4 * forward.global_variance, rel=1e-12)


def test_mav_supports_f16_and_bf16(tmp_path):
    values = np.array([1.0, -2.5, 0.5, 3.0])
    f16 = values.astype("<f2")
    bf16_bits = (values.astype("<f4").view("<u4") >> 16).astype("<u2")
    path_a = tmp_path / "a.safetensors"
    path_b = tmp_path / "b.safetensors"
    write_checkpoint(path_a, {
        "embeddings.w": ("F16", (4,), f16.tobytes()),
        "encoder.layer.0.w": ("BF16", (4,), bf16_bits.tobytes()),
    })
    write_checkpoint(path_b, {
        "embeddings.w": ("F16", (4,), (f16 + np.float16(1.0)).tobytes()),
        "encoder.layer.0.w": ("BF16", (4,), bf16_bits.tobytes()),
    })
    scheme = NamingScheme(num_layers=1)
    report = mav_report(path_a, path_b, scheme)
    assert report.per_group["embeddings"] == pytest.approx(1.0)
    assert report.per_group["layer 0"] == 0.0


def test_mav_rejects_structure_mismatch(tmp_path):
    a = make_checkpoint(tmp_path / "a.safetensors", seed=26)
    b = make_checkpoint(tmp_path / "b.safetensors", seed=27, num_layers=6)
    with pytest.raises(SurgeryError, match=re.escape(f"checkpoints {a} and {b} hold different tensors")):
        mav_report(a, b, SCHEME)


def _position_ids_pair(tmp_path, b_ids):
    """BERT-style checkpoints: an I64 ``embeddings.position_ids`` of shape [1, 4] next to F32 weights."""
    rng = np.random.default_rng(29)
    for path, ids in (("a.safetensors", [0, 1, 2, 3]), ("b.safetensors", b_ids)):
        write_checkpoint(tmp_path / path, {
            "embeddings.position_ids": ("I64", (1, 4), np.array([ids], dtype="<i8").tobytes()),
            "embeddings.w": ("F32", (3,), rng.standard_normal(3).astype("<f4").tobytes()),
            "encoder.layer.0.w": ("F32", (2,), rng.standard_normal(2).astype("<f4").tobytes()),
        })
    return tmp_path / "a.safetensors", tmp_path / "b.safetensors"


def test_mav_leaves_out_and_lists_a_non_float_tensor_equal_in_both(tmp_path):
    a, b = _position_ids_pair(tmp_path, [0, 1, 2, 3])
    scheme = NamingScheme(num_layers=1)
    report = mav_report(a, b, scheme)
    assert report.parameter_count == 5
    assert report.per_group_counts == {"embeddings": 3, "layer 0": 2}
    assert report.non_float_tensors == ("embeddings.position_ids",)
    assert report.to_dict()["non_float_tensors"] == ["embeddings.position_ids"]
    # the float tensors alone give the same statistics, and no extra key
    for path in (a, b):
        with read_checkpoint(path) as cp:
            write_checkpoint(path.with_suffix(".f32"), {
                name: (cp.entry(name).dtype, cp.entry(name).shape, cp.tensor_bytes(name))
                for name in cp.names() if name != "embeddings.position_ids"
            })
    floats = mav_report(a.with_suffix(".f32"), b.with_suffix(".f32"), scheme)
    assert "non_float_tensors" not in floats.to_dict()
    assert dataclasses.replace(report, non_float_tensors=()).to_dict() == floats.to_dict()


def test_mav_rejects_a_non_float_tensor_whose_bytes_differ(tmp_path):
    a, b = _position_ids_pair(tmp_path, [0, 1, 2, 4])
    message = (f"tensor 'embeddings.position_ids': dtype I64 is not a float type, "
               f"and its bytes differ between {a} and {b}")
    with pytest.raises(SurgeryError, match=f"^{re.escape(message)}$"):
        mav_report(a, b, NamingScheme(num_layers=1))


def test_mav_compares_non_float_bytes_chunk_by_chunk(tmp_path, monkeypatch):
    import sidkit.surgery as surgery

    monkeypatch.setattr(surgery, "COPY_CHUNK_BYTES", 8)
    reads = []
    tensor_bytes = Checkpoint.tensor_bytes
    monkeypatch.setattr(Checkpoint, "tensor_bytes", lambda cp, name, start=0, stop=None: (
        reads.append((name, start, stop)) or tensor_bytes(cp, name, start, stop)))
    a, b = _position_ids_pair(tmp_path, [0, 1, 2, 3])
    assert mav_report(a, b, NamingScheme(num_layers=1)).non_float_tensors == ("embeddings.position_ids",)
    chunks = [(start, stop) for name, start, stop in reads if name == "embeddings.position_ids"]
    assert sorted(chunks) == sorted(2 * [(0, 8), (8, 16), (16, 24), (24, 32)])
    a, b = _position_ids_pair(tmp_path, [0, 1, 2, 4])  # only the last of four chunks differs
    with pytest.raises(SurgeryError, match="bytes differ"):
        mav_report(a, b, NamingScheme(num_layers=1))


# ---------------------------------------------------------------------------
# Fully indexed data region, ranged reads, chunked copies and streaming MAV
# ---------------------------------------------------------------------------


def _raw_container(path, entries, data_len):
    header = json.dumps(
        {name: {"dtype": "F32", "shape": [(end - begin) // 4], "data_offsets": [begin, end]}
         for name, (begin, end) in entries.items()},
        separators=(",", ":"),
    ).encode()
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * data_len)
    return 8 + len(header)  # file offset of the data region


def test_gap_between_tensors_rejected(tmp_path):
    path = tmp_path / "gap.safetensors"
    data_start = _raw_container(path, {"a": (0, 8), "b": (12, 20)}, 20)
    with pytest.raises(CheckpointFormatError) as exc:
        read_checkpoint(path)
    message = str(exc.value)
    assert message.startswith(f"{path}: ")
    assert f"4 unindexed bytes at file offset {data_start + 8}, before tensor 'b'" in message


def test_gap_before_first_tensor_rejected(tmp_path):
    path = tmp_path / "lead.safetensors"
    data_start = _raw_container(path, {"a": (4, 12)}, 12)
    with pytest.raises(CheckpointFormatError, match=f"at file offset {data_start}, before tensor 'a'"):
        read_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "tail.safetensors"
    data_start = _raw_container(path, {"a": (0, 8)}, 11)
    with pytest.raises(CheckpointFormatError) as exc:
        read_checkpoint(path)
    assert str(exc.value) == (
        f"{path}: 3 trailing bytes at file offset {data_start + 8}, after the last tensor"
    )


def test_trailing_bytes_after_no_tensors_rejected(tmp_path):
    path = tmp_path / "empty.safetensors"
    _raw_container(path, {}, 1)
    with pytest.raises(CheckpointFormatError, match="1 trailing bytes"):
        read_checkpoint(path)


def test_contiguous_ranges_in_any_header_order_accepted(tmp_path):
    path = tmp_path / "ok.safetensors"
    _raw_container(path, {"b": (8, 16), "a": (0, 8), "z": (16, 16)}, 16)
    with read_checkpoint(path) as cp:
        assert sorted(cp.names()) == ["a", "b", "z"]


def test_empty_tensor_at_a_shared_offset_loads_in_either_header_order(tmp_path):
    for order in (("a", "z"), ("z", "a")):
        ranges = {"a": (0, 8), "z": (0, 0)}
        path = tmp_path / f"{''.join(order)}.safetensors"
        _raw_container(path, {name: ranges[name] for name in order}, 8)
        with read_checkpoint(path) as cp:
            assert sorted(cp.names()) == ["a", "z"]


@pytest.mark.parametrize("ranges", [
    {"a": (0, 8), "b": (4, 12)},
    {"a": (0, 8), "b": (4, 4)},  # an empty tensor inside another one
    {"a": (0, 8), "b": (0, 8)},
])
def test_overlap_names_file_and_tensors_in_either_header_order(tmp_path, ranges):
    messages = set()
    for order in (("a", "b"), ("b", "a")):
        path = tmp_path / "ov.safetensors"
        _raw_container(path, {name: ranges[name] for name in order}, 12)
        with pytest.raises(CheckpointFormatError, match="overlapping byte ranges") as exc:
            read_checkpoint(path)
        assert str(exc.value).startswith(f"{path}: tensors ")
        messages.add(str(exc.value))
    assert len(messages) == 1


def test_tensor_bytes_reads_a_byte_range(tmp_path):
    data = np.arange(10, dtype="<f4").tobytes()
    path = tmp_path / "r.safetensors"
    write_checkpoint(path, {"a": ("F32", (2,), b"\x01" * 8), "t": ("F32", (10,), data)})
    with read_checkpoint(path) as cp:
        assert cp.tensor_bytes("t", 4, 12) == data[4:12]
        assert cp.tensor_bytes("t", 36) == data[36:]
        assert cp.tensor_bytes("t", 40, 40) == b""
        for start, stop in ((0, 41), (8, 4), (-1, 4)):
            with pytest.raises(SurgeryError, match="outside"):
                cp.tensor_bytes("t", start, stop)


def test_write_checkpoint_streams_chunk_sources(tmp_path):
    path = tmp_path / "c.safetensors"
    write_checkpoint(path, {"t": ("F32", (3,), iter([b"\x00" * 4, b"", b"\x01" * 8]))})
    with read_checkpoint(path) as cp:
        assert cp.tensor_bytes("t") == b"\x00" * 4 + b"\x01" * 8
    with pytest.raises(CheckpointFormatError, match="source provided 16 bytes, expected 12"):
        write_checkpoint(path, {"t": ("F32", (3,), (b"\x00" * 8 for _ in range(2)))})


def test_splice_of_tensor_larger_than_copy_chunk_is_byte_exact(tmp_path, monkeypatch):
    from sidkit import surgery

    rng = np.random.default_rng(40)
    words = int(2.5 * surgery.COPY_CHUNK_BYTES) // 4 + 3  # three chunks, the last one partial
    tensors = {
        "embeddings.word.weight": ("F32", (words,)),
        "encoder.layer.0.w": ("F32", (7,)),
        "classifier.w": ("F16", (5,)),
    }

    def write(path):
        write_checkpoint(path, {
            name: (dtype, shape, rng.standard_normal(shape).astype(NUMPY_DTYPES[dtype]).tobytes())
            for name, (dtype, shape) in tensors.items()
        })
        return read_checkpoint(path)

    with write(tmp_path / "base.safetensors") as base, write(tmp_path / "donor.safetensors") as donor:
        reads = []
        original = surgery.Checkpoint.tensor_bytes

        def recording(self, name, start=0, stop=None):
            data = original(self, name, start, stop)
            reads.append(len(data))
            return data

        monkeypatch.setattr(surgery.Checkpoint, "tensor_bytes", recording)
        swap_layers(base, donor, [], SCHEME, tmp_path / "out.safetensors", include_embeddings=True)
        assert max(reads) == surgery.COPY_CHUNK_BYTES
        assert sum(reads) == sum(base.entry(name).nbytes for name in tensors)
        monkeypatch.undo()
        with read_checkpoint(tmp_path / "out.safetensors") as out:
            assert out.tensor_bytes("embeddings.word.weight") == donor.tensor_bytes("embeddings.word.weight")
            assert out.tensor_bytes("encoder.layer.0.w") == base.tensor_bytes("encoder.layer.0.w")
            assert out.tensor_bytes("classifier.w") == base.tensor_bytes("classifier.w")


def _two_pass_mav(a_path, b_path, scheme):
    """Whole-array oracle: per-group mean |a - b| and np.var of all a - b."""
    diffs = {}
    with read_checkpoint(a_path) as a, read_checkpoint(b_path) as b:
        for name in a.names():
            dtype = NUMPY_DTYPES[a.entry(name).dtype]
            diff = (np.frombuffer(a.tensor_bytes(name), dtype=dtype).astype(np.float64)
                    - np.frombuffer(b.tensor_bytes(name), dtype=dtype).astype(np.float64))
            key = scheme.classify(name)
            key = f"layer {key}" if isinstance(key, int) else key
            diffs.setdefault(key, []).append(diff)
    per_group = {key: float(np.abs(np.concatenate(d)).mean()) for key, d in diffs.items()}
    return per_group, float(np.var(np.concatenate([x for d in diffs.values() for x in d])))


def _mav_pair(tmp_path, sizes, make_b):
    rng = np.random.default_rng(41)
    a_tensors, b_tensors = {}, {}
    for name, size in sizes.items():
        va = rng.standard_normal(size)
        a_tensors[name] = ("F64", (size,), va.tobytes())
        b_tensors[name] = ("F64", (size,), make_b(va, rng).tobytes())
    write_checkpoint(tmp_path / "a.safetensors", a_tensors)
    write_checkpoint(tmp_path / "b.safetensors", b_tensors)
    return tmp_path / "a.safetensors", tmp_path / "b.safetensors"


def test_mav_over_several_chunks_equals_two_pass_numpy(tmp_path):
    from sidkit.surgery import MAV_CHUNK_ELEMENTS

    scheme = NamingScheme(num_layers=2)
    sizes = {
        "embeddings.w": 3 * MAV_CHUNK_ELEMENTS + 17,
        "encoder.layer.0.w": MAV_CHUNK_ELEMENTS,
        "encoder.layer.1.w": 5,
    }
    a, b = _mav_pair(tmp_path, sizes, lambda va, rng: 0.5 * va + rng.standard_normal(va.size) + 0.3)
    report = mav_report(a, b, scheme)
    per_group, variance = _two_pass_mav(a, b, scheme)
    assert report.parameter_count == sum(sizes.values())
    assert report.per_group_counts == {"embeddings": sizes["embeddings.w"],
                                       "layer 0": MAV_CHUNK_ELEMENTS, "layer 1": 5}
    assert report.per_group == pytest.approx(per_group, rel=1e-12)
    assert report.global_variance == pytest.approx(variance, rel=1e-12)


def test_mav_variance_exact_under_dominant_shift(tmp_path):
    # a - b is 1e4 plus noise of standard deviation 1e-3: E[x^2] - E[x]^2
    # loses about 1.7 % here; the merged (n, mean, M2) must not.
    scheme = NamingScheme(num_layers=1)
    sizes = {"embeddings.w": 70_000, "encoder.layer.0.w": 30_000}
    a, b = _mav_pair(tmp_path, sizes, lambda va, rng: va - (1e4 + 1e-3 * rng.standard_normal(va.size)))
    report = mav_report(a, b, scheme)
    per_group, variance = _two_pass_mav(a, b, scheme)
    assert variance == pytest.approx(1e-6, rel=0.05)
    assert report.global_variance == pytest.approx(variance, rel=1e-9)
    assert report.per_group == pytest.approx(per_group, rel=1e-12)


def _parent_decode(cp, name, start, stop):
    """Elements [start, stop) of a float tensor, widened through fresh arrays."""
    dtype = cp.entry(name).dtype
    width = 2 if dtype == "BF16" else np.dtype(NUMPY_DTYPES[dtype]).itemsize
    raw = cp.tensor_bytes(name, start * width, stop * width)
    if dtype == "BF16":
        return (np.frombuffer(raw, dtype="<u2").astype(np.uint32) << 16).view(np.float32).astype(np.float64)
    return np.frombuffer(raw, dtype=NUMPY_DTYPES[dtype]).astype(np.float64)


def _parent_mav(a_path, b_path, scheme):
    """The per-chunk formula with a fresh array for every step, as mav_report computed it
    before it reused two buffers."""
    from sidkit.surgery import MAV_CHUNK_ELEMENTS, MavReport

    abs_sums, counts = {}, {}
    total, mean, m2 = 0, 0.0, 0.0
    with read_checkpoint(a_path) as a, read_checkpoint(b_path) as b:
        for name in sorted(a.names()):
            group = scheme.classify(name)
            key = "other" if group is None else f"layer {group}" if isinstance(group, int) else group
            size = int(np.prod(a.entry(name).shape))
            for start in range(0, size, MAV_CHUNK_ELEMENTS):
                stop = min(start + MAV_CHUNK_ELEMENTS, size)
                diff = _parent_decode(a, name, start, stop) - _parent_decode(b, name, start, stop)
                n = diff.size
                chunk_mean = float(diff.sum()) / n
                dev = diff - chunk_mean
                chunk_m2 = float((dev * dev).sum())
                abs_sums[key] = abs_sums.get(key, 0.0) + float(np.abs(diff).sum())
                counts[key] = counts.get(key, 0) + n
                delta = chunk_mean - mean
                total += n
                mean += delta * n / total
                m2 += chunk_m2 + delta * delta * (total - n) * n / total
    return MavReport({key: abs_sums[key] / counts[key] for key in abs_sums}, m2 / total, total, counts, ())


@pytest.mark.parametrize("dtype", ["F16", "BF16", "F32", "F64"])
def test_mav_is_byte_identical_to_the_fresh_array_formula(tmp_path, dtype):
    from sidkit.surgery import MAV_CHUNK_ELEMENTS

    chunk = MAV_CHUNK_ELEMENTS
    groups = ["embeddings.w", "encoder.layer.0.w", "encoder.layer.1.w", "encoder.layer.2.w",
              "classifier.w", "pooler.w"]
    sizes = [0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7]
    rng = np.random.default_rng(43)

    def encode(values):
        if dtype == "BF16":
            return (values.astype(np.float32).view(np.uint32) >> 16).astype("<u2").tobytes()
        return values.astype(NUMPY_DTYPES[dtype]).tobytes()

    a_tensors, b_tensors = {}, {}
    for name, size in zip(groups, sizes):
        va = rng.standard_normal(size)
        a_tensors[name] = (dtype, (size,), encode(va))
        b_tensors[name] = (dtype, (size,), encode(0.9 * va + 0.1 * rng.standard_normal(size) + 0.25))
    write_checkpoint(tmp_path / "a.st", a_tensors)
    write_checkpoint(tmp_path / "b.st", b_tensors)
    scheme = NamingScheme(num_layers=3)
    report = mav_report(tmp_path / "a.st", tmp_path / "b.st", scheme)
    assert report.to_dict() == _parent_mav(tmp_path / "a.st", tmp_path / "b.st", scheme).to_dict()
    assert report.parameter_count == sum(sizes)


def test_mav_peak_allocation_does_not_grow_with_tensor_size(tmp_path):
    import tracemalloc

    from sidkit.surgery import MAV_CHUNK_ELEMENTS

    bound = 8 * MAV_CHUNK_ELEMENTS * 8  # a few float64 chunks; one tensor is 24 chunks
    scheme = NamingScheme(num_layers=1)
    for chunks in (2, 24):
        root = tmp_path / str(chunks)
        root.mkdir()
        a, b = _mav_pair(root, {"embeddings.w": chunks * MAV_CHUNK_ELEMENTS}, lambda va, rng: va + 1.0)
        tracemalloc.start()
        try:
            mav_report(a, b, scheme)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (chunks, peak)


def test_mav_skips_a_group_of_empty_tensors(tmp_path):
    path = tmp_path / "e.safetensors"
    write_checkpoint(path, {
        "embeddings.w": ("F32", (0, 3), b""),
        "encoder.layer.0.w": ("F32", (2,), b"\x00" * 8),
    })
    report = mav_report(path, path, NamingScheme(num_layers=1))
    assert report.per_group == {"layer 0": 0.0}
    assert report.parameter_count == 2
