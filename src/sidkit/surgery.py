"""Named-tensor checkpoint containers and layer-level surgery.

Container layout (the safetensors wire format): an 8-byte little-endian
unsigned header length N, then N bytes of JSON mapping each tensor name to
{"dtype": tag, "shape": [...], "data_offsets": [begin, end]} (offsets are
relative to the start of the data region), optionally a "__metadata__"
string map, then the contiguous data region. Canonical files have header
keys sorted and tensor data laid out in that same order; the writer always
emits canonical files, so write(read(f)) == f whenever f is canonical.
``read_checkpoint`` opens the file once, validates its header through that
descriptor and returns a frozen ``Checkpoint`` handle (its path, tensor
entries, metadata and the file offset of the data region) that keeps the
descriptor; tensor bytes are read on demand with ``os.pread``, so a handle
reads the file it validated even after ``path`` is replaced, and threads
share it safely. ``close()`` or a ``with`` block releases the descriptor.

Surgery (reverting layers to their pretrained state, swapping layers between
two fine-tuned checkpoints) copies tensor bytes verbatim - no parameter is
ever converted or averaged - in chunks of at most COPY_CHUNK_BYTES, so
checkpoints and single tensors far larger than memory are fine. MAV decodes
MAV_CHUNK_ELEMENTS parameters at a time into two float64 buffers that it
reuses for every chunk, and is the only code that imports numpy. Which
tensors belong to the embeddings, to encoder layer i, or to the task heads
is decided by a configurable NamingScheme, not hard-coded key lists. A
checkpoint is written to a temp file that replaces the output only once the
whole file is written (``files.replace_file``), so a failed revert or swap
leaves any earlier file at ``out_path`` intact; the output is never read
back, so it may name a descriptor or a device. The surgery functions close
the handles they open from paths and leave handles they are given open.
"""

from __future__ import annotations

import json
import math
import os
import stat
import struct
from contextlib import ExitStack, contextmanager
from dataclasses import InitVar, dataclass, fields
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, Mapping, Sequence, Union

from .files import naming, replace_file, same_file

if TYPE_CHECKING:
    import numpy as np


class CheckpointFormatError(ValueError):
    """The container file violates the format contract."""


class SurgeryError(ValueError):
    """A surgery operation cannot be applied to these checkpoints."""


class SchemeError(ValueError):
    """The naming scheme does not fit the checkpoint's tensor names."""


DTYPE_SIZES: dict[str, int] = {
    "F64": 8, "F32": 4, "F16": 2, "BF16": 2,
    "I64": 8, "I32": 4, "I16": 2, "I8": 1,
    "U8": 1, "BOOL": 1,
}

_FLOAT_NUMPY: dict[str, str] = {"F64": "<f8", "F32": "<f4", "F16": "<f2"}

_HEADER_LEN_BYTES = 8

COPY_CHUNK_BYTES = 1 << 20  # largest read of one splice copy step
MAV_CHUNK_ELEMENTS = 1 << 16  # parameters per tensor that MAV decodes at once


def _nbytes(name: str, dtype: str, shape: Sequence[int]) -> int:
    """Byte size of a tensor with this dtype and shape: the container's size rule."""
    if dtype not in DTYPE_SIZES:
        raise CheckpointFormatError(f"tensor {name!r}: unknown dtype {dtype!r}")
    return math.prod(shape) * DTYPE_SIZES[dtype]


def _is_int(value: object) -> bool:
    """An integer, not a bool: JSON ``true`` is no dimension or offset."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class TensorEntry:
    name: str
    dtype: str
    shape: tuple[int, ...]
    data_offsets: tuple[int, int]  # relative to the data region

    def __post_init__(self) -> None:
        if any(not _is_int(d) or d < 0 for d in self.shape):
            raise CheckpointFormatError(f"tensor {self.name!r}: bad shape {self.shape}")
        nbytes = _nbytes(self.name, self.dtype, self.shape)
        if len(self.data_offsets) != 2 or not all(_is_int(o) for o in self.data_offsets):
            raise CheckpointFormatError(
                f"tensor {self.name!r}: data_offsets must be two integers, got {self.data_offsets}"
            )
        begin, end = self.data_offsets
        if not 0 <= begin <= end:
            raise CheckpointFormatError(f"tensor {self.name!r}: bad byte range [{begin}, {end})")
        if end - begin != nbytes:
            raise CheckpointFormatError(
                f"tensor {self.name!r}: byte range holds {end - begin} bytes but "
                f"dtype/shape imply {nbytes}"
            )

    @property
    def nbytes(self) -> int:
        return self.data_offsets[1] - self.data_offsets[0]


@dataclass(frozen=True, eq=False)
class Checkpoint:
    """Read-only handle on one open checkpoint file: the header
    ``read_checkpoint`` parsed, plus range reads of tensor data. ``data_start``
    is the file offset of the data region. The handle reads through one
    descriptor (``file``, the open file ``read_checkpoint`` validated), with
    ``os.pread``, which moves no shared offset. Fields cannot be reassigned
    and ``metadata`` is a read-only copy of the mapping given, so a handle is
    safe to share across threads; handles compare and hash by identity.

    ``close()``, or leaving a ``with`` block, closes the descriptor; later
    reads raise ``ValueError``. ``copy.copy``, ``copy.deepcopy`` and pickling
    raise ``TypeError``: a handle comes from ``read_checkpoint``."""

    path: Path
    entries: tuple[TensorEntry, ...]
    metadata: Mapping[str, str] | None
    data_start: int
    file: InitVar[BinaryIO]

    def __post_init__(self, file: BinaryIO) -> None:
        if self.metadata is not None:
            object.__setattr__(self, "metadata", MappingProxyType(dict(self.metadata)))
        by_name = {e.name: e for e in self.entries}
        if len(by_name) != len(self.entries):
            raise CheckpointFormatError("duplicate tensor names in index")
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_file", file)

    def close(self) -> None:
        """Close the descriptor; closing a closed handle does nothing."""
        self._file.close()

    def __enter__(self) -> Checkpoint:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __reduce__(self) -> tuple:
        raise TypeError(f"a checkpoint handle cannot be copied or pickled; open {self.path} again with read_checkpoint")

    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def entry(self, name: str) -> TensorEntry:
        try:
            return self._by_name[name]
        except KeyError:
            raise SurgeryError(f"tensor {name!r} not present in {self.path}") from None

    def tensor_bytes(self, name: str, start: int = 0, stop: int | None = None) -> bytes:
        """Raw little-endian bytes ``[start, stop)`` of one tensor's data, the
        whole tensor by default, read from the handle's descriptor."""
        begin, end = self.entry(name).data_offsets
        stop = end - begin if stop is None else stop
        if not 0 <= start <= stop <= end - begin:
            raise SurgeryError(f"tensor {name!r}: byte range [{start}, {stop}) outside [0, {end - begin})")
        offset = self.data_start + begin + start
        with naming(self.path):  # a splice must not put a failed read on its output
            data = os.pread(self._file.fileno(), stop - start, offset)
            while len(data) < stop - start:  # one pread returns at most about 2 GiB
                more = os.pread(self._file.fileno(), stop - start - len(data), offset + len(data))
                if not more:
                    raise CheckpointFormatError(f"tensor {name!r}: data region truncated")
                data += more
        return data

    def _float_values(self, name: str, start: int, stop: int, scratch: np.ndarray) -> np.ndarray:
        """Elements ``[start, stop)`` of a float tensor in an array that numpy
        widens to float64 exactly: a view of the raw bytes, or for BF16 each
        16-bit pattern shifted into the high half of a uint32 in ``scratch``
        and viewed as float32. The one decode of tensor data."""
        import numpy as np

        dtype = self.entry(name).dtype
        size = DTYPE_SIZES[dtype]
        raw = self.tensor_bytes(name, start * size, stop * size)
        if dtype != "BF16":
            return np.frombuffer(raw, dtype=_FLOAT_NUMPY[dtype])
        bits = np.frombuffer(raw, dtype="<u2")
        return np.left_shift(bits, 16, out=scratch[: bits.size], dtype=np.uint32).view(np.float32)


def read_checkpoint(path: str | Path) -> Checkpoint:
    """Open the file once, parse the header and validate the index through
    that descriptor without loading tensor data, and return a handle that
    keeps it. An error names the file, and the descriptor is closed."""
    path = Path(path)
    with naming(path), ExitStack() as on_error:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)  # a FIFO with no writer does not block the open
        on_error.callback(os.close, fd)
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            raise CheckpointFormatError("not a regular file; a checkpoint is read by offset")
        file_size = st.st_size
        prefix = os.pread(fd, _HEADER_LEN_BYTES, 0)
        if len(prefix) < _HEADER_LEN_BYTES:
            raise CheckpointFormatError("file too small for a header length")
        (header_len,) = struct.unpack("<Q", prefix)
        if _HEADER_LEN_BYTES + header_len > file_size:
            raise CheckpointFormatError(f"header length {header_len} exceeds file size {file_size}")
        header_raw = os.pread(fd, header_len, _HEADER_LEN_BYTES)
        try:
            header = json.loads(header_raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointFormatError(f"header is not valid JSON: {exc}") from exc
        if not isinstance(header, dict):
            raise CheckpointFormatError("header must be a JSON object")

        metadata = None
        entries = []
        for name, spec in header.items():
            if name == "__metadata__":
                if not isinstance(spec, dict) or not all(
                    isinstance(k, str) and isinstance(v, str) for k, v in spec.items()
                ):
                    raise CheckpointFormatError("__metadata__ must map strings to strings")
                metadata = spec
                continue
            try:
                entries.append(
                    TensorEntry(
                        name=name,
                        dtype=spec["dtype"],
                        shape=tuple(spec["shape"]),
                        data_offsets=tuple(spec["data_offsets"]),
                    )
                )
            except (KeyError, TypeError) as exc:
                raise CheckpointFormatError(f"malformed entry for {name!r}: {exc}") from exc

        data_start = _HEADER_LEN_BYTES + header_len
        data_size = file_size - data_start
        # The tensors must tile the data region: sorted by (begin, end, name), each
        # one begins where the previous one ended, so there are no overlaps, holes
        # or trailing bytes, and neither outcome nor message depends on header order.
        covered = 0
        previous = None
        for entry in sorted(entries, key=lambda e: (*e.data_offsets, e.name)):
            begin, end = entry.data_offsets
            if end > data_size:
                raise CheckpointFormatError(f"tensor {entry.name!r} extends past end of file")
            if begin < covered:
                raise CheckpointFormatError(
                    f"tensors {previous.name!r} and {entry.name!r} have overlapping byte ranges"
                )
            if begin > covered:
                raise CheckpointFormatError(
                    f"{begin - covered} unindexed bytes at file offset "
                    f"{data_start + covered}, before tensor {entry.name!r}"
                )
            covered, previous = end, entry
        if covered < data_size:
            raise CheckpointFormatError(
                f"{data_size - covered} trailing bytes at file offset "
                f"{data_start + covered}, after the last tensor"
            )
        on_error.pop_all()  # the handle owns the descriptor now
        return Checkpoint(path, tuple(entries), metadata, data_start, open(fd, "rb", buffering=0))


TensorSource = Union[bytes, Iterable[bytes]]


def write_checkpoint(
    path: str | Path,
    tensors: Mapping[str, tuple[str, Sequence[int], TensorSource]],
    metadata: Mapping[str, str] | None = None,
) -> None:
    """Write a canonical container: sorted names, data in name order.

    ``tensors`` maps name -> (dtype, shape, source); a source is either the
    raw bytes or an iterable of byte chunks, read lazily in name order, so a
    chunked source keeps only one chunk in memory during the write. ``path``
    is replaced only once every tensor is written (``files.replace_file``).
    """
    names = sorted(tensors)
    header: dict[str, object] = {}
    if metadata is not None:
        header["__metadata__"] = {str(k): str(v) for k, v in sorted(metadata.items())}
    offset = 0
    entries: list[TensorEntry] = []
    for name in names:
        dtype, shape, _ = tensors[name]
        entry = TensorEntry(
            name=name,
            dtype=dtype,
            shape=tuple(shape),
            data_offsets=(offset, offset + _nbytes(name, dtype, shape)),
        )
        entries.append(entry)
        offset = entry.data_offsets[1]
        header[name] = {
            "dtype": entry.dtype,
            "shape": list(entry.shape),
            "data_offsets": list(entry.data_offsets),
        }

    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    with replace_file(path) as fh:
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for name, entry in zip(names, entries):
            source = tensors[name][2]
            written = 0
            for chunk in [source] if isinstance(source, (bytes, bytearray, memoryview)) else source:
                written += fh.write(chunk)
            if written != entry.nbytes:
                raise CheckpointFormatError(
                    f"tensor {name!r}: source provided {written} bytes, expected {entry.nbytes}"
                )


# ---------------------------------------------------------------------------
# Naming schemes and tensor groups
# ---------------------------------------------------------------------------

GroupId = Union[int, str]  # a layer index, "embeddings", or "heads"


@dataclass(frozen=True)
class NamingScheme:
    """Maps tensor names to embeddings / per-layer / head groups.

    ``layer_template`` contains the placeholder ``{i}``; matching is
    delimiter-aware, so with a template of ``encoder.layer.{i}`` the prefix
    for layer 1 does not capture ``encoder.layer.10.*``.
    """

    embeddings_prefixes: tuple[str, ...] = ("embeddings.",)
    layer_template: str = "encoder.layer.{i}."
    head_prefixes: tuple[str, ...] = ("classifier.",)
    num_layers: int = 12

    def __post_init__(self) -> None:
        for key in ("embeddings_prefixes", "head_prefixes"):
            prefixes = getattr(self, key)
            if not isinstance(prefixes, tuple) or not all(isinstance(p, str) and p for p in prefixes):
                raise SchemeError(f"{key} must be a list of non-empty strings, got {prefixes!r}")
        if not isinstance(self.layer_template, str) or self.layer_template.count("{i}") != 1:
            raise SchemeError("layer_template must contain exactly one {i} placeholder")
        if not _is_int(self.num_layers):
            raise SchemeError(f"num_layers must be an integer, got {self.num_layers!r}")
        if self.num_layers < 1:
            raise SchemeError(f"num_layers must be >= 1, got {self.num_layers}")

    def layer_prefix(self, i: int) -> str:
        if not 0 <= i < self.num_layers:
            raise SchemeError(f"layer index {i} outside [0, {self.num_layers})")
        return self.layer_template.replace("{i}", str(i))

    def classify(self, name: str) -> GroupId | None:
        """Group of one tensor name, or None if it falls outside all groups."""
        hits: list[GroupId] = []
        if any(_prefix_match(name, p) for p in self.embeddings_prefixes):
            hits.append("embeddings")
        if any(_prefix_match(name, p) for p in self.head_prefixes):
            hits.append("heads")
        # A layer prefix is the template's head, then str(i): i is a digit prefix
        # of the rest of the name, with no leading zero, and a longer one is a
        # larger i, so the first match is the least i, whatever num_layers is.
        head = self.layer_template.partition("{i}")[0]
        rest = name[len(head):] if name.startswith(head) else ""
        for k in range(1, len(rest) - len(rest.lstrip("0123456789")) + 1):
            i = int(rest[:k])
            if i >= self.num_layers or k > 1 and rest[0] == "0":
                break
            if _prefix_match(name, self.layer_prefix(i)):
                hits.append(i)
                break
        if len(hits) > 1:
            raise SchemeError(f"tensor {name!r} matches several groups: {hits}")
        return hits[0] if hits else None

    @classmethod
    def from_json(cls, text: str) -> "NamingScheme":
        """The scheme a JSON object gives; absent keys keep their defaults."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise SchemeError("a naming scheme must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise SchemeError(f"unknown scheme keys: {sorted(unknown)}")
        return cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in raw.items()})


def _prefix_match(name: str, prefix: str) -> bool:
    # Delimiter-aware: "encoder.layer.1" must not capture "encoder.layer.10.w".
    if name == prefix:
        return True
    if not name.startswith(prefix):
        return False
    return prefix.endswith(".") or name[len(prefix)] == "."


def _resolve_groups(scheme: NamingScheme, groups: Sequence[GroupId], names: Iterable[str]) -> set[str]:
    """Names in any of the groups, each name placed by ``scheme.classify``.

    A name in several groups is an error even if none of them is requested,
    and so is a requested group that is unknown, out of range or empty.
    """
    members: dict[GroupId | None, set[str]] = {}
    for name in names:
        members.setdefault(scheme.classify(name), set()).add(name)
    selected: set[str] = set()
    for group in groups:
        if isinstance(group, int):
            scheme.layer_prefix(group)  # rejects indices outside [0, num_layers)
        elif group not in ("embeddings", "heads"):
            raise SchemeError(f"unknown group {group!r}")
        if group not in members:
            raise SchemeError(f"group {group!r} matches no tensor names; scheme misconfigured?")
        selected |= members[group]
    return selected


# ---------------------------------------------------------------------------
# Surgery
# ---------------------------------------------------------------------------


@contextmanager
def _opened(cp: Checkpoint | str | Path) -> Iterator[Checkpoint]:
    """The handle given, left open; or one read from a path, closed when the block ends."""
    if isinstance(cp, Checkpoint):
        yield cp
    else:
        with read_checkpoint(cp) as handle:
            yield handle


def _copy_chunks(cp: Checkpoint, name: str) -> Iterator[bytes]:
    nbytes = cp.entry(name).nbytes
    for start in range(0, nbytes, COPY_CHUNK_BYTES):
        yield cp.tensor_bytes(name, start, min(start + COPY_CHUNK_BYTES, nbytes))


def _check_layout(a: TensorEntry, b: TensorEntry) -> None:
    """Raise SurgeryError unless two entries of one tensor agree in dtype and shape."""
    if a.dtype != b.dtype or a.shape != b.shape:
        raise SurgeryError(
            f"tensor {a.name!r}: dtype/shape mismatch "
            f"({a.dtype}{list(a.shape)} vs {b.dtype}{list(b.shape)})"
        )


def _splice(
    base: Checkpoint,
    donor: Checkpoint,
    donor_names: set[str],
    out_path: str | Path,
) -> None:
    """Write base with the named tensors' bytes taken verbatim from donor."""
    for source in (base, donor):
        if same_file(out_path, source.path):
            raise SurgeryError(f"output {out_path} is the input {source.path}; write to another file")
    tensors: dict[str, tuple[str, Sequence[int], TensorSource]] = {}
    for entry in base.entries:
        owner = base
        if entry.name in donor_names:
            owner = donor
            _check_layout(entry, donor.entry(entry.name))
        tensors[entry.name] = (entry.dtype, entry.shape, _copy_chunks(owner, entry.name))
    write_checkpoint(out_path, tensors, metadata=base.metadata)


def revert_layers(
    finetuned: Checkpoint | str | Path,
    pretrained: Checkpoint | str | Path,
    groups: Sequence[GroupId],
    scheme: NamingScheme,
    out_path: str | Path,
) -> None:
    """Write to ``out_path`` the fine-tuned checkpoint with the selected groups
    reset to pretrained bytes. Read the output with ``read_checkpoint``.

    Passing sequential pairs such as (0, 1), (1, 2), ... reproduces the
    layer-ablation sweep; an empty group list copies the input unchanged.
    """
    with _opened(finetuned) as finetuned, _opened(pretrained) as pretrained:
        selected = _resolve_groups(scheme, groups, finetuned.names())
        _splice(finetuned, pretrained, selected, out_path)


def swap_layers(
    recipient: Checkpoint | str | Path,
    donor: Checkpoint | str | Path,
    layers: Sequence[int],
    scheme: NamingScheme,
    out_path: str | Path,
    include_embeddings: bool = False,
) -> None:
    """Write to ``out_path`` the recipient with the donor's selected encoder
    layers (and optionally embeddings) spliced in. Task heads are never swapped, and bytes are copied
    verbatim - parameters are never merged or converted.

    The default assembly used for cross-lingual transfer is layers [0, 1]
    plus embeddings.
    """
    for layer in layers:
        if not isinstance(layer, int):
            raise SurgeryError(f"swap layers must be integer indices, got {layer!r}")
    groups: list[GroupId] = list(layers)
    if include_embeddings:
        groups.append("embeddings")
    revert_layers(recipient, donor, groups, scheme, out_path)


# ---------------------------------------------------------------------------
# MAV diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MavReport:
    """Mean absolute parameter difference per group, plus the global variance
    of the per-parameter change (the statistic used to judge whether any
    layer stands out)."""

    per_group: dict[str, float]
    global_variance: float
    parameter_count: int
    per_group_counts: dict[str, int]
    non_float_tensors: tuple[str, ...]  # equal in both files, so in no statistic

    def to_dict(self) -> dict:
        report = {
            "per_group": {k: self.per_group[k] for k in sorted(self.per_group)},
            "per_group_counts": {k: self.per_group_counts[k] for k in sorted(self.per_group_counts)},
            "global_variance": self.global_variance,
            "parameter_count": self.parameter_count,
        }
        if self.non_float_tensors:
            report["non_float_tensors"] = list(self.non_float_tensors)
        return report


def _group_key(group: GroupId | None) -> str:
    if group is None:
        return "other"
    if isinstance(group, int):
        return f"layer {group}"
    return group


def mav_report(
    a: Checkpoint | str | Path,
    b: Checkpoint | str | Path,
    scheme: NamingScheme,
) -> MavReport:
    """Per-group mean |a - b| over all scalar parameters, double accumulation.

    Both checkpoints must hold the same tensors (names, dtypes, shapes).
    A tensor that is not a float type (such as BERT's I64
    ``embeddings.position_ids``) must hold the same bytes in both, compared
    COPY_CHUNK_BYTES at a time; it counts in no statistic and is listed in
    ``non_float_tensors``. The global variance is the population variance
    of (a_i - b_i) over every parameter in the file. Tensors are decoded
    MAV_CHUNK_ELEMENTS parameters at a time into two float64 buffers
    allocated once per report, so memory stays constant whatever the tensor
    sizes. Each chunk adds its |a - b| sum
    to its group, and its count, mean and sum of squared deviations
    (n, mean, M2) are merged into the running totals pairwise (Chan, Golub &
    LeVeque 1979), which stays accurate where E[x^2] - E[x]^2 cancels: a shift
    much larger than the spread of the differences.
    """
    import numpy as np

    abs_sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    non_float: list[str] = []
    total, mean, m2 = 0, 0.0, 0.0
    diff_buffer = np.empty(MAV_CHUNK_ELEMENTS)
    dev_buffer = np.empty(MAV_CHUNK_ELEMENTS)
    # BF16 widens in dev_buffer, read as uint32: side a in its first half, b in its second
    widened = dev_buffer.view(np.uint32)
    with _opened(a) as a, _opened(b) as b:
        names_a, names_b = set(a.names()), set(b.names())
        if names_a != names_b:
            missing = sorted(names_a ^ names_b)
            raise SurgeryError(f"checkpoints {a.path} and {b.path} hold different tensors, e.g. {missing[:3]}")
        for name in sorted(names_a):
            entry = a.entry(name)
            _check_layout(entry, b.entry(name))
            key = _group_key(scheme.classify(name))
            if entry.dtype not in _FLOAT_NUMPY and entry.dtype != "BF16":
                if any(x != y for x, y in zip(_copy_chunks(a, name), _copy_chunks(b, name))):
                    raise SurgeryError(
                        f"tensor {name!r}: dtype {entry.dtype} is not a float type, "
                        f"and its bytes differ between {a.path} and {b.path}"
                    )
                non_float.append(name)
                continue
            size = math.prod(entry.shape)
            for start in range(0, size, MAV_CHUNK_ELEMENTS):
                stop = min(start + MAV_CHUNK_ELEMENTS, size)
                n = stop - start
                diff, dev = diff_buffer[:n], dev_buffer[:n]
                a_values = a._float_values(name, start, stop, widened)
                b_values = b._float_values(name, start, stop, widened[MAV_CHUNK_ELEMENTS:])
                np.subtract(a_values, b_values, out=diff, dtype=np.float64)
                chunk_mean = float(diff.sum()) / n
                np.subtract(diff, chunk_mean, out=dev)
                np.multiply(dev, dev, out=dev)
                chunk_m2 = float(dev.sum())
                abs_sums[key] = abs_sums.get(key, 0.0) + float(np.abs(diff, out=diff).sum())
                counts[key] = counts.get(key, 0) + n
                delta = chunk_mean - mean
                total += n
                mean += delta * n / total
                m2 += chunk_m2 + delta * delta * (total - n) * n / total

    if total == 0:
        raise SurgeryError(f"checkpoints {a.path} and {b.path} contain no parameters")
    return MavReport(
        per_group={key: abs_sums[key] / counts[key] for key in abs_sums},
        global_variance=m2 / total,
        parameter_count=total,
        per_group_counts=counts,
        non_float_tensors=tuple(non_float),
    )
