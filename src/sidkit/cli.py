"""Command-line entry point: one subcommand per toolkit operation.

Exit status: 0 on success, 1 on data errors (unparseable files, misaligned
datasets, checkpoint format problems, failed checks), 2 on usage errors. A
data error is an OSError or a ValueError: every sidkit error class derives
from ValueError, so ``main`` needs no table of them; an OSError naming a
file is printed as ``<path>: <strerror>``, as a ValueError names its file.
Stochastic commands (noise, split) echo their effective seed to stderr.
All file I/O is UTF-8; ``_write_report`` writes every report as JSON or TSV.
An output flag that names the same file as an input or another output is a
data error, raised before anything is read or written; every output goes
through ``files.replace_file``.
Importing this module loads no other sidkit module: each command imports
the modules it runs when it runs, so start-up pays for nothing else.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import math
import sys
from typing import Callable

from . import __version__


def _lazy(module: str, name: str) -> Callable:
    """A stand-in for ``sidkit.<module>.<name>`` that imports the module when called.

    Each command then loads only the modules it uses. Handlers call these
    stand-ins by their bare names, so a wrapper set on ``sidkit.cli`` (the
    benchmark's tracer, a test's monkeypatch) still sees every call.
    """

    def forward(*args, **kwargs):
        return getattr(importlib.import_module(f"sidkit.{module}"), name)(*args, **kwargs)

    forward.__name__ = forward.__qualname__ = name
    forward.target = (module, name)
    return forward


load_dataset = _lazy("corpus", "load_dataset")
save_dataset = _lazy("corpus", "save_dataset")
validate_bio = _lazy("corpus", "validate_bio")
split_dataset = _lazy("corpus", "split_dataset")
label_inventory = _lazy("corpus", "label_inventory")
unseen_label_report = _lazy("corpus", "unseen_label_report")
evaluate = _lazy("evaluate", "evaluate")
span_f1 = _lazy("evaluate", "span_f1")  # no handler calls it; the benchmark's tracer probes it
noise_dataset = _lazy("noise", "noise_dataset")
load_alphabet = _lazy("noise", "load_alphabet")
normalize_text = _lazy("normalize", "normalize_text")
trace_token = _lazy("normalize", "trace_token")
split_word_ratio = _lazy("subword", "split_word_ratio")
pearson = _lazy("correlation", "pearson")  # no handler calls it; the benchmark's tracer probes it
spearman = _lazy("correlation", "spearman")
correlate = _lazy("correlation", "correlate")
revert_layers = _lazy("surgery", "revert_layers")
swap_layers = _lazy("surgery", "swap_layers")
mav_report = _lazy("surgery", "mav_report")
run_pipeline = _lazy("pipeline", "run_pipeline")

CORPUS_FORMAT_VERSION = 1
CONTAINER_FORMAT_VERSION = 1


class InputPath(str):
    """A file flag's value that the command reads; a pipeline step digests it first."""


class OutputPath(str):
    """A file flag's value that the command writes; a pipeline step digests it after."""


class UsageError(Exception):
    """``UsageError(parser, message)``, raised where argparse's ``parser.error`` would exit."""


class CommandParser(argparse.ArgumentParser):
    """The ``sidkit`` parser; ``commands`` maps each subcommand to its parser (top level only)."""

    commands: dict[str, argparse.ArgumentParser]

    def error(self, message: str):
        raise UsageError(self, message)

    def parse_command(
        self, argv: list[str] | None = None, around: tuple[tuple[str, str], ...] = ()
    ) -> argparse.Namespace:
        """Parse one command line and apply the checks argparse cannot express.

        A usage error raises UsageError. An output flag that names the same
        file as another output or an input flag of the command raises
        ValueError naming both flags, before anything is read or written.
        ``around`` holds more ``(flag, path)`` files, those of a run around
        the command (a pipeline's ``--config`` and ``--manifest``); a file
        flag of the command may not name one of them where either is an output.
        """
        from .files import same_file

        args = self.parse_args(argv)
        if args.command == "surgery" and args.action in ("revert", "swap") and args.out is None:
            self.error("surgery revert/swap require --out")
        files = [
            (action.option_strings[0], value)
            for action in self.commands[args.command]._actions
            if isinstance(value := getattr(args, action.dest, None), (InputPath, OutputPath))
        ]
        pairs = itertools.chain(itertools.combinations(files, 2), itertools.product(files, around))
        for (flag, path), (other_flag, other) in pairs:
            if OutputPath in (type(path), type(other)) and same_file(path, other):
                raise ValueError(
                    f"{flag} {path!r} and {other_flag} {other!r} name the same file; "
                    "an output must not overwrite an input or another output"
                )
        return args


def _write_report(report: dict | list[tuple[str, ...]], out: str | None) -> None:
    """The only code that turns a report into bytes, for ``out`` or for stdout when None: a dict
    as 2-space-indented JSON, non-ASCII as is; rows as tab-separated cells, one line each."""
    if isinstance(report, dict):
        text = json.dumps(report, ensure_ascii=False, indent=2) + "\n"
    else:
        text = "".join("\t".join(row) + "\n" for row in report)
    if out is None:
        sys.stdout.write(text)
        return
    from .files import replace_file

    with replace_file(out) as fh:
        fh.write(text.encode("utf-8"))


def _layers(spec: str) -> list[int]:
    """``--layers``: comma-separated layer indices; empty items are skipped."""
    try:
        return [int(part) for part in spec.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {spec!r}") from None


def _op_weights(spec: str) -> tuple[float, float, float]:
    """``--op-weights``: three comma-separated numbers, delete,insert,both."""
    try:
        delete, insert, both = map(float, spec.split(","))
    except ValueError:  # not three items, or an item that is not a number
        raise argparse.ArgumentTypeError(f"expected three comma-separated numbers, got {spec!r}") from None
    return delete, insert, both


def _variety(spec: str) -> str:
    """``--variety``: a fallback variety that FormatOptions accepts."""
    from .corpus import FormatOptions

    try:
        FormatOptions(variety=spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return spec


def _format_options(args: argparse.Namespace):
    from .corpus import FormatOptions

    return FormatOptions(
        token_col=args.token_col,
        tag_col=args.tag_col,
        require_intent=not args.no_require_intent,
        variety=args.variety,
    )


def _add_format_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--token-col", type=int, default=0, help="token column index")
    parser.add_argument("--tag-col", type=int, default=1, help="slot tag column index")
    parser.add_argument(
        "--no-require-intent", action="store_true",
        help="accept blocks without an '# intent:' comment",
    )
    parser.add_argument("--variety", type=_variety, default=None, help="variety for blocks without a comment")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_parse_check(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.infile, _format_options(args))
    violations = [v for utt in dataset for v in validate_bio(utt)]
    report = {
        "file": args.infile,
        "utterances": len(dataset),
        "violations": len(violations),
        "details": [
            {"utterance": v.utterance_id, "position": v.position, "kind": v.kind, "detail": v.detail}
            for v in violations
        ],
    }
    _write_report(report, args.out)
    return 1 if violations else 0


def cmd_stats(args: argparse.Namespace) -> int:
    options = _format_options(args)
    dataset = load_dataset(args.infile, options)
    inventory = label_inventory(dataset)
    if args.unseen_from is None:
        report = inventory.to_dict() if args.report == "json" else inventory.tsv_rows()
    else:
        train = load_dataset(args.unseen_from, options)
        unseen = unseen_label_report(train, dataset)
        if args.report == "json":
            report = {"inventory": inventory.to_dict(), "unseen": unseen.to_dict()}
        else:
            report = [*inventory.tsv_rows(), (), *unseen.tsv_rows()]
    _write_report(report, args.out)
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    options = _format_options(args)
    dataset = load_dataset(args.infile, options)
    print(f"seed: {args.seed}", file=sys.stderr)
    part1, part2 = split_dataset(
        dataset, args.ratio, args.seed,
        strategy=args.strategy, group_delimiter=args.group_delimiter,
    )
    save_dataset(part1, args.out1, options)
    save_dataset(part2, args.out2, options)
    return 0


def effective_seed(args: argparse.Namespace) -> int | None:
    """The seed a parsed command runs with: ``--seed`` if given, else for
    noise the ``--config`` file's seed or 0; None for unseeded commands."""
    seed = getattr(args, "seed", None)
    if seed is None and args.command == "noise":
        from .corpus import read_text
        from .noise import NoiseConfig

        seed = 0 if args.config is None else read_text(args.config, NoiseConfig.from_json).seed
    return seed


def cmd_noise(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .corpus import read_text
    from .noise import NoiseConfig, NoiseError, OpWeights

    if args.config is not None:
        cfg = read_text(args.config, NoiseConfig.from_json)
        if args.fraction is not None or args.alphabet_from is not None:
            raise NoiseError("--config cannot be combined with --fraction/--alphabet-from")
    else:
        if args.fraction is None or args.alphabet_from is None:
            raise NoiseError("either --config or both --fraction and --alphabet-from are required")
        cfg = NoiseConfig(
            word_fraction=args.fraction,
            alphabet=load_alphabet(args.alphabet_from),
            op_weights=OpWeights() if args.op_weights is None else OpWeights(*args.op_weights),
        )
    if args.seed is not None:  # effective_seed's rule, without parsing the config again
        cfg = replace(cfg, seed=args.seed)
    print(f"seed: {cfg.seed}", file=sys.stderr)
    options = _format_options(args)
    dataset = load_dataset(args.infile, options)
    save_dataset(noise_dataset(dataset, cfg), args.out, options)
    return 0


def cmd_normalize(args: argparse.Namespace) -> int:
    from .corpus import read_text
    from .files import replace_file

    text = read_text(args.infile)
    with replace_file(args.out) as fh:
        fh.write(normalize_text(text).encode("utf-8"))
    if args.trace is not None:
        lines: dict[str, bytes] = {}  # token -> its JSONL line, b"" when no rule applied
        with replace_file(args.trace) as fh:
            for token in text.split():
                if token not in lines:
                    trace = trace_token(token)
                    lines[token] = (trace.to_json() + "\n").encode("utf-8") if trace.applied else b""
                fh.write(lines[token])
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    options = _format_options(args)
    gold = load_dataset(args.gold, options)
    pred = load_dataset(args.pred, options)
    report = evaluate(gold, pred, repair=args.repair, group_by=args.group_by)
    if args.mode == "all":
        data = report.to_dict() if args.report == "json" else report.tsv_rows()
    else:
        prf = getattr(report, args.mode.replace("-", "_"))
        if args.report == "json":
            data = {"mode": args.mode, "intent_accuracy": report.intent_accuracy, args.mode: prf.to_dict()}
        else:
            scores = (report.intent_accuracy, prf.precision, prf.recall, prf.f1)
            data = [
                ("mode", "intent_accuracy", "precision", "recall", "f1"),
                (args.mode, *(f"{x:.6f}" for x in scores)),
            ]
    _write_report(data, args.out)
    return 0


def cmd_subword_ratio(args: argparse.Namespace) -> int:
    from .corpus import read_text
    from .subword import SubwordVocab

    vocab = SubwordVocab.from_file(args.vocab, unk_token=args.unk)

    def corpus_of(path: str):
        if args.format == "conll":
            return load_dataset(path, _format_options(args))
        return read_text(path)

    ratio = split_word_ratio(vocab, corpus_of(args.infile), letters_only=args.letters_only)
    payload: dict = {"file": args.infile, "split_word_ratio": ratio}
    if args.compare is not None:
        other = split_word_ratio(vocab, corpus_of(args.compare), letters_only=args.letters_only)
        payload.update(
            compare_file=args.compare, compare_ratio=other, ratio_difference=abs(ratio - other)
        )
    _write_report(payload, args.out)
    return 0


def cmd_correlate(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .corpus import read_text
    from .correlation import CorrelationError

    def columns(text: str) -> tuple[list[float], list[float]]:
        lines = text.split("\n")
        numbers = [i for i, line in enumerate(lines, 1) if line.strip()]  # 1-based line of each row
        rows = [lines[i - 1].split("\t") for i in numbers]
        if not rows:
            raise CorrelationError("empty table")

        def column(spec: str) -> list[float]:
            if spec.isdecimal():
                idx, start = int(spec), 0
                if any(not _is_number(c) for c in rows[0]):
                    start = 1  # numeric column index with a header row present
            else:
                try:
                    idx = rows[0].index(spec)
                except ValueError:
                    raise CorrelationError(f"column {spec!r} not found in header {rows[0]}") from None
                start = 1
            values = []
            for line, row in zip(numbers[start:], rows[start:]):
                cell = row[idx] if idx < len(row) else ""
                try:
                    values.append(float(cell))
                except ValueError:
                    raise CorrelationError(f"column {spec!r}, line {line}: {cell!r} is not a number") from None
                if not math.isfinite(values[-1]):
                    raise CorrelationError(f"column {spec!r}, line {line}: {values[-1]} is not a finite number")
            return values

        return column(args.x), column(args.y)

    x, y = read_text(args.infile, columns)
    result = correlate(x, y)
    if args.method == "exact":
        result = replace(result, p_rho=spearman(x, y, method="exact")[1])
    _write_report(result.to_dict() if args.report == "json" else result.tsv_rows(), args.out)
    return 0


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def cmd_surgery(args: argparse.Namespace) -> int:
    from .surgery import NamingScheme, SurgeryError

    if args.scheme is None:
        scheme = NamingScheme()
    else:
        from .corpus import read_text  # only here: a command without --scheme loads no corpus

        scheme = read_text(args.scheme, NamingScheme.from_json)
    if args.action == "revert":
        groups: list = list(args.layers)
        if args.embeddings:
            groups.append("embeddings")
        if args.heads:
            groups.append("heads")
        revert_layers(args.a, args.b, groups, scheme, args.out)
        return 0
    if args.action == "swap":
        if args.heads:
            raise SurgeryError("task heads are never swapped")
        swap_layers(args.a, args.b, args.layers, scheme, args.out, include_embeddings=args.embeddings)
        return 0
    _write_report(mav_report(args.a, args.b, scheme).to_dict(), args.out)
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    return run_pipeline(args.config, args.manifest)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> CommandParser:
    """The ``sidkit`` parser, built once per process; parsing a command line leaves it unchanged."""
    parser = CommandParser(
        prog="sidkit",
        description="Tooling for dialectal slot-and-intent detection experiments.",
    )
    parser.add_argument(
        "--version", action="version",
        version=(
            f"sidkit {__version__} "
            f"(corpus format v{CORPUS_FORMAT_VERSION}, container format v{CONTAINER_FORMAT_VERSION})"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("parse-check", help="parse a dataset and report BIO violations")
    p.add_argument("--in", type=InputPath, dest="infile", required=True)
    p.add_argument("--out", type=OutputPath, default=None, help="write the JSON report here instead of stdout")
    _add_format_flags(p)
    p.set_defaults(handler=cmd_parse_check)

    p = sub.add_parser("stats", help="label/intent inventory, optionally with unseen-label report")
    p.add_argument("--in", type=InputPath, dest="infile", required=True)
    p.add_argument("--unseen-from", type=InputPath, default=None, help="training set to compare against")
    p.add_argument("--report", choices=("json", "tsv"), default="json")
    p.add_argument("--out", type=OutputPath, default=None)
    _add_format_flags(p)
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("split", help="deterministic train/dev split")
    p.add_argument("--in", type=InputPath, dest="infile", required=True)
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--strategy", choices=("uniform", "grouped"), default="uniform")
    p.add_argument("--group-delimiter", default="-")
    p.add_argument("--out1", type=OutputPath, required=True)
    p.add_argument("--out2", type=OutputPath, required=True)
    _add_format_flags(p)
    p.set_defaults(handler=cmd_split)

    p = sub.add_parser("noise", help="inject seeded character-level noise")
    p.add_argument("--in", type=InputPath, dest="infile", required=True)
    p.add_argument("--out", type=OutputPath, required=True)
    p.add_argument("--fraction", type=float, default=None)
    p.add_argument("--alphabet-from", type=InputPath, default=None, help="text file supplying insertion letters")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--op-weights", type=_op_weights, default=None, help="delete,insert,both weights (e.g. 1,1,1)")
    p.add_argument("--config", type=InputPath, default=None, help="JSON noise config mirroring these flags")
    _add_format_flags(p)
    p.set_defaults(handler=cmd_noise)

    p = sub.add_parser("normalize", help="normalize dialect-transcription spellings")
    p.add_argument("--in", type=InputPath, dest="infile", required=True)
    p.add_argument("--out", type=OutputPath, required=True)
    p.add_argument("--trace", type=OutputPath, default=None, help="write per-token rule traces as JSONL")
    p.set_defaults(handler=cmd_normalize)

    p = sub.add_parser("evaluate", help="intent accuracy and span F1 report")
    p.add_argument("--gold", type=InputPath, required=True)
    p.add_argument("--pred", type=InputPath, required=True)
    p.add_argument("--group-by", choices=("none", "variety"), default="none")
    p.add_argument(
        "--mode", choices=("all", "strict", "loose", "unlabelled", "loose-unlabelled"),
        default="all",
    )
    p.add_argument("--repair", choices=("lenient", "strict"), default="lenient")
    p.add_argument("--report", choices=("json", "tsv"), default="json")
    p.add_argument("--out", type=OutputPath, default=None)
    _add_format_flags(p)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("subword-ratio", help="split-word ratio under a vocabulary")
    p.add_argument("--vocab", type=InputPath, required=True, help="one subword per line")
    p.add_argument("--in", type=InputPath, dest="infile", required=True)
    p.add_argument("--compare", type=InputPath, default=None, help="second corpus; also report the ratio difference")
    p.add_argument("--format", choices=("text", "conll"), default="text")
    p.add_argument("--letters-only", action="store_true")
    p.add_argument("--unk", default="[UNK]")
    p.add_argument("--out", type=OutputPath, default=None)
    _add_format_flags(p)
    p.set_defaults(handler=cmd_subword_ratio)

    p = sub.add_parser("correlate", help="Pearson/Spearman with two-tailed p-values")
    p.add_argument("--in", type=InputPath, dest="infile", required=True, help="TSV table")
    p.add_argument("--x", required=True, help="column name or 0-based index")
    p.add_argument("--y", required=True, help="column name or 0-based index")
    p.add_argument("--method", choices=("t", "exact"), default="t")
    p.add_argument("--report", choices=("json", "tsv"), default="json")
    p.add_argument("--out", type=OutputPath, default=None)
    p.set_defaults(handler=cmd_correlate)

    p = sub.add_parser("surgery", help="checkpoint layer reverting/swapping and MAV diagnostics")
    p.add_argument("action", choices=("revert", "swap", "mav"))
    p.add_argument("--a", type=InputPath, required=True,
                   help="revert: fine-tuned file; swap: recipient; mav: first file")
    p.add_argument("--b", type=InputPath, required=True,
                   help="revert: pretrained file; swap: donor; mav: second file")
    p.add_argument("--out", type=OutputPath, default=None, help="output checkpoint (revert/swap) or MAV report")
    p.add_argument("--layers", type=_layers, default="", help="comma-separated layer indices, e.g. 0,1")
    p.add_argument("--embeddings", action="store_true", help="include the embeddings group")
    p.add_argument("--heads", action="store_true", help="include task heads (revert only)")
    p.add_argument("--scheme", type=InputPath, default=None, help="JSON naming scheme")
    p.set_defaults(handler=cmd_surgery)

    p = sub.add_parser("pipeline", help="run an ordered step list with a provenance manifest")
    p.add_argument("--config", type=InputPath, required=True)
    p.add_argument("--manifest", type=OutputPath, default=None, help="defaults to <config>.manifest.json")
    p.set_defaults(handler=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_command(argv)
        return args.handler(args)
    except UsageError as exc:  # argparse's own report: usage line, message, exit 2
        argparse.ArgumentParser.error(*exc.args)
    except (OSError, ValueError) as exc:  # every sidkit data error is a ValueError
        named = isinstance(exc, OSError) and exc.filename is not None
        message = f"{exc.filename}: {exc.strerror}" if named else exc
        print(f"sidkit: error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
