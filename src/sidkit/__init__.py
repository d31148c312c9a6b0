"""sidkit: tooling for dialectal slot-and-intent detection experiments.

``import sidkit`` loads no submodule. Each name in ``__all__`` is imported
from its defining module on first access (PEP 562), so ``from sidkit import
span_f1`` loads only the evaluate module and the modules that it imports.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "corpus": (
        "BioViolation", "Dataset", "FormatOptions", "Span", "Utterance", "extract_spans",
        "label_inventory", "load_dataset", "parse_dataset", "save_dataset", "spans_to_tags",
        "split_dataset", "unseen_label_report", "validate_bio", "write_dataset",
    ),
    "correlation": ("correlate", "pearson", "spearman"),
    "evaluate": ("PRF", "EvalReport", "evaluate", "span_f1"),
    "noise": ("Alphabet", "NoiseConfig", "OpWeights", "build_alphabet", "noise_dataset", "noise_word"),
    "normalize": ("RuleTrace", "normalize_text", "normalize_token", "trace_token"),
    "subword": ("SubwordVocab", "split_word_ratio", "tokenize_word"),
    "surgery": (
        "MavReport", "NamingScheme", "layer_group", "mav_report",
        "read_checkpoint", "revert_layers", "swap_layers", "write_checkpoint",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    elif name in _EXPORTS:  # a submodule, such as ``sidkit.surgery`` after a bare ``import sidkit``
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """Keeps ``sidkit.evaluate`` the function: importing the submodule of that
    name binds the submodule's export there, not the submodule itself."""

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, types.ModuleType) and _OWNER.get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
