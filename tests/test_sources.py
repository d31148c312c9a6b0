"""Every Python source of the checkout compiles with no warning.

An invalid escape in a string literal (``"\\d"`` written without ``r``) is a
warning at compile time, not an error, so it would pass every other test.
"""

import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_source_compiles_without_warnings():
    sources = sorted(p for top in ("src", "scripts", "tests", "bench") for p in (ROOT / top).rglob("*.py"))
    assert len(sources) > 30
    failed = []
    for path in sources:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                compile(path.read_bytes(), str(path), "exec", dont_inherit=True)
            except (SyntaxError, Warning) as exc:
                failed.append(f"{path.relative_to(ROOT)}: {exc}")
    assert failed == []
