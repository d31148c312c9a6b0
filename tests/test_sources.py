"""Every Python source of the checkout compiles with no warning, and no
module under ``src/``, ``tests/``, ``scripts/`` or ``bench/`` imports a name it never uses.

An invalid escape in a string literal (``"\\d"`` written without ``r``) is a
warning at compile time, not an error, so it would pass every other test.
"""

import ast
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


def _own_nodes(scope: ast.AST):
    """The nodes of a module or function, without the bodies of the functions defined in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each name that an import binds and its scope never reads.

    The scope is the module for a module-level import and the function for one
    inside a function. A string that is a bare name, such as ``"Dataset"`` in
    ``Union["Dataset", str]``, reads that name: it is a forward reference.
    ``__future__`` imports are exempt.
    """
    unused = []
    for scope in ast.walk(ast.parse(source)):
        if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {
            node.id if isinstance(node, ast.Name) else node.value
            for node in ast.walk(scope)
            if isinstance(node, ast.Name) or isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        for node in _own_nodes(scope):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = ((alias.asname or alias.name).split(".")[0] for alias in node.names)
                unused += [(node.lineno, name) for name in bound if name not in read]
    return sorted(unused)


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for top in ("src", "tests", "scripts", "bench") for p in (ROOT / top).rglob("*.py"))
    assert len(modules) > 36
    unused = {str(p.relative_to(ROOT)): unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {path: names for path, names in unused.items() if names} == {}


def test_the_unused_import_check_sees_a_leftover_error_class():
    source = (
        "from typing import TYPE_CHECKING, Union\n"
        "if TYPE_CHECKING:\n"
        "    from .corpus import Dataset\n"
        "Corpus = Union['Dataset', str]\n"
        "def swap(args):\n"
        "    from .surgery import SurgeryError, swap_layers\n"
        "    return swap_layers(args)\n"
        "def check(args):\n"
        "    from .surgery import SurgeryError\n"
        "    raise SurgeryError(args)\n"
    )
    assert unused_imports(source) == [(6, "SurgeryError")]
