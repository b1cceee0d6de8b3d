"""Every public top-level function or class in src/neosim must have a caller
in the program: a use in a src/neosim module (outside its own definition and
__init__.py) or in perfbench/workloads.py. A name that only tests call is
surface to delete, or an oracle to move into the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "neosim"
WORKLOADS = ROOT / "perfbench" / "workloads.py"

# kept although only tests call them
ALLOWED = {
    "access": "the per-access oracle of cache.simulate_trace",
    "make_scan_hot_trace": "generates the bundled trace_scan_hot.txt",
    "effective_performance": "acceptance criterion 1 checks the paper's identity with it",
    "load_bundled_model": "README's Python API",
    "load_bundled_cluster": "README's Python API",
}


def used_names(tree) -> set[str]:
    """Names a syntax tree reads, as plain names or attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def census() -> tuple[dict[str, str], set[str]]:
    """(public name -> its module, names used by the program)."""
    defined = {}
    used = used_names(ast.parse(WORKLOADS.read_text()))
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not own.startswith("_"):
                defined[own] = path.stem
            if path.name != "__init__.py":
                used |= used_names(node) - {own}
    return defined, used


def test_every_public_name_has_a_caller_outside_the_tests():
    defined, used = census()
    uncalled = sorted(
        f"{module}.{name}"
        for name, module in defined.items()
        if name not in used and name not in ALLOWED
    )
    assert not uncalled, "only tests call: " + ", ".join(uncalled)


def test_allowlist_names_only_uncalled_definitions():
    defined, used = census()
    stale = sorted(name for name in ALLOWED if name not in defined or name in used)
    assert not stale, "drop from ALLOWED: " + ", ".join(stale)
