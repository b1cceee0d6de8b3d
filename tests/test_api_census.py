"""Every public top-level function or class in src/neosim, and every public
method or property of a public class, must have a caller in the program: a
use in a src/neosim module (outside its own definition and __init__.py) or
in perfbench/workloads.py. A name that only tests call is surface to delete,
or an oracle to move into the tests. A method counts as called when the
program reads an attribute of its name, on any receiver."""

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


def public_definitions(node) -> dict[str, str]:
    """Qualified name -> called name of a top-level public function or
    class and of a public class's public methods (properties included)."""
    if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
        return {}
    found = {node.name: node.name}
    if isinstance(node, ast.ClassDef):
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                found[f"{node.name}.{item.name}"] = item.name
    return found


def census() -> tuple[dict[str, tuple[str, str]], set[str]]:
    """(public qualified name -> (its module, its called name), names used
    by the program)."""
    defined = {}
    used = used_names(ast.parse(WORKLOADS.read_text()))
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)
            for qualified, name in public_definitions(node).items():
                defined[qualified] = (path.stem, name)
            if path.name != "__init__.py":
                used |= used_names(node) - {own}
    return defined, used


def test_every_public_name_has_a_caller_outside_the_tests():
    defined, used = census()
    uncalled = sorted(
        f"{module}.{qualified}"
        for qualified, (module, name) in defined.items()
        if name not in used and qualified not in ALLOWED
    )
    assert not uncalled, "only tests call: " + ", ".join(uncalled)


def test_allowlist_names_only_uncalled_definitions():
    defined, used = census()
    stale = sorted(
        qualified
        for qualified in ALLOWED
        if qualified not in defined or defined[qualified][1] in used
    )
    assert not stale, "drop from ALLOWED: " + ", ".join(stale)
