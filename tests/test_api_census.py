"""Every public top-level function or class in src/neosim, and every public
method or property of a public class, must have a caller in the program: a
use in a src/neosim module (outside its own definition and __init__.py) or
in perfbench/workloads.py. A name that only tests call is surface to delete,
or an oracle to move into the tests. A top-level function or class counts
as called when the program reads its name, plainly or as an attribute; a
method or property only when the program reads an attribute of its name
(`x.name`), on any receiver, so a local variable of the same name does not
hide it."""

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


def used_names(tree) -> tuple[set[str], set[str]]:
    """(plain names, attribute names) a syntax tree reads."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return names, attributes


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
    """(public qualified name -> (its module, its called name), qualified
    names the program calls)."""
    defined = {}
    names, attributes = used_names(ast.parse(WORKLOADS.read_text()))
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)
            for qualified, name in public_definitions(node).items():
                defined[qualified] = (path.stem, name)
            if path.name != "__init__.py":
                node_names, node_attributes = used_names(node)
                names |= node_names - {own}
                attributes |= node_attributes - {own}
    called = {
        qualified
        for qualified, (_, name) in defined.items()
        if name in attributes or ("." not in qualified and name in names)
    }
    return defined, called


def test_every_public_name_has_a_caller_outside_the_tests():
    defined, called = census()
    uncalled = sorted(
        f"{module}.{qualified}"
        for qualified, (module, _) in defined.items()
        if qualified not in called and qualified not in ALLOWED
    )
    assert not uncalled, "only tests call: " + ", ".join(uncalled)


def test_allowlist_names_only_uncalled_definitions():
    defined, called = census()
    stale = sorted(
        qualified
        for qualified in ALLOWED
        if qualified not in defined or qualified in called
    )
    assert not stale, "drop from ALLOWED: " + ", ".join(stale)
