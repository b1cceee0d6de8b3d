"""Every public top-level function or class in src/neosim, and every public
method or property of a public class, must have a caller in the program: a
use in a src/neosim module (outside its own definition and __init__.py) or
in perfbench/workloads.py. A name that only tests call is surface to delete,
or an oracle to move into the tests. A top-level function or class counts
as called when the program reads its name, plainly or as an attribute; a
method or property only when the program reads an attribute of its name
(`x.name`), on any receiver, so a local variable of the same name does not
hide it. Likewise every defaulted parameter of those functions and methods
must be set by some program call: an option only tests set is surface to
delete. And every annotated field of a public dataclass or NamedTuple must
be read by the program as an attribute (`x.field`): a member nothing reads
is state to delete.

Every rule matches by name alone, so it is blind to name collisions: a
member whose name the program reads elsewhere (a field `breakdown` beside
another class's `breakdown`, a property `index_bytes` beside a column of
that name) counts as used although nothing reads it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "neosim"
WORKLOADS = ROOT / "perfbench" / "workloads.py"

# kept although only tests call them
ALLOWED = {
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


# ---------------------------------------------------------------------------
# options census: every defaulted parameter of a public function or method
# is set by some program call, by keyword or by position, and so is every
# defaulted constructor parameter of a public class: one of its __init__,
# or a defaulted field of a public dataclass or NamedTuple. A call counts
# when it names the function or class, plainly or as an attribute, or hands
# it to perfbench's `tr.call(label, fn, *args, **kwargs)`; a `*args` or
# `**kwargs` spread counts as setting every parameter it can reach.

# defaulted parameters kept although only tests set them
ALLOWED_OPTIONS = {
    "main.argv": "the console entry point calls main() without arguments",
    "load_bundled_cluster.name": "README's Python API",
    "EmbeddingTable.moment": (
        "tests hand a table a moment to check; the program's zero moments come "
        "from _fresh_table, which skips the constructor's scan of them"
    ),
}


def defaulted_parameters(fn, bound: bool) -> dict[str, int | None]:
    """Defaulted parameter -> its position among the call's positional
    arguments (None if keyword-only). A bound method's first parameter is
    not passed."""
    args = fn.args
    positional = args.posonlyargs + args.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    if bound and not static:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    found = {arg.arg: i for i, arg in enumerate(positional) if i >= first}
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            found[arg.arg] = None
    return found


def called_with(call) -> tuple[str | None, list, list]:
    """(the called name, its positional arguments, its keywords) of a call."""
    func, args = call.func, call.args
    if isinstance(func, ast.Attribute) and func.attr == "call" and len(args) >= 2:
        func, args = args[1], args[2:]  # tr.call(label, fn, *args, **kwargs)
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    return name, args, call.keywords


def program_calls(tree, own=None) -> list[tuple]:
    """called_with of every call in a syntax tree, but of calls to `own`."""
    calls = (called_with(c) for c in ast.walk(tree) if isinstance(c, ast.Call))
    return [c for c in calls if c[0] != own]


def public_functions(node) -> list[tuple[str, ast.FunctionDef, bool]]:
    """(qualified name, definition, whether it is a method) of each function
    that public_definitions names."""
    defined = public_definitions(node)
    if isinstance(node, ast.FunctionDef):
        return [(node.name, node, False)] if defined else []
    return [
        (f"{node.name}.{item.name}", item, True)
        for item in getattr(node, "body", ())
        if isinstance(item, ast.FunctionDef) and f"{node.name}.{item.name}" in defined
    ]


def is_init_field(item) -> bool:
    """Whether a class-body annotation is a constructor field: not a
    ClassVar and not `field(init=False)`."""
    annotation = ast.unparse(item.annotation)
    if annotation.startswith(("ClassVar", "typing.ClassVar")):
        return False
    value = item.value
    return not (
        isinstance(value, ast.Call)
        and getattr(value.func, "id", None) == "field"
        and any(k.arg == "init" and getattr(k.value, "value", 1) is False for k in value.keywords)
    )


def has_default(value) -> bool:
    """Whether a field's assigned value gives it a default."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return value is not None


def constructor_options(node) -> dict[str, int | None]:
    """Defaulted constructor parameter -> its position among the call's
    positional arguments, for a public class: its __init__'s, else the
    defaulted fields of a dataclass or NamedTuple, in field order."""
    if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
        return {}
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            return defaulted_parameters(item, bound=True)
    if not is_record(node):
        return {}
    fields = [
        item
        for item in node.body
        if isinstance(item, ast.AnnAssign) and is_init_field(item)
    ]
    return {item.target.id: i for i, item in enumerate(fields) if has_default(item.value)}


def options_census() -> tuple[dict[str, tuple[str, str, int | None]], set[str]]:
    """(option "function.parameter" -> (its module, the called name, its
    position), options some program call sets)."""
    options = {}
    calls = program_calls(ast.parse(WORKLOADS.read_text()))
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for qualified, fn, method in public_functions(node):
                for param, position in defaulted_parameters(fn, method).items():
                    options[f"{qualified}.{param}"] = (path.stem, fn.name, position)
            for param, position in constructor_options(node).items():
                options[f"{node.name}.{param}"] = (path.stem, node.name, position)
            if path.name != "__init__.py":
                calls += program_calls(node, getattr(node, "name", None))
    set_ = set()
    for option, (_, name, position) in options.items():
        param = option.rsplit(".", 1)[1]
        for called, args, keywords in calls:
            by_keyword = any(k.arg in (param, None) for k in keywords)
            by_position = position is not None and (
                len(args) > position or any(isinstance(a, ast.Starred) for a in args)
            )
            if called == name and (by_keyword or by_position):
                set_.add(option)
                break
    return options, set_


def test_every_option_is_set_by_the_program():
    options, set_ = options_census()
    unset = sorted(
        f"{module}.{option}"
        for option, (module, _, _) in options.items()
        if option not in set_ and option not in ALLOWED_OPTIONS
    )
    assert not unset, "only tests set: " + ", ".join(unset)


def test_options_allowlist_names_only_unset_options():
    options, set_ = options_census()
    stale = sorted(
        option for option in ALLOWED_OPTIONS if option not in options or option in set_
    )
    assert not stale, "drop from ALLOWED_OPTIONS: " + ", ".join(stale)


# ---------------------------------------------------------------------------
# fields census: every annotated field of a public dataclass or NamedTuple is
# read by the program as an attribute, on any receiver. A key naming a class
# covers all its fields.

# fields kept although the program reads them only whole
ALLOWED_FIELDS = {
    "ComponentLatencies": "read through as_dict, which the report walks",
    "MemoryReport.table_bytes": "plan_to_json unpacks the report",
    "MemoryReport.optimizer_bytes": "plan_to_json unpacks the report",
    "MemoryReport.dense_bytes": "plan_to_json unpacks the report",
    "PerfEstimate.components": "perfbench hashes dataclasses.asdict(estimate)",
}


def is_record(node) -> bool:
    """Whether a class definition is a dataclass or a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(getattr(d, "id", None) == "dataclass" for d in decorators) or any(
        getattr(b, "id", None) == "NamedTuple" for b in node.bases
    )


def read_attributes(tree) -> set[str]:
    """Attribute names a syntax tree reads (loads, not stores)."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def fields_census() -> tuple[dict[str, str], set[str]]:
    """(field "Class.name" -> its module, fields the program reads)."""
    fields = {}
    read = read_attributes(ast.parse(WORKLOADS.read_text()))
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if is_record(node):
                    for item in node.body:
                        if isinstance(item, ast.AnnAssign):
                            fields[f"{node.name}.{item.target.id}"] = path.stem
        if path.name != "__init__.py":
            read |= read_attributes(tree)
    return fields, {field for field in fields if field.split(".")[1] in read}


def allowed_field(field: str) -> bool:
    return field in ALLOWED_FIELDS or field.split(".")[0] in ALLOWED_FIELDS


def test_every_field_is_read_by_the_program():
    fields, read = fields_census()
    unread = sorted(
        f"{module}.{field}"
        for field, module in fields.items()
        if field not in read and not allowed_field(field)
    )
    assert not unread, "nothing reads: " + ", ".join(unread)


def test_fields_allowlist_names_only_unread_fields():
    fields, read = fields_census()
    unread = set(fields) - read
    stale = sorted(
        key
        for key in ALLOWED_FIELDS
        if not any(field == key or field.split(".")[0] == key for field in unread)
    )
    assert not stale, "drop from ALLOWED_FIELDS: " + ", ".join(stale)
