"""Every public function, class and method, and every public op bound at
module level, is used by the package itself."""

import ast
import textwrap
from pathlib import Path

import hypalign

SRC = Path(hypalign.__file__).parent

#: Public names the package keeps without calling them itself.
#: ``finite_diff`` is the central-difference oracle of the gradient checks.
ALLOWED_UNUSED = {"finite_diff"}

#: Nodes with a scope of their own, whose bound names hide a global.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp,
           ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _public(stmts, kinds) -> list:
    return [s for s in stmts if isinstance(s, kinds)
            and not s.name.startswith("_")]


def _assigned(stmts) -> list:
    """The public names that module-level assignments bind, such as an op
    (``add = _Op(...)``); an UPPER_CASE constant is data, not a
    function, and is left out."""
    targets = [t for s in stmts if isinstance(s, (ast.Assign, ast.AnnAssign))
               for t in getattr(s, "targets", [getattr(s, "target", None)])]
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            and not n.id.startswith("_") and not n.id.isupper()]


def _bound(scope) -> set:
    """The names a function, lambda or comprehension binds in its own
    scope: its parameters, its own name (so recursion is no use), and every
    name it assigns, imports or defines, nested scopes excluded."""
    names = {getattr(scope, "name", None)}
    if hasattr(scope, "args"):
        a = scope.args
        names |= {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs
                  + [a.vararg, a.kwarg] if x is not None}
    pending = list(ast.iter_child_nodes(scope))
    declared_global = set()
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.Global):
            declared_global |= set(node.names)
        if isinstance(node, _SCOPES + (ast.ClassDef,)):
            names.add(getattr(node, "name", None))
        else:
            pending.extend(ast.iter_child_nodes(node))
    return names - declared_global


def _loaded_globals(node, hidden=frozenset()) -> set:
    """Names loaded under ``node`` that no enclosing scope binds."""
    if isinstance(node, _SCOPES):
        hidden = hidden | _bound(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return set() if node.id in hidden else {node.id}
    used = set()
    for child in ast.iter_child_nodes(node):
        used |= _loaded_globals(child, hidden)
    return used


def unused_public_names(sources: dict) -> list:
    """``file:name`` of every public function, class, method and
    module-level binding (see :func:`_assigned`) of the given module
    sources (file name -> text) that none of them uses.

    A function, class or binding is used when its name is loaded without a
    local of the same name in scope, or read as a module attribute; a
    method only as an attribute.
    """
    defined, bare, attrs = [], set(), set()
    for file, text in sorted(sources.items()):
        body = ast.parse(text).body
        for stmt in _public(body, (ast.FunctionDef, ast.ClassDef)):
            defined.append((f"{file}:{stmt.name}", stmt.name, False))
            if isinstance(stmt, ast.ClassDef):
                defined += [(f"{file}:{stmt.name}.{m.name}", m.name, True)
                            for m in _public(stmt.body, ast.FunctionDef)]
        defined += [(f"{file}:{name}", name, False)
                    for name in _assigned(body)]
        for stmt in body:
            # a definition naming itself (recursion) does not count as a use
            own = {getattr(stmt, "name", None)}
            bare |= _loaded_globals(stmt) - own
            attrs |= {n.attr for n in ast.walk(stmt)
                      if isinstance(n, ast.Attribute)} - own
    return sorted(where for where, name, method in defined
                  if name not in (attrs if method else bare | attrs)
                  | ALLOWED_UNUSED)


def test_no_public_name_is_unused():
    unused = unused_public_names({
        path.name: path.read_text() for path in SRC.glob("*.py")
        if path.name != "__init__.py"})
    assert not unused, f"public names nothing under src/ uses: {unused}"


def test_a_local_of_the_same_name_is_no_use():
    # ``pick`` binds a local ``cols``, which hid an unused public ``cols``;
    # ``take`` reads the global in a comprehension whose own ``sort``
    # variable hides nothing outside it
    source = textwrap.dedent("""
        def cols(m):
            return m

        def sort(m):
            return m

        def pick(m, idx):
            cols = idx
            return m[cols]

        def take(m):
            return [sort(row) for row in m] + [sort for sort in m]

        ROWS = take(pick([[1.0]], 0))
        """)
    assert unused_public_names({"mod.py": source}) == ["mod.py:cols"]


def test_ops_bound_at_module_level_are_public_names():
    # an op bound by assignment is a public name like a def; a constant is
    # not counted
    source = textwrap.dedent("""
        def _maker(name):
            return lambda x: x

        add = _maker("add")
        exp, log = _maker("exp"), _maker("log")
        sign: int = 1
        LIMIT = 3

        def total(x):
            return add(x, LIMIT)

        ROWS = total(sign)
        """)
    assert unused_public_names({"mod.py": source}) == ["mod.py:exp",
                                                       "mod.py:log"]


#: The calls that parse JSON, by module and top-level definition:
#: ``read_json`` (orjson, and json where orjson's answer would differ),
#: ``_columns``, which parses a corpus a chunk of lines at a time with
#: orjson behind ``read_json``'s guard, and ``_checked_columns``'s
#: line-by-line scan of a corpus that ``_columns`` failed to read.
JSON_PARSES = [("datasynth.py", "_checked_columns", "json.loads"),
               ("datasynth.py", "_columns", "orjson.loads"),
               ("datasynth.py", "read_json", "json.loads"),
               ("datasynth.py", "read_json", "orjson.loads")]

#: The calls that write JSON: the one writer of every file, ``json_bytes``
#: (orjson, and the ``_ENCODER`` of ``json_line`` where orjson's bytes
#: could differ), and the CLI's stdout and stderr lines.
JSON_WRITES = [("cli.py", "_emit", "json.dumps"),
               ("cli.py", "run_cli", "json.dumps"),
               ("datasynth.py", "_ENCODER", "json.JSONEncoder"),
               ("datasynth.py", "json_bytes", "orjson.dumps")]

_PARSERS = {"json": {"load", "loads"}, "orjson": {"loads"}}
_WRITERS = {"json": {"dump", "dumps", "JSONEncoder"}, "orjson": {"dumps"}}


def _json_calls(sources: dict, calls: dict) -> list:
    """``(file, definition, call)`` of every call of ``module.name`` for a
    name in ``calls[module]`` in the given module sources, or use of it as
    a value (``map(orjson.loads, lines)``), and of every import that would
    hide one: ``from json import loads`` or ``import json as j``.  A call
    at module level is owned by the name it is assigned to, if any."""
    found = []
    for file, text in sorted(sources.items()):
        for stmt in ast.parse(text).body:
            owner = getattr(stmt, "name", "<module>")
            if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0],
                                                           ast.Name):
                owner = stmt.targets[0].id
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.attr in calls.get(node.value.id, ())):
                    found.append((file, owner,
                                  f"{node.value.id}.{node.attr}"))
                elif isinstance(node, ast.ImportFrom) and node.module in (
                        calls):
                    found += [(file, owner, f"from {node.module} import "
                               f"{alias.name}") for alias in node.names]
                elif isinstance(node, ast.Import):
                    found += [(file, owner, f"import {alias.name} as "
                               f"{alias.asname}") for alias in node.names
                              if alias.name in calls and alias.asname]
    return sorted(found)


def json_parses(sources: dict) -> list:
    """:func:`_json_calls` of ``json.load``, ``json.loads`` and
    ``orjson.loads``."""
    return _json_calls(sources, _PARSERS)


def json_writes(sources: dict) -> list:
    """:func:`_json_calls` of ``json.dump``, ``json.dumps``,
    ``json.JSONEncoder`` and ``orjson.dumps``."""
    return _json_calls(sources, _WRITERS)


def test_json_is_parsed_only_by_read_json():
    found = json_parses({path.name: path.read_text()
                         for path in SRC.glob("*.py")})
    assert found == JSON_PARSES


def test_json_parses_sees_every_route_to_a_parser():
    source = textwrap.dedent("""
        import json
        import orjson as fast
        from json import load

        def read(fh, text):
            return json.load(fh), json.loads(text), json.dumps(text)

        class Reader:
            def read(self, text):
                return orjson.loads(text)

        def read_lines(lines):
            return list(map(orjson.loads, lines)), json.JSONDecodeError
        """)
    assert json_parses({"mod.py": source}) == [
        ("mod.py", "<module>", "from json import load"),
        ("mod.py", "<module>", "import orjson as fast"),
        ("mod.py", "Reader", "orjson.loads"),
        ("mod.py", "read", "json.load"), ("mod.py", "read", "json.loads"),
        ("mod.py", "read_lines", "orjson.loads")]


def test_json_is_written_only_by_json_bytes_and_the_cli_lines():
    found = json_writes({path.name: path.read_text()
                         for path in SRC.glob("*.py")})
    assert found == JSON_WRITES


def test_json_writes_sees_every_route_to_a_writer():
    source = textwrap.dedent("""
        import json as j
        from orjson import dumps

        ENCODER = json.JSONEncoder(indent=1)
        PRETTY, RAW = json.JSONEncoder(), orjson.dumps([1])

        def write(fh, value):
            json.dump(value, fh)
            return json.dumps(value), json.loads(value), ENCODER.encode(value)

        class Writer:
            def write(self, value):
                return orjson.dumps(value)
        """)
    assert json_writes({"mod.py": source}) == [
        ("mod.py", "<module>", "from orjson import dumps"),
        ("mod.py", "<module>", "import json as j"),
        ("mod.py", "<module>", "json.JSONEncoder"),
        ("mod.py", "<module>", "orjson.dumps"),
        ("mod.py", "ENCODER", "json.JSONEncoder"),
        ("mod.py", "Writer", "orjson.dumps"),
        ("mod.py", "write", "json.dump"), ("mod.py", "write", "json.dumps")]


#: The private names that one module under ``src/`` takes from another,
#: as (importer, module, name): datasynth's checks of a JSON object, which
#: the state and meta readers share, and autodiff's plain-array kernels,
#: which the metric routes of geometry and objectives share; the garbage
#: collector's switch, which the readers and each command share; and the
#: trainer's corpus check error and unchecked batch, so that a command
#: checks its corpus once and names the file.
PRIVATE_IMPORTS = [("cli.py", "datasynth", "_collector_off"),
                   ("cli.py", "datasynth", "_object"),
                   ("cli.py", "trainer", "_Misfit"),
                   ("cli.py", "trainer", "_prepare"),
                   ("geometry.py", "autodiff", "_dot"),
                   ("geometry.py", "autodiff", "_norm"),
                   ("geometry.py", "autodiff", "_num"),
                   ("objectives.py", "autodiff", "_dot"),
                   ("objectives.py", "autodiff", "_norm"),
                   ("objectives.py", "autodiff", "_num"),
                   ("trainer.py", "datasynth", "_exact_fields"),
                   ("trainer.py", "datasynth", "_object")]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_imports(sources: dict) -> list:
    """``(file, module, name)`` of every private name that one of the given
    module sources takes from a module of the package: by ``from .module
    import _name`` or ``from hypalign.module import _name``, or as
    ``alias._name`` of a module imported as ``alias``."""
    found = set()
    for file, text in sorted(sources.items()):
        tree = ast.parse(text)
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0]
                    == "hypalign"):
                module = (node.module or "").removeprefix("hypalign")
                module = module.lstrip(".")
                for alias in node.names:
                    if not module:
                        modules[alias.asname or alias.name] = alias.name
                    elif _private(alias.name):
                        found.add((file, module, alias.name))
            elif isinstance(node, ast.Import):
                modules.update({alias.asname: alias.name.split(".")[-1]
                                for alias in node.names if alias.asname
                                and alias.name.startswith("hypalign.")})
        found |= {(file, modules[node.value.id], node.attr)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules and _private(node.attr)}
    return sorted(found)


def test_private_names_cross_modules_only_where_listed():
    found = private_imports({path.name: path.read_text()
                             for path in SRC.glob("*.py")})
    assert found == PRIVATE_IMPORTS


def test_private_imports_sees_every_route_to_a_private_name():
    source = textwrap.dedent("""
        import numpy as np
        import hypalign.fusion as fu
        from . import autodiff as ad, geometry
        from .trainer import _vocab_size, check_corpus
        from hypalign.datasynth import _object
        from hypalign import objectives

        def f(x):
            return (ad._num(x) + geometry._inner(x) + np._private
                    + fu._mlp + objectives.val + ad.__name__)
        """)
    assert private_imports({"mod.py": source}) == [
        ("mod.py", "autodiff", "_num"), ("mod.py", "datasynth", "_object"),
        ("mod.py", "fusion", "_mlp"), ("mod.py", "geometry", "_inner"),
        ("mod.py", "trainer", "_vocab_size")]
