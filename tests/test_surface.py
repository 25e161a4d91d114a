"""Every public function, class and method is used by the package itself."""

import ast
from pathlib import Path

import hypalign

SRC = Path(hypalign.__file__).parent

#: Public names the package keeps without calling them itself.
#: ``finite_diff`` is the central-difference oracle of the gradient checks.
ALLOWED_UNUSED = {"finite_diff"}


def _public(stmts, kinds) -> list:
    return [s for s in stmts if isinstance(s, kinds)
            and not s.name.startswith("_")]


def test_no_public_name_is_unused():
    # a function or class is used by name or as a module attribute, a
    # method only as an attribute
    defined, bare, attrs = [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        body = ast.parse(path.read_text()).body
        for stmt in _public(body, (ast.FunctionDef, ast.ClassDef)):
            defined.append((f"{path.name}:{stmt.name}", stmt.name, False))
            if isinstance(stmt, ast.ClassDef):
                defined += [(f"{path.name}:{stmt.name}.{m.name}", m.name, True)
                            for m in _public(stmt.body, ast.FunctionDef)]
        for stmt in body:
            # a definition naming itself (recursion) does not count as a use
            own = {getattr(stmt, "name", None)}
            nodes = list(ast.walk(stmt))
            bare |= {n.id for n in nodes if isinstance(n, ast.Name)} - own
            attrs |= {n.attr for n in nodes
                      if isinstance(n, ast.Attribute)} - own
    unused = sorted(where for where, name, method in defined
                    if name not in (attrs if method else bare | attrs)
                    | ALLOWED_UNUSED)
    assert not unused, f"public names nothing under src/ uses: {unused}"
