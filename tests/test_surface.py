"""Every public function and class is used by the package itself."""

import ast
from pathlib import Path

import hypalign

SRC = Path(hypalign.__file__).parent

#: Public names the package keeps without calling them itself.
#: ``finite_diff`` is the central-difference oracle of the gradient checks.
ALLOWED_UNUSED = {"finite_diff"}


def _names(node) -> set:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_no_public_name_is_unused():
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not own.startswith("_")):
                defined[own] = path.name
            # a definition naming itself (recursion) does not count as a use
            used |= _names(stmt) - {own}
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in used | ALLOWED_UNUSED)
    assert not unused, f"public names nothing under src/ uses: {unused}"
