"""Every public function in src/metalink has a caller in src/metalink or scripts/.

A function that only the tests call is code the tests keep alive on their
own; a reference implementation belongs in tests/oracles.py. A use is any
occurrence of the name (a call, an attribute, a default) in a top-level
statement other than the function's own definition. The re-exports in
metalink/__init__.py are imports, which do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "metalink"

# public functions that nothing in src/ or scripts/ calls, each with its reason
KEPT_FOR_THE_GATE = {
    "resample_hold": "tests/test_acceptance.py builds its held schedules with it",
}


def _names_used(node: ast.AST) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unused_public_functions() -> list:
    statements = []
    definitions = {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            statements.append((node, _names_used(node)))
            if (path.parent == PACKAGE and isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")):
                definitions[node.name] = node
    return sorted(name for name, definition in definitions.items()
                  if not any(name in names for node, names in statements
                             if node is not definition))


def test_every_public_function_has_a_caller_outside_the_tests():
    unused = set(unused_public_functions()) - set(KEPT_FOR_THE_GATE)
    assert not unused, f"public functions nothing in src/ or scripts/ calls: {unused}"


def test_each_exemption_is_still_needed():
    # once an exempt function is deleted or gains a caller, drop its entry
    assert set(KEPT_FOR_THE_GATE) <= set(unused_public_functions())
