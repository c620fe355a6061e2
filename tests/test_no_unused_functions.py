"""Every public function and method in src/metalink has a caller in
src/metalink, scripts/ or the console scripts of pyproject.toml.

A function that only the tests call is code the tests keep alive on their
own; a reference implementation belongs in tests/oracles.py.

A use of a module-level function is a load of its bare name where no
enclosing function and no module-level statement of that file binds the
name, or an attribute <module>.<name> on a metalink module (metalink
itself, one of its submodules, or an alias of either). So an attribute or
a variable that only shares the function's name, such as report.ber or a
local evm, is not a use. A use of a public method or property is any
attribute with its name, since the class of an instance is not known
statically. Uses inside the definition itself do not count, and the
re-exports in metalink/__init__.py are imports, which do not count either.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "metalink"
SUBMODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}

# public functions that nothing in src/ or scripts/ calls, each with its reason
KEPT_FOR_THE_GATE = {
    "resample_hold": "tests/test_acceptance.py builds its held schedules with it",
    "frequency_shift": "tests/test_acceptance.py shifts an envelope with it",
}


def _module_aliases(tree: ast.Module) -> set:
    """Names under which a file binds metalink or one of its submodules."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {alias.asname or alias.name.split(".")[0] for alias in node.names
                        if alias.name.split(".")[0] == "metalink"}
        elif isinstance(node, ast.ImportFrom) and (node.level > 0
                                                    or node.module == "metalink"):
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name in SUBMODULES}
    return aliases


def _stores(node: ast.AST) -> set:
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _module_variables(tree: ast.Module) -> set:
    """Names that the module-level statements of a file assign."""
    return set().union(*(_stores(node) for node in tree.body
                         if not isinstance(node, (ast.FunctionDef, ast.ClassDef))))


def _free_loads(node: ast.AST, bound: set):
    """Bare-name loads in node of names that no enclosing function binds
    as a parameter or by assignment, nor bound holds."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        bound = bound | _stores(node) | {a.arg for a in ast.walk(node.args)
                                         if isinstance(a, ast.arg)}
    if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and node.id not in bound):
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _free_loads(child, bound)


def _uses(unit: ast.AST, aliases: set, variables: set) -> tuple:
    """(function uses, attribute names) in one statement of a file whose
    metalink modules are bound to aliases and whose module-level
    statements assign variables."""
    functions = set(_free_loads(unit, variables))
    attributes = set()
    for n in ast.walk(unit):
        if isinstance(n, ast.Attribute):
            attributes.add(n.attr)
            if isinstance(n.value, ast.Name) and n.value.id in aliases:
                functions.add(n.attr)
    return functions, attributes


def _units(tree: ast.Module) -> list:
    """Top-level statements, with each class split into its body statements,
    so that a method's own definition is a unit of its own."""
    units = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            units.extend(node.decorator_list + node.bases + node.body)
        else:
            units.append(node)
    return units


def _public(name: str) -> bool:
    return not name.startswith("_")


def unused_public_definitions() -> list:
    """Names of the unused public functions, and Class.name of the unused
    public methods and properties."""
    console_scripts = set(re.findall(r'"metalink\.\w+:(\w+)"',
                                     (ROOT / "pyproject.toml").read_text()))
    uses = [(None, console_scripts, set())]  # (unit, function uses, attribute names)
    functions, methods = {}, {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases, variables = _module_aliases(tree), _module_variables(tree)
        uses.extend((unit, *_uses(unit, aliases, variables)) for unit in _units(tree))
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                methods.update({f"{node.name}.{item.name}": item for item in node.body
                                if isinstance(item, ast.FunctionDef)
                                and _public(item.name)})
    unused = [name for name, definition in functions.items()
              if not any(name in called for unit, called, _ in uses
                         if unit is not definition)]
    unused += [key for key, definition in methods.items()
               if not any(definition.name in attributes for unit, _, attributes in uses
                          if unit is not definition)]
    return sorted(unused)


def test_every_public_function_has_a_caller_outside_the_tests():
    unused = {name for name in unused_public_definitions() if "." not in name}
    unused -= set(KEPT_FOR_THE_GATE)
    assert not unused, f"public functions nothing in src/ or scripts/ calls: {unused}"


def test_every_public_method_and_property_has_a_use_outside_the_tests():
    unused = [name for name in unused_public_definitions() if "." in name]
    assert not unused, f"public methods nothing in src/ or scripts/ uses: {unused}"


def test_each_exemption_is_still_needed():
    # once an exempt function is deleted or gains a caller, drop its entry
    assert set(KEPT_FOR_THE_GATE) <= set(unused_public_definitions())


def test_a_same_named_attribute_or_variable_is_not_a_use_of_a_function():
    tree = ast.parse("def run(report, ber):\n"
                     "    evm = report.ber\n"
                     "    return evm, ber, detect(report)\n"
                     "for scheme in schemes:\n"
                     "    print(scheme, get_scheme(scheme))\n")
    variables = _module_variables(tree)
    called, attributes = _uses(tree.body[0], {"txrx"}, variables)
    assert called == {"detect"} and "ber" in attributes
    called, _ = _uses(tree.body[1], {"txrx"}, variables)
    assert called == {"schemes", "print", "get_scheme"}
    tree = ast.parse("txrx.ber(a, b)\nnp.evm(a, b)")
    called = set.union(*(_uses(unit, {"txrx"}, set())[0] for unit in tree.body))
    assert called == {"txrx", "ber", "np", "a", "b"}
    tree = ast.parse("import metalink as ml\nfrom . import txrx as t\n"
                     "from metalink import scenario\nimport numpy as np")
    assert _module_aliases(tree) == {"ml", "t", "scenario"}
