"""Every public function and method in src/metalink has a caller in
src/metalink, scripts/ or the console scripts of pyproject.toml.

A function that only the tests call is code the tests keep alive on their
own; a reference implementation belongs in tests/oracles.py. The one rule
for the acceptance gate's own API: it lives in metalink/envelope.py, whose
public names are kept for the gate and which is neither scanned nor a
user, since simulate never reaches it.

A use of a module-level function is a load of its bare name where no
enclosing function and no module-level statement of that file binds the
name, or an attribute <module>.<name> on a metalink module (metalink
itself, one of its submodules, or an alias of either). So an attribute or
a variable that only shares the function's name, such as report.ber or a
local evm, is not a use. A use of a public method or property is an
attribute with its name, since the class of an instance is mostly not
known statically. When another class of src/metalink defines a field or
a member of the same name, as the LinkReport.num_streams property once
shared its name with a CoefficientSchedule property, an attribute counts
only when its receiver is known to be of the class: self in the class's
own methods, a parameter annotated with the class, or a variable assigned
one of its constructor calls. A member whose only uses have receivers of
no known class is undecided and needs an entry, with its reason, in
UNDECIDED_MEMBERS. Uses inside the definition itself do not count, and the
re-exports in metalink/__init__.py are imports, which do not count either.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "metalink"
SUBMODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}

# Class.member names of production classes that nothing in src/ or
# scripts/ uses, each with its reason
KEPT_FOR_THE_GATE = {
    "Spectrum.frequencies": "tests/test_acceptance.py reads its spectra's bin grid",
    "StaircaseRampSpec.frequency_shift": "tests/test_acceptance.py reads its "
                                         "ramps' shifted line",
}

# members of a shared name whose uses have receivers of no known class,
# each with the use that keeps it
UNDECIDED_MEMBERS: dict = {}


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


def _class_of(node, classes: set):
    """The class of classes that an annotation or a called name names:
    C, <module>.C, "C", or either side of C | None; else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, ast.BinOp):
        return _class_of(node.left, classes) or _class_of(node.right, classes)
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name if name in classes else None


def _receivers(function: ast.FunctionDef, owner, classes: set) -> dict:
    """Variable -> class for what a function's own statements show: its
    self (when owner is its class), annotated parameters, and variables
    assigned a constructor call."""
    args = function.args.posonlyargs + function.args.args + function.args.kwonlyargs
    known = {a.arg: _class_of(a.annotation, classes) for a in args}
    if owner and args:
        known[args[0].arg] = owner
    for node in ast.walk(function):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)):
            known[node.targets[0].id] = _class_of(node.value.func, classes)
    return known


def _attributes(node: ast.AST, owner, classes: set, known: dict):
    """(name, receiver class or None) of each attribute in node."""
    if isinstance(node, ast.FunctionDef):
        known = {**known, **_receivers(node, owner, classes)}
        owner = None  # a nested function's first parameter is not self
    if isinstance(node, ast.Attribute):
        receiver = known.get(node.value.id) if isinstance(node.value, ast.Name) else None
        yield node.attr, receiver
    for child in ast.iter_child_nodes(node):
        yield from _attributes(child, owner, classes, known)


def _uses(unit: ast.AST, aliases: set, variables: set, owner=None,
          classes: set = frozenset()) -> tuple:
    """(function uses, attributes) in one statement of a file whose
    metalink modules are bound to aliases and whose module-level
    statements assign variables; owner is the class whose body holds the
    statement, and each attribute is (name, receiver class or None)."""
    functions = set(_free_loads(unit, variables))
    functions |= {n.attr for n in ast.walk(unit) if isinstance(n, ast.Attribute)
                  and isinstance(n.value, ast.Name) and n.value.id in aliases}
    return functions, set(_attributes(unit, owner, classes, {}))


def _units(tree: ast.Module) -> list:
    """(statement, owner class) for the top-level statements, with each
    class split into its body statements, so that a method's own
    definition is a unit of its own."""
    units = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            units.extend((item, None) for item in node.decorator_list + node.bases)
            units.extend((item, node.name) for item in node.body)
        else:
            units.append((node, None))
    return units


def _public(name: str) -> bool:
    return not name.startswith("_")


def _member_names(node: ast.ClassDef) -> set:
    """The fields and methods a class body defines."""
    return {item.target.id if isinstance(item, ast.AnnAssign) else item.name
            for item in node.body
            if isinstance(item, ast.FunctionDef)
            or (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name))}


def scan(package: list, others: list, console_scripts: set = frozenset()) -> tuple:
    """(unused, undecided) for the sources of package, given the sources of
    others that may use them: the sorted names of the unused public
    functions and Class.name of the unused public methods and properties,
    then Class.name of the members whose only uses are undecided."""
    trees = [(ast.parse(source), True) for source in package]
    trees += [(ast.parse(source), False) for source in others]
    class_nodes = [node for tree, own in trees if own for node in tree.body
                   if isinstance(node, ast.ClassDef)]
    classes = {node.name for node in class_nodes}
    owners = {}  # member or field name -> the classes that define it
    for node in class_nodes:
        for name in _member_names(node):
            owners.setdefault(name, set()).add(node.name)
    uses = [(None, set(console_scripts), set())]  # (unit, functions, attributes)
    functions, methods = {}, {}
    for tree, own in trees:
        aliases, variables = _module_aliases(tree), _module_variables(tree)
        uses.extend((unit, *_uses(unit, aliases, variables, owner, classes))
                    for unit, owner in _units(tree))
        if not own:
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                methods.update({(node.name, item.name): item for item in node.body
                                if isinstance(item, ast.FunctionDef)
                                and _public(item.name)})
    unused = [name for name, definition in functions.items()
              if not any(name in called for unit, called, _ in uses
                         if unit is not definition)]
    undecided = []
    for (cls, name), definition in methods.items():
        receivers = {receiver for unit, _, attributes in uses if unit is not definition
                     for attr, receiver in attributes if attr == name}
        if (len(owners[name]) == 1 and receivers) or cls in receivers:
            continue
        (undecided if None in receivers else unused).append(f"{cls}.{name}")
    return sorted(unused), sorted(undecided)


def unused_public_definitions() -> tuple:
    """scan over src/metalink but envelope.py, used by itself, scripts/ and
    the console scripts of pyproject.toml."""
    console_scripts = set(re.findall(r'"metalink\.\w+:(\w+)"',
                                     (ROOT / "pyproject.toml").read_text()))
    return scan([path.read_text() for path in sorted(PACKAGE.glob("*.py"))
                 if path.stem != "envelope"],
                [path.read_text() for path in sorted((ROOT / "scripts").glob("*.py"))],
                console_scripts)


def test_every_public_function_has_a_caller_outside_the_tests():
    unused = {name for name in unused_public_definitions()[0] if "." not in name}
    unused -= set(KEPT_FOR_THE_GATE)
    assert not unused, f"public functions nothing in src/ or scripts/ calls: {unused}"


def test_every_public_method_and_property_has_a_use_outside_the_tests():
    unused, undecided = unused_public_definitions()
    unused = [name for name in unused if "." in name and name not in KEPT_FOR_THE_GATE]
    assert not unused, f"public methods nothing in src/ or scripts/ uses: {unused}"
    undecided = set(undecided) - set(UNDECIDED_MEMBERS)
    assert not undecided, f"members used only through receivers of no known class: {undecided}"


def test_each_exemption_is_still_needed():
    # once an exempt function is deleted or gains a caller, or an exempt
    # member gains a use through a receiver of its class, drop its entry
    unused, undecided = unused_public_definitions()
    assert set(KEPT_FOR_THE_GATE) <= set(unused)
    assert set(UNDECIDED_MEMBERS) <= set(undecided)


def test_a_same_named_field_of_another_class_is_not_a_use_of_a_property():
    # as before FrameSpec.control_rate was deleted: only pass_weights reads
    # a control_rate, and it reads the schedule's field
    core = ("class CoefficientSchedule:\n"
            "    control_rate: float\n"
            "    @property\n"
            "    def num_steps(self):\n"
            "        return len(self.values)\n")
    txrx = ("class FrameSpec:\n"
            "    symbol_rate: float\n"
            "    @property\n"
            "    def control_rate(self):\n"
            "        return self.symbol_rate * 4\n"
            "    @property\n"
            "    def num_steps(self):\n"
            "        return 1\n")
    user = ("def pass_weights(schedule: core.CoefficientSchedule, frame: 'FrameSpec'):\n"
            "    return schedule.control_rate, schedule.num_steps\n")
    assert scan([core, txrx], [user]) == (["FrameSpec.control_rate",
                                           "FrameSpec.num_steps"], [])
    # a receiver of no known class leaves the property undecided; a known
    # one decides its class
    loop = "def summarize(items):\n    return [x.control_rate for x in items]\n"
    assert scan([core, txrx], [loop]) == (["CoefficientSchedule.num_steps",
                                           "FrameSpec.num_steps"],
                                          ["FrameSpec.control_rate"])
    built = ("def run(rate, ramp: 'txrx.FrameSpec | None'):\n"
             "    frame = txrx.FrameSpec(rate)\n"
             "    return frame.control_rate, ramp.num_steps\n")
    assert scan([core, txrx], [built]) == (["CoefficientSchedule.num_steps"], [])
    # self in another class's method is that class, not the member's
    other = ("class Ramp:\n"
             "    def steps(self):\n"
             "        return self.num_steps\n"
             "Ramp().steps()\n")
    assert scan([core, txrx, other], []) == (["CoefficientSchedule.num_steps",
                                              "FrameSpec.control_rate",
                                              "FrameSpec.num_steps"], [])


def test_a_same_named_attribute_or_variable_is_not_a_use_of_a_function():
    tree = ast.parse("def run(report, ber):\n"
                     "    evm = report.ber\n"
                     "    return evm, ber, detect(report)\n"
                     "for scheme in schemes:\n"
                     "    print(scheme, get_scheme(scheme))\n")
    variables = _module_variables(tree)
    called, attributes = _uses(tree.body[0], {"txrx"}, variables)
    assert called == {"detect"} and ("ber", None) in attributes
    called, _ = _uses(tree.body[1], {"txrx"}, variables)
    assert called == {"schemes", "print", "get_scheme"}
    tree = ast.parse("txrx.ber(a, b)\nnp.evm(a, b)")
    called = set.union(*(_uses(unit, {"txrx"}, set())[0] for unit in tree.body))
    assert called == {"txrx", "ber", "np", "a", "b"}
    tree = ast.parse("import metalink as ml\nfrom . import txrx as t\n"
                     "from metalink import scenario\nimport numpy as np")
    assert _module_aliases(tree) == {"ml", "t", "scenario"}
