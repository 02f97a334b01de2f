"""Every top-level name of kipa_lab is reached from the CLI or has an owner.

The scan parses ``src/kipa_lab/*.py`` with ``ast``.  A name that a module
defines at its top level, by ``def``, ``class`` or assignment, must be reached
from the CLI's roots: the ``cmd_<name>`` handlers of ``cli.COMMANDS``,
``main``, ``run``, and the module-level statements other than imports, which
run when a module loads.  A ``def`` or ``class`` that is reached reaches every
name its statement references, public or private: loaded as a name, read as
an attribute, or imported.  A name that appears only in annotations is not
reached, since none is evaluated, and neither is one that only unreached code
calls.  Names are matched by name alone, whatever module defines them.  A
public name (one not starting with ``_``) that is not reached stays only while
a ROADMAP item owns it: LEDGER maps it to that item, and the item either gives
it a caller or deletes it.  A private name has no owner: one that is not
reached is an orphaned helper, and goes with the last code that called it.  A
ledger entry is stale once its name is reached, is private, or leaves src/.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kipa_lab"

# Public names the CLI does not reach -> the ROADMAP item that will call or delete them.
LEDGER = {
    "degenerate_gain": 3,
    "output_quadrature_variance": 3,
    "n_gamma_term": 3,  # the internal-loss input of output_quadrature_variance
    "quadrature_gain_x": 3,  # called by output_quadrature_variance
    "quadrature_transfer": 3,  # called by quadrature_gain_x off band center
    "idler_gain": 3,  # called by quadrature_transfer
    "pump_strength_3wm": 5,
    "BiasPoint": 5,
    "pump_gain_map": 8,  # perfbench's tracer and oracle tests still call it
    "cascade_input_impedance": 10,
    "sif_sections": 10,
    "LineSection": 10,  # the sections of sif_sections and cascade_input_impedance
    "input_impedance": 10,  # called by cascade_input_impedance
    "radiative_cooling": 14,
}
# Reached however the CLI is used: the console script's entry point and the in-process one.
ROOTS = {"main", "run"}


def _defined(stmt) -> set:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = {node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)}
    else:
        names = set()
    return names


def _annotations(tree) -> set:
    """The ids of every node inside an annotation of ``tree``."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
        elif isinstance(node, ast.arg):
            roots.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(sub) for root in roots if root is not None for sub in ast.walk(root)}


def _referenced(stmt) -> set:
    """The names a statement loads, reads as attributes or imports, outside annotations."""
    skip = _annotations(stmt)
    names = set()
    for node in ast.walk(stmt):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def scan(sources: dict, ledger: dict) -> tuple:
    """(names neither reached nor owned, stale ledger entries) of the
    modules in ``sources``, {module name: source text}."""
    defined, edges, reached = set(), {}, set(ROOTS)
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            names = _defined(stmt)
            defined |= names
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                edges.setdefault(stmt.name, set()).update(_referenced(stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                reached |= _referenced(stmt)
            if module == "cli" and names == {"COMMANDS"}:
                reached |= {"cmd_" + key.value.replace("-", "_") for key in stmt.value.keys}
    todo = list(reached)
    while todo:
        new = edges.get(todo.pop(), set()) - reached
        reached |= new
        todo.extend(new)
    public = {name for name in defined if not name.startswith("_")}
    unowned = sorted(defined - reached - set(ledger))
    stale = sorted(name for name in ledger if name in reached or name not in public)
    return unowned, stale


def _sources() -> dict:
    return {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}


def test_every_public_name_has_a_caller_or_an_owner():
    assert scan(_sources(), LEDGER) == ([], [])


def test_scan_finds_an_uncalled_function_and_a_stale_entry():
    sources = _sources()
    sources["extra"] = "def orphan():\n    return helper()\n\n\ndef helper():\n    return radiative_cooling()\n"
    assert scan(sources, LEDGER) == (["helper", "orphan"], [])  # called, but only by code the CLI never runs
    sources["extra"] += "\nhelper()\n"  # a module-level call runs at import: helper and what it calls are reached
    assert scan(sources, LEDGER) == (["orphan"], ["radiative_cooling"])
    # An owned name's private helper is not owned with it, and a private name cannot be owned.
    sources["extra"] = "def owned():\n    return _helper()\n\n\ndef _helper():\n    return 1\n"
    assert scan(sources, {**LEDGER, "owned": 14}) == (["_helper"], [])
    assert scan(sources, {**LEDGER, "owned": 14, "_helper": 14}) == ([], ["_helper"])
    assert scan(_sources(), {**LEDGER, "no_such_name": 1}) == ([], ["no_such_name"])
