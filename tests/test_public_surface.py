"""No dead public names: every public top-level function, class or
UPPER_CASE constant of ``src/hs2sphere`` is reached from the library, a
demo or the benchmark.

A name counts as reached when a module other than ``__init__.py`` (whose
imports only re-export) loads it: by name inside its own module, beyond
its definition, through ``from ... import`` or as an attribute of an
imported module elsewhere.  Only the names below are reached from tests
alone; each is kept as the reference of the test named next to it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hs2sphere"

REFERENCE_ONLY = {
    ("integrator", "rhs"): "test_integrate_steps_with_the_public_right_side",
    ("sphere", "exp_at_one"): "test_sphere::test_log_exp_round_trip",
    ("sphere", "log_at_one"): "test_c8_exp_log_and_connectivity's connect oracle",
    ("randfields", "sphere_tangent"): "test_acceptance::test_c7_hopf_layer inputs",
}


def _module(name):
    """Module stem of a dotted import path inside the package, else None."""
    parts = (name or "").split(".")
    if parts[-1] and (PACKAGE / f"{parts[-1]}.py").is_file():
        return parts[-1]
    return None


def _reexports():
    """Name under the package root -> (module, name) it re-exports."""
    out = {}
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and _module(node.module):
            for a in node.names:
                out[a.asname or a.name] = (_module(node.module), a.name)
    return out


def _references(path, own, reexports):
    """(module, name) pairs that the file at ``path`` loads."""
    tree = ast.parse(path.read_text())
    aliases, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname and _module(a.name):
                    aliases[a.asname] = _module(a.name)
        elif isinstance(node, ast.ImportFrom):
            base = _module(node.module)
            for a in node.names:
                if base:
                    refs.add((base, a.name))
                elif _module(a.name):
                    aliases[a.asname or a.name] = a.name
                elif a.name in reexports:
                    refs.add(reexports[a.name])
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and own:
            refs.add((own, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                refs.add((aliases[node.value.id], node.attr))
    return refs


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield path.stem, node.name
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    name = getattr(target, "id", "_")
                    if name.isupper() and not name.startswith("_"):
                        yield path.stem, name


def test_every_public_function_is_reached_outside_tests():
    reexports = _reexports()
    reached = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            reached |= _references(path, path.stem, reexports)
    for folder in ("demos", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            reached |= _references(path, None, reexports)
    dead = set(_public_definitions()) - reached
    assert sorted(dead - set(REFERENCE_ONLY)) == []
    assert sorted(set(REFERENCE_ONLY) - dead) == []
