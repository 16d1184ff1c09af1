"""The public API: every name a module lists in __all__ has a caller."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "etaforge"

# names without a caller in src/, demos/ or perfbench/, and why they stay
KEEP = {
    "antipodal_action_check": "acceptance criterion 10",
    "random_elliptic_elements": "acceptance criteria 10 and 11",
    "inverse_row_decomposition": "acceptance criterion 11",
    "rotation_homotopy": "acceptance criterion 11",
    "rotation_unitary": "its test is the only check that P_phi is a "
                        "unitary conjugate of P_0",
    "reduction_mod_n": "the Z/n coefficient sequence the README advertises",
    "bockstein": "the Z/n coefficient sequence the README advertises",
    "dump_symbol": "the symbol.v1 file format the README documents",
    "load_symbol": "the symbol.v1 file format the README documents",
}


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _exported():
    out = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if _is_all(node):
                out.update({c.value: path.stem for c in node.value.elts})
    return out


def _uses(path):
    """Names this file uses from the package: a bare name it imports from
    etaforge (or, inside the package, any bare name), an attribute of a
    name bound to etaforge or one of its modules, or a string outside
    __all__ (perfbench's tracer names the functions it wraps)."""
    tree = ast.parse(path.read_text())
    inside = path.parent == PACKAGE
    imported, modules, listed = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name.split(".")[0] for a in node.names
                        if a.name.split(".")[0] == "etaforge"}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "etaforge"):
            for a in node.names:
                imported.add(a.asname or a.name)
                # `from etaforge import kzn` binds a module
                modules.add(a.asname or a.name)
        elif _is_all(node):
            listed |= {id(c) for c in ast.walk(node)}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and (inside or node.id in imported):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in modules:
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in listed:
            used.add(node.value)
    return used


def test_every_public_name_has_a_caller():
    files = [p for d in ("src", "demos", "perfbench")
             for p in (ROOT / d).rglob("*.py") if "tests" not in p.parts]
    used = set().union(*map(_uses, files))
    exported = _exported()
    orphans = {f"{mod}.{name}" for name, mod in exported.items()
               if name not in used and name not in KEEP}
    assert orphans == set()
    # a kept name that found a caller, or left __all__, leaves the list
    assert {n for n in KEEP if n in used or n not in exported} == set()


def test_every_private_module_name_is_read_in_the_package():
    # a module-level private function, class or constant that nothing in
    # src/etaforge reads (by name, attribute or import) is dead code
    trees = [ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")]
    defined, read = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined |= {t.id for t in node.targets
                            if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    private = {n for n in defined if n.startswith("_")
               and not n.startswith("__")}
    assert private - read == set()


def test_only_subspaces_reads_the_frame_record():
    # a symbol's recorded frames (SubspaceSymbol._frames) are read through
    # subspaces alone; other modules ask it, e.g. through subspaces._frame
    readers = {p.name for p in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, ast.Attribute) and node.attr == "_frames"}
    assert readers == {"subspaces.py"}
