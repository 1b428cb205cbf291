"""The library holds what the library runs.

Every function, class and method defined in ``src/apckit`` must be
referenced from somewhere other than its own definition: another part of the
package or the benchmark in ``apcbench/``.  Exports in ``__init__.py`` do not
count, and neither do the tests, so a function that only the tests call
shows up here and belongs in ``tests/reference.py``.  A reference is a name,
an attribute or, in the package and in ``apcbench/tracer.py``, which
patches methods by name, a string naming it.  The metric names in
``apcbench/run.py`` run nothing, so its strings do not count.  The
allowlist holds the paper's constructions that the tests exercise and no
workload runs yet.

Every name a module imports, ``from __future__`` aside, must be read in
that module, so an import left behind by a removed function shows up too.
"""

import ast
import collections
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CONSTRUCTIONS = {
    "covers.NegativeCertificate.replay",
    "freeprod.wedge_embed_check",
    "groups.TableModel.cyclic",
    "groups.TrivialKernelSource",
    "groups.product_cover_groups",
    "groups.product_group_window",
    "groups.projection_fiber_scheme",
    "groups.r_stabilizer",
    "groups.rho_from_weights",
    "metric.hypercube_collapse",
    "trees.tree_oracle",
}


def referenced_names(node, strings=True):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield from (part for part in n.value.split(".") if part.isidentifier())


def definitions(node, prefix):
    """(qualified name, node) of every function and class under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not (child.name.startswith("__") and child.name.endswith("__")):
                yield name, child
            yield from definitions(child, name)
        else:
            yield from definitions(child, prefix)


def unreferenced():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / "src/apckit").glob("*.py"))
               if p.name != "__init__.py"}
    refs = collections.Counter(name for tree in modules.values() for name in referenced_names(tree))
    for p in sorted((ROOT / "apcbench").glob("*.py")):
        refs.update(referenced_names(ast.parse(p.read_text()), strings=p.name == "tracer.py"))
    out = set()
    for module, tree in modules.items():
        for qualname, node in definitions(tree, module):
            own = sum(name == node.name for name in referenced_names(node))
            if refs[node.name] == own:
                out.add(qualname)
    return out


def test_every_definition_outside_the_allowlist_is_referenced():
    assert unreferenced() == CONSTRUCTIONS


def unread_imports(tree):
    """Names the module's imports bind, ``from __future__`` aside, that it never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return imported - read


def test_every_import_is_read():
    unread = {p.name: sorted(unread_imports(ast.parse(p.read_text())))
              for p in sorted((ROOT / "src/apckit").glob("*.py")) if p.name != "__init__.py"}
    assert {name: names for name, names in unread.items() if names} == {}
