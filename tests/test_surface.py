"""The library holds what the library runs.

Every function, class and method defined in ``src/apckit`` must be
referenced from somewhere other than its own definition: another part of the
package or the benchmark in ``apcbench/``.  Exports in ``__init__.py`` do not
count, and neither do the tests, so a function that only the tests call
shows up here and belongs in ``tests/reference.py``.  A reference is a name,
an attribute or, in the package and in ``apcbench/tracer.py``, which
patches methods by name, a string naming it.  ``self.m`` counts only for
the method m of the enclosing class and ``C.m`` only for that of class C,
so a dead method is not hidden by a live one of the same name elsewhere;
an attribute through any other receiver counts for every definition of
its name.  The metric names in ``apcbench/run.py`` run nothing, so its
strings do not count.  The allowlist holds the paper's constructions that
the tests exercise and no workload runs yet.

Every name a module imports, ``from __future__`` aside, must be read in
that module, so an import left behind by a removed function shows up too.

Every field of a dataclass in ``src/apckit`` must be read, as an attribute
or a string, in the package or in ``apcbench/``, so a field that is written
and never read shows up as well.  Like the definition guard it matches by
name: a read of ``x.name`` counts for every field called ``name``.  The
allowlist holds the fields of records that only the tests read.
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

FIELDS_READ_BY_TESTS = {
    "CoreReport.flat",
    "CoverageAssignment.member",
    "CoverageAssignment.word",
    "CoverageCertificate.assignments",
    "FreeProductResult.v_families",
    "WedgeReport.mismatches",
    "WedgeReport.pairs_checked",
}


def references(node, classes, strings=True, owner=None):
    """(scope, name) of every reference under node.  ``self.m`` has the
    scope of the enclosing class ``owner``, ``C.m`` for a package class C has
    scope C, and every other name, attribute or string has scope None."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name):
            yield None, child.id
        elif isinstance(child, ast.Attribute):
            receiver = child.value.id if isinstance(child.value, ast.Name) else None
            if receiver == "self" and owner is not None:
                yield owner, child.attr
            else:
                yield (receiver if receiver in classes else None), child.attr
        elif strings and isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield from ((None, part) for part in child.value.split(".") if part.isidentifier())
        inner = child.name if isinstance(child, ast.ClassDef) else owner
        yield from references(child, classes, strings, inner)


def definitions(node, prefix, owner=None):
    """(qualified name, node, class it is a method of or None) of every
    function and class under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not (child.name.startswith("__") and child.name.endswith("__")):
                yield name, child, owner
            yield from definitions(child, name, child.name if isinstance(child, ast.ClassDef) else None)
        else:
            yield from definitions(child, prefix, owner)


def unreferenced():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / "src/apckit").glob("*.py"))
               if p.name != "__init__.py"}
    classes = {n.name for tree in modules.values() for n in ast.walk(tree)
               if isinstance(n, ast.ClassDef)}
    refs = collections.Counter(ref for tree in modules.values() for ref in references(tree, classes))
    for p in sorted((ROOT / "apcbench").glob("*.py")):
        refs.update(references(ast.parse(p.read_text()), classes, strings=p.name == "tracer.py"))
    out = set()
    for module, tree in modules.items():
        for qualname, node, owner in definitions(tree, module):
            own = collections.Counter(references(node, classes, owner=(
                node.name if isinstance(node, ast.ClassDef) else owner)))
            if all(refs[scope, node.name] == own[scope, node.name] for scope in {None, owner}):
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


def dataclass_fields(tree):
    """Class.field of every annotated field in a ``@dataclass`` class body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).split("(")[0].split(".")[-1] == "dataclass"
                for d in node.decorator_list):
            yield from (f"{node.name}.{item.target.id}" for item in node.body
                        if isinstance(item, ast.AnnAssign))


def reads(tree):
    """Attribute names read under tree, and the dotted parts of its strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from (part for part in node.value.split(".") if part.isidentifier())


def test_every_dataclass_field_is_read():
    package = [ast.parse(p.read_text()) for p in sorted((ROOT / "src/apckit").glob("*.py"))]
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "apcbench").glob("*.py"))]
    read = {name for tree in package + bench for name in reads(tree)}
    fields = {f for tree in package for f in dataclass_fields(tree)}
    assert {f for f in fields if f.split(".")[1] not in read} == FIELDS_READ_BY_TESTS
