"""Static hygiene of the package source, checked with ``ast`` alone.

(a) No module-level import in ``src/riskcast`` goes unused; names listed in
    a module's ``__all__`` count as used, which covers the re-exports of
    ``__init__``.
(b) Every ``RunConfig`` field is read somewhere in ``src/`` or ``bench/``
    outside its declaration, its validation and ``RunConfig.header``, so
    no field is a knob that nothing consults.
(c) No module in ``src/riskcast`` but ``recouple`` imports ``dlm``, and none
    imports ``recouple``, so the scalar reference oracles stay off the
    engine's path.
(d) Every public top-level function and class in ``src/riskcast`` is
    referenced somewhere else in ``src/`` or ``bench/``, so no code lives in
    the package only for the tests.
(e) Importing the engine, in a fresh interpreter, leaves ``scipy.special``
    unloaded: the filter kernel's Student-t constant uses ``math.lgamma``,
    and only the ``dlm`` oracle uses ``gammaln``.
(f) No module in ``src/riskcast`` but ``_batch`` imports ``scipy.linalg.lapack``,
    so the Cholesky factorization and its failure messages have one home,
    ``_batch._cholesky``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "riskcast"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(path):
    tree = parse(path)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported(tree)
    return sorted(f"{path.name}:{line} {name}" for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def config_reads(tree, skipped=frozenset()):
    """Attribute names read off a run configuration: ``config.x``, ``cfg.x``
    or ``<obj>.config.x``, plus ``self.x`` inside ``RunConfig`` outside the
    nodes in ``skipped``."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "RunConfig":
            reads |= {n.attr for n in ast.walk(node)
                      if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                      and n.value.id == "self" and id(n) not in skipped}
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = node.value
            if ((isinstance(base, ast.Name) and base.id in ("config", "cfg"))
                    or (isinstance(base, ast.Attribute) and base.attr == "config")):
                reads.add(node.attr)
    return reads


def test_every_run_config_field_is_read():
    engine = parse(PACKAGE / "engine.py")
    cls = next(n for n in engine.body if isinstance(n, ast.ClassDef) and n.name == "RunConfig")
    fields = [n.target.id for n in cls.body
              if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
    skipped = {id(n) for m in cls.body
               if isinstance(m, ast.FunctionDef) and m.name in ("header", "__post_init__")
               for n in ast.walk(m)}
    others = [parse(path) for path in [*MODULES, *sorted((ROOT / "bench").glob("*.py"))]
              if path != PACKAGE / "engine.py"]
    read = config_reads(engine, skipped).union(*map(config_reads, others))
    assert fields and [f for f in fields if f not in read] == []


def package_imports(tree):
    """The ``riskcast`` modules a module imports, relatively or absolutely."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("riskcast.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "riskcast":
                continue
            parts = module.split(".")[1:] if node.level == 0 else module.split(".")
            if parts and parts[0]:
                names.add(parts[0])
            else:
                names |= {a.name for a in node.names}
    return names


def test_scalar_oracles_stay_off_the_engine_path():
    offenders = sorted(f"{path.name} imports {name}" for path in MODULES
                       for name in package_imports(parse(path)) & {"dlm", "recouple"}
                       if name == "recouple" or path.stem != "recouple")
    assert offenders == []


def references(tree, skipped=frozenset()):
    """Names a module refers to, as bare names, attributes or imported names,
    outside the nodes in ``skipped``."""
    refs = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.split(".")[-1])
    return refs


# The scalar oracles dlm and recouple are reached only from the tests and from
# the tracer's hooks; they leave src/ after the benchmark-definition change of
# ROADMAP item 1 drops those hooks.
ORACLE_MODULES = ("dlm.py", "recouple.py")


def test_every_public_definition_is_referenced():
    paths = [*MODULES, *sorted((ROOT / "bench").glob("*.py"))]
    trees = {path: parse(path) for path in paths}
    unreferenced = []
    for path in MODULES:
        if path.name in ORACLE_MODULES:
            continue
        for node in trees[path].body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                own = {id(n) for n in ast.walk(node)}
                if not any(node.name in references(tree, own if other == path else frozenset())
                           for other, tree in trees.items()):
                    unreferenced.append(f"{path.name}:{node.name}")
    assert unreferenced == []


def test_engine_import_leaves_scipy_special_unloaded():
    code = "import sys, riskcast.engine; print('scipy.special' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def imported_names(tree):
    """Dotted names a module imports absolutely: ``import a.b`` gives a.b, and
    ``from a import b`` gives a.b."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield from (f"{node.module}.{a.name}" for a in node.names)


def test_lapack_is_imported_by_batch_alone():
    importers = sorted(path.name for path in MODULES if any(
        name.startswith("scipy.linalg.lapack") for name in imported_names(parse(path))))
    assert importers == ["_batch.py"]
