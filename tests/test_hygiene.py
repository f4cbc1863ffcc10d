"""Static hygiene of the package source, checked with ``ast`` alone.

(a) No module-level import in ``src/riskcast`` goes unused; names listed in
    a module's ``__all__`` count as used, which covers the re-exports of
    ``__init__``.
(b) Every ``RunConfig`` field is read somewhere in ``src/`` or ``bench/``
    outside its declaration, its validation and ``RunConfig.header``, so
    no field is a knob that nothing consults.
"""

import ast
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
