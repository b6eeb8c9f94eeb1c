"""``src/`` holds what the daemon and its commands run.

Every function, class and method defined in ``src/radarfuse`` must be
named somewhere in the program code (``src/``, ``scripts/`` or
``perfbench/``), and every name a ``src`` module imports must be used
in that module.  A definition only the tests reach belongs in the
tests.  The check is by name, with the standard-library ``ast``: a
definition counts as used when any ``Name``, ``Attribute`` or import
alias in the program code spells it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "radarfuse"
PROGRAM_DIRS = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]

# definitions no program code names, each kept for a stated reason
ALLOWED_UNUSED = {
    # the algorithm as one call: the same _EpsAdjacency + _dbscan steps
    # WindowClusterer runs on a window
    "clustering.dbscan",
    # the link state the health stream (ROADMAP item 6) will report
    "telemetry.Publisher.connected",
    # README's "Recording format" route for importing other sources'
    # frames; its range check validates that outside input
    "tlv.encode_frame",
}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def names(tree):
    """Every name a tree spells in a ``Name``, an ``Attribute`` or an
    import alias."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
            if node.asname:
                out.add(node.asname)
    return out


def definitions(node, prefix):
    """``(qualified name, name)`` of every function and class under
    ``node``, dunders excepted."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            qualname = f"{prefix}.{child.name}"
            if not (child.name.startswith("__")
                    and child.name.endswith("__")):
                yield qualname, child.name
            yield from definitions(child, qualname)
        else:
            yield from definitions(child, prefix)


def modules():
    return sorted(PACKAGE.glob("*.py"))


def test_every_src_definition_is_named_by_program_code():
    named = set()
    for directory in PROGRAM_DIRS:
        for path in directory.rglob("*.py"):
            named |= names(parse(path))
    unnamed = {qualname for path in modules()
               for qualname, name in definitions(parse(path), path.stem)
               if name not in named}
    assert unnamed == ALLOWED_UNUSED


def imported(tree):
    """``(line, bound name)`` of every import in a module, ``__future__``
    excepted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, (alias.asname
                                    or alias.name.split(".")[0])


def test_every_src_import_is_used():
    unused = []
    for path in modules():
        tree = parse(path)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}"
                   for line, name in imported(tree) if name not in used]
    assert unused == []
