"""The flag ring and every layer above it compute with flag elements only:
none of them imports the series type or series composition, so a change
that sends the flag ring back through n-variable series fails here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cobschub"
FLAG_LAYERS = ("flagring", "weylops", "schubert", "cli")
SERIES_NAMES = {"TruncSeries", "compose"}


def series_references(tree) -> set[str]:
    """The series names a module imports, or reads off an imported module
    (``ringcore.compose``)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names} & SERIES_NAMES
        elif isinstance(node, ast.Attribute) and node.attr in SERIES_NAMES:
            found.add(node.attr)
    return found


def test_flag_layers_import_no_series():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert set(FLAG_LAYERS) <= set(trees)
    # the guard looks for names the series layer really defines
    assert SERIES_NAMES <= {node.name for node in trees["ringcore"].body
                            if isinstance(node, (ast.ClassDef,
                                                 ast.FunctionDef))}
    offenders = {name: series_references(trees[name]) for name in FLAG_LAYERS}
    assert offenders == {name: set() for name in FLAG_LAYERS}
