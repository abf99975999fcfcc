"""Claims about the shape of the source tree, read with ast."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "capitula"


def _trees():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(PACKAGE).as_posix(), ast.parse(path.read_text(), str(path))


def test_only_curves_names_the_cover_families():
    # fforacle/curves.py is the one module that tells Artin-Schreier from Kummer
    family = {"artin_schreier", "kummer"}
    naming = {name for name, tree in _trees() for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and node.value in family}
    assert naming == {"fforacle/curves.py"}


def test_picard_does_not_import_rational_functions():
    # the Picard engine works in F_q[t] and F_q alone
    tree = ast.parse((PACKAGE / "fforacle" / "picard.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert "RationalFunc" not in imported
