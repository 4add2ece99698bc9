"""The package's public names all resolve, so a deletion cannot leave a stale
export behind, and no module reaches into a sibling's private helpers."""

import ast
import os

import diffalg

PACKAGE_DIR = os.path.dirname(diffalg.__file__)


def test_every_export_resolves():
    missing = [name for name in diffalg.__all__ if not hasattr(diffalg, name)]
    assert missing == []
    assert len(set(diffalg.__all__)) == len(diffalg.__all__)


def test_no_module_imports_a_private_sibling_name():
    offenders = []
    for filename in sorted(os.listdir(PACKAGE_DIR)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE_DIR, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{filename}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []
