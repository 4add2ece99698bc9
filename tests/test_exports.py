"""The package's public names all resolve, so a deletion cannot leave a stale
export behind; no module reaches into a sibling's private helpers or into
the integer form of a ``Poly`` outside ``numcore``; no module reads the
environment, so every setting is an option or an argument;
the CLI substitutes nothing, since each procedure checks the certificate
it makes; and a cold CLI query or batch loads only the modules it computes
with."""

import ast
import json
import os
import subprocess
import sys

import diffalg

PACKAGE_DIR = os.path.dirname(diffalg.__file__)


def _module_trees():
    """(file name, syntax tree) of every package module."""
    for filename in sorted(os.listdir(PACKAGE_DIR)):
        if filename.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, filename), encoding="utf-8") as fh:
                yield filename, ast.parse(fh.read(), filename)


def test_every_export_resolves():
    missing = [name for name in diffalg.__all__ if not hasattr(diffalg, name)]
    assert missing == []
    assert len(set(diffalg.__all__)) == len(diffalg.__all__)


def test_no_module_imports_a_private_sibling_name():
    offenders = []
    for filename, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{filename}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_only_numcore_reads_the_integer_form_of_a_poly():
    # a Poly is content times primitive integers; every other module reads
    # it through numcore's public functions
    offenders = []
    for filename, tree in _module_trees():
        if filename == "numcore.py":
            continue
        offenders += [
            f"{filename}:{node.lineno} {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("_ints", "_cn", "_cd")
        ]
    assert offenders == []


def test_no_module_reads_the_environment():
    knobs = {"environ", "getenv"}
    offenders = []
    for filename, tree in _module_trees():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in knobs
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and any(alias.name in knobs for alias in node.names)
            ):
                offenders.append(f"{filename}:{node.lineno}")
    assert offenders == []


def test_cli_runs_no_substitution():
    offenders = []
    for filename, tree in _module_trees():
        if filename != "cli.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name.startswith("verify_") or name in ("reconstruct", "_verify_space"):
                    offenders.append(f"{filename}:{node.lineno} {name}")
    assert offenders == []


def test_cli_import_loads_no_unused_stdlib_modules(tmp_path):
    # a fresh interpreter without site-packages, whose .pth files may import
    # typing first, imports the CLI and answers one query and then a one-line
    # batch through main; traceback loads only for an internal error, a batch
    # starts no thread, and the command line is read without argparse (whose
    # help formatting loads shutil, bz2 and lzma)
    batch = tmp_path / "one.jsonl"
    batch.write_text(json.dumps({"subcommand": "da-hypergeom", "b": "x"}) + "\n")
    code = (
        "import sys; before = set(sys.modules); import diffalg.cli; "
        "code = diffalg.cli.main(['solve-scalar', '--coeffs', '-1;1', '--rhs', '1/x']); "
        "code += diffalg.cli.main(['batch', sys.argv[1]]); "
        "print(code, *sorted(set(sys.modules) - before))"
    )
    src = os.path.dirname(PACKAGE_DIR)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    report, line_report, modules = subprocess.run(
        [sys.executable, "-S", "-c", code, str(batch)], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert json.loads(report)["verdict"] == "NO_SOLUTION"
    assert json.loads(line_report)["verdict"] == "DIFFERENTIALLY_TRANSCENDENTAL"
    code, *out = modules.split()
    assert code == "0"
    assert "diffalg.cli" in out
    heavy = {
        "dataclasses", "inspect", "typing", "traceback", "concurrent.futures",
        "argparse", "gettext", "locale", "shutil", "threading", "logging", "queue",
    }
    assert sorted(heavy.intersection(out)) == []
