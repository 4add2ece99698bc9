"""The package's public names all resolve, so a deletion cannot leave a stale
export behind; no module reaches into a sibling's private helpers or into
the integer form of a ``Poly`` outside ``numcore``; the parser imports no
solver; ``dispersion`` imports no prime, since ``numcore`` alone picks the
moduli of the gap scans; no module reads the environment, so every setting
is an option or an argument; the CLI substitutes nothing, since each
procedure checks the certificate it makes; ``criteria`` calls no public solver; a cold CLI query
or batch loads only the modules it computes with; the test oracles take no
pipeline stage from the package, and the parser's oracle nothing but the
parser; and no module imports a name it never reads.

A public solver substitutes the space it returns; a criteria procedure
solves through the cores and substitutes only the certificate it publishes.
"""

import ast
import importlib
import inspect
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


def test_oracle_takes_no_pipeline_stage():
    # tests/oracle.py checks the solvers from outside: from diffalg it may
    # take record types and numcore arithmetic, but no private name, no
    # function of the solver, and neither orbit_gaps nor radical
    with open(os.path.join(os.path.dirname(__file__), "oracle.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            offenders += [f"{node.lineno} {a.name}" for a in node.names if a.name.split(".")[0] == "diffalg"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "diffalg":
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(module, alias.name)
                if (
                    alias.name.startswith("_")
                    or alias.name in ("orbit_gaps", "radical")
                    or (inspect.isfunction(obj) and obj.__module__ == "diffalg.solver")
                ):
                    offenders.append(f"{node.lineno} {alias.name}")
    assert offenders == []


def test_parser_oracle_takes_only_the_parser():
    # tests/test_parser_oracle.py checks parsing against sympy; from diffalg
    # it may import parsing and nothing else
    with open(os.path.join(os.path.dirname(__file__), "test_parser_oracle.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert sorted(m for m in modules if m.split(".")[0] == "diffalg") == ["diffalg.parsing"]


def test_parsing_imports_no_solver():
    # the parser builds polynomials, rational functions and matrices: it
    # reads numcore, linalg (for MatrixRF) and errors, and no procedure
    modules = {
        node.module
        for filename, tree in _module_trees()
        if filename == "parsing.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    }
    assert modules == {"numcore", "linalg", "errors"}


def test_dispersion_imports_no_prime():
    # numcore alone picks the prime of a modular image (``scan_images``)
    names = [
        alias.name
        for filename, tree in _module_trees()
        if filename == "dispersion.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "numcore"
        for alias in node.names
    ]
    assert "scan_images" in names
    assert [name for name in names if "prime" in name.lower()] == []


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


def test_criteria_solves_through_the_cores():
    # a public solver would substitute a space the procedure substitutes
    # again as its certificate
    offenders = []
    for filename, tree in _module_trees():
        if filename != "criteria.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in ("solve_scalar", "solve_first_order", "solve_system"):
                    offenders.append(f"{filename}:{node.lineno} {name}")
    assert offenders == []


def test_cli_import_loads_no_unused_stdlib_modules(tmp_path):
    # a fresh interpreter without site-packages, whose .pth files may import
    # typing first, imports the CLI and answers one query and then a one-line
    # batch through main; traceback loads only for an internal error, a batch
    # starts no thread, and the command line is read without argparse (whose
    # help formatting loads shutil, bz2 and lzma).  Nothing it imports
    # registers an atexit callback: the CLI process ends with os._exit,
    # which would skip any callback a future import registered
    batch = tmp_path / "one.jsonl"
    batch.write_text(json.dumps({"subcommand": "da-hypergeom", "b": "x"}) + "\n")
    code = (
        "import atexit, sys; before = set(sys.modules); import diffalg.cli; "
        "code = diffalg.cli.main(['solve-scalar', '--coeffs', '-1;1', '--rhs', '1/x']); "
        "code += diffalg.cli.main(['batch', sys.argv[1]]); "
        "print(code, atexit._ncallbacks(), *sorted(set(sys.modules) - before))"
    )
    src = os.path.dirname(PACKAGE_DIR)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    report, line_report, modules = subprocess.run(
        [sys.executable, "-S", "-c", code, str(batch)], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert json.loads(report)["verdict"] == "NO_SOLUTION"
    assert json.loads(line_report)["verdict"] == "DIFFERENTIALLY_TRANSCENDENTAL"
    code, callbacks, *out = modules.split()
    assert (code, callbacks) == ("0", "0")
    assert "diffalg.cli" in out
    heavy = {
        "dataclasses", "inspect", "typing", "traceback", "concurrent.futures",
        "argparse", "gettext", "locale", "shutil", "threading", "logging", "queue",
    }
    assert sorted(heavy.intersection(out)) == []


def test_no_module_imports_an_unread_name():
    # every package module but __init__.py, which re-exports, and every test
    # module; a test module's import counts as read when another test module
    # imports that name from it, as the tests do from conftest
    tests_dir = os.path.dirname(__file__)
    trees = []
    for prefix, directory in (("diffalg.", PACKAGE_DIR), ("", tests_dir)):
        for filename in sorted(os.listdir(directory)):
            if filename.endswith(".py") and filename != "__init__.py":
                with open(os.path.join(directory, filename), encoding="utf-8") as fh:
                    trees.append((prefix + filename[:-3], ast.parse(fh.read(), filename)))
    imported_from = {
        (node.module, alias.name)
        for module, tree in trees
        if not module.startswith("diffalg.")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    offenders = []
    for module, tree in trees:
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            offenders += [
                f"{module}:{node.lineno} {name}"
                for name in names
                if name not in read and (module, name) not in imported_from
            ]
    assert offenders == []
