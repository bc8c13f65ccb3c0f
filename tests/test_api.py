import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import qrl
from qrl.agent import run_lockstep
from qrl.cli import _RUN_KEYS

SRC = Path(qrl.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from qrl import *", namespace)  # raises AttributeError on a stale __all__ entry
    assert all(hasattr(qrl, name) for name in qrl.__all__)
    assert set(qrl.__all__) <= namespace.keys()


def test_public_names_are_pinned():
    # A public name is added or removed only by editing this list too.
    assert qrl.__all__ == [
        "AlgorithmParams",
        "Channel",
        "EnsembleConfig",
        "EnsembleStats",
        "IterationRecord",
        "emit_csv",
        "emit_svg",
        "mix_seed",
        "read_csv",
        "run_ensemble",
        "run_realization",
    ]


def test_modules_are_pinned():
    # A module is added or removed only by editing this list too.
    assert sorted(path.name for path in SRC.glob("*.py")) == [
        "__init__.py", "agent.py", "channels.py", "cli.py", "ensemble.py", "output.py",
    ]


def test_option_surface_is_pinned():
    # A run flag, sweep key, learning parameter or run_realization option is added only by editing these too.
    assert list(_RUN_KEYS) == [
        "noise", "ttau", "tdec", "reward", "punish", "iters", "realizations", "seed",
        "dual_basis", "out",
    ]
    assert [field.name for field in dataclasses.fields(qrl.AlgorithmParams)] == [
        "reward_rate", "punish_rate", "iterations",
    ]
    assert list(inspect.signature(qrl.run_realization).parameters) == ["channel", "params", "seed"]
    # The engine yields its blocks: cells carry their seeds, and nothing is folded through a callback.
    assert list(inspect.signature(run_lockstep).parameters) == ["cells", "params", "dual_basis"]
    assert inspect.isgeneratorfunction(run_lockstep)


def test_no_source_line_is_longer_than_115_characters():
    lengths = {f"{path.name}:{number}": len(line) for path in sorted(SRC.glob("*.py"))
               for number, line in enumerate(path.read_text().splitlines(), start=1)}
    assert {where: length for where, length in lengths.items() if length > 115} == {}


def unused_imports(source: str) -> list[str]:
    """Names a module imports (``from __future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_import_check_flags_a_leftover_name():
    assert unused_imports("from dataclasses import dataclass, field\n@dataclass\nclass A: pass\n") == [
        "field"
    ]
    assert unused_imports("import numpy as np\nimport os.path\nx = np.pi + os.sep\n") == []


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports names only to re-export them.
    modules = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
    modules += sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])
    assert modules
    assert {path.name: unused_imports(path.read_text()) for path in modules} == {
        path.name: [] for path in modules
    }


def public_definitions(source: str) -> list[str]:
    """Names of the public functions and classes a module defines at top level."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def referenced_names(source: str) -> set[str]:
    """Every name a module reads, bare or as an attribute; an import alone reads none."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.Name, ast.Attribute))}


def test_reference_check_flags_a_name_only_an_import_mentions():
    assert public_definitions("def used(): pass\nclass Unused: pass\ndef _hidden(): pass\nx = 1\n") == [
        "used", "Unused"
    ]
    assert referenced_names("from m import Unused\nused()\nm.other = x\n") == {"used", "m", "other", "x"}


def test_every_public_definition_is_used_outside_the_tests():
    # A public function or class that only the tests call belongs in tests/oracles.py.
    modules = sorted(SRC.glob("*.py"))
    readers = [*modules, *(ROOT / "demos").glob("*.py")]
    used = set().union(*(referenced_names(path.read_text()) for path in readers))
    defined = {name: path.name for path in modules for name in public_definitions(path.read_text())}
    assert defined
    assert {name: where for name, where in defined.items() if name not in used} == {}


def qrl_imports(source: str) -> list[str]:
    """Names a module imports from ``qrl``, a whole module by its dotted name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.partition(".")[0] == "qrl"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "qrl":
            found += [alias.name for alias in node.names]
    return found


def test_qrl_import_check_lists_names_and_modules():
    source = "import qrl.agent\nimport numpy\nfrom qrl.channels import Channel, pure_prob_zero\nfrom os import sep\n"
    assert qrl_imports(source) == ["qrl.agent", "Channel", "pure_prob_zero"]


def test_the_oracle_takes_no_p_zero_code_from_qrl():
    # The oracle evaluates P(0) from the density matrix alone, so it catches a fault in the closed form.
    source = (ROOT / "tests" / "oracles.py").read_text()
    assert sorted(qrl_imports(source)) == [
        "AlgorithmParams", "Channel", "EXCITED", "GROUND", "IDENTITY", "IterationRecord", "_number",
    ]
    assert {"pure_prob_zero", "prob_zero_terms"}.isdisjoint(referenced_names(source))


FILE_METHODS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def file_calls(source: str) -> list[str]:
    """Each call of ``open`` (built-in or method), of a ``Path`` read or write and of ``os.replace``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Name) and func.id == "open":
            found.append("open")
        elif isinstance(func, ast.Attribute) and (func.attr in FILE_METHODS or ast.unparse(func) == "os.replace"):
            found.append(ast.unparse(func))
    return found


def test_file_call_check_flags_open_and_replace():
    source = "with open(p) as f: pass\nPath(p).open('w')\nos.replace(a, b)\ntext.replace('a', 'b')\n"
    assert sorted(file_calls(source)) == ["Path(p).open", "open", "os.replace"]
    source = "Path(p).read_text()\np.read_bytes()\np.write_text(s)\np.write_bytes(b)\nread_text(p)\n"
    assert sorted(file_calls(source)) == ["Path(p).read_text", "p.read_bytes", "p.write_bytes", "p.write_text"]


def test_only_output_opens_or_replaces_files():
    # output.check_destination decides which paths may be written, and output.check_source which
    # may be read, so every read and write goes through output.
    others = sorted(path for path in SRC.glob("*.py") if path.name != "output.py")
    assert file_calls((SRC / "output.py").read_text())
    assert {path.name: file_calls(path.read_text()) for path in others} == {path.name: [] for path in others}


def rng_calls(source: str) -> list[str]:
    """The function (dotted from module level) around each ``default_rng`` call; "" at module level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
                continue
            func = child.func if isinstance(child, ast.Call) else None
            if getattr(func, "attr", getattr(func, "id", None)) == "default_rng":
                found.append(where)
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_rng_call_check_names_the_enclosing_function():
    source = ("rng = np.random.default_rng(1)\nclass A:\n    def f(self):\n"
              "        def g(): return [default_rng(s) for s in seeds]\n        return np.random.rand()\n")
    assert rng_calls(source) == ["", "A.f.g"]


def test_only_the_engine_creates_generators():
    # The frozen draw order is encoded once, in run_lockstep's cursors; nothing replays it.
    calls = {path.name: rng_calls(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in calls.items() if found} == {"agent.py": ["run_lockstep"]}


# Prints OPENBLAS_NUM_THREADS and the OS thread count right after ``import qrl``.
THREAD_PROBE = """
import json, os, qrl
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), tasks]))
"""


def import_qrl_fresh(openblas_threads):
    """``OPENBLAS_NUM_THREADS`` and the thread count (None without /proc) after a fresh ``import qrl``."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    result = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env, capture_output=True,
                            text=True, timeout=30, check=True)
    return json.loads(result.stdout)


def test_import_starts_no_blas_thread():
    # Every BLAS call qrl makes is 2x2, so importing qrl first keeps OpenBLAS from starting a pool.
    variable, tasks = import_qrl_fresh(None)
    assert variable == "1"
    assert tasks in (None, 1)


def test_import_keeps_a_preset_blas_thread_count():
    assert import_qrl_fresh("2")[0] == "2"
