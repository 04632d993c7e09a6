"""Module boundaries and import hygiene.

No module imports a private name from another: a private name shared
across modules is a decision that more than one module has to know; the
owner should expose it as a public method or function instead. And no
module, test or script imports a name it never reads.
"""

import ast
import inspect
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from wudlab import cli
from wudlab.cli import _build_parser
from wudlab.lab import SCENARIOS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wudlab"
MODULES = sorted(SRC.glob("*.py"))
# tests and scripts may import private names, but no file keeps an unread import
ALL_FILES = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _file_id(path: Path) -> str:
    return path.stem if path.parent == SRC else f"{path.parent.name}/{path.stem}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_cross_module_imports(path):
    bad = [
        f"line {node.lineno}: from {node.module} import {alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "wudlab"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not bad, f"{path.name} imports private names: {bad}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_only_stdlib_and_numpy(path):
    # numpy is the one runtime dependency; sympy and the other oracles stay in tests/
    nodes = list(ast.walk(ast.parse(path.read_text())))
    names = [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in nodes if isinstance(node, ast.ImportFrom)]
    tops = {name.partition(".")[0] for name in names}
    outside = sorted(tops - set(sys.stdlib_module_names) - {"numpy", "wudlab"})
    assert not outside, f"{path.name} imports {outside}"


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


@pytest.mark.parametrize("path", ALL_FILES, ids=_file_id)
def test_no_unread_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    if path.name == "__init__.py":
        read |= _exported(tree)
    unread = [f"line {line}: {name}" for name, line in sorted(imported.items())
              if name not in read]
    assert not unread, f"{path.name} imports names it never reads: {unread}"


# public names that only tests read, each kept for the reason given
TEST_ONLY_NAMES = {
    "ramanujan_sum": "acceptance criterion 4 and the README use the closed form",
    "eval_int": "exact Python-int evaluator, the reference oracle for eval_mod",
    "is_convenient": "the per-n convenient flag, the reference oracle for the sieve's split",
}


def _public_definitions() -> dict[str, int]:
    """Each public top-level function and class of src/wudlab, and each
    public method of a public class, with the number of its definitions."""
    counts: Counter = Counter()
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                counts[node.name] += 1
                if isinstance(node, ast.ClassDef):
                    counts.update(sub.name for sub in node.body
                                  if isinstance(sub, ast.FunctionDef)
                                  and not sub.name.startswith("_"))
    return counts


def test_every_public_name_has_a_program_reader():
    # a name that only tests call is code no program path needs; the match
    # is by whole word, strings included, so a name that tracing wraps by
    # its string counts as read
    program = "\n".join(path.read_text() for path in
                        MODULES + sorted((ROOT / "scripts").glob("*.py"))
                        + sorted((ROOT / "perfbench").glob("*.py")))
    exported = _exported(ast.parse((SRC / "__init__.py").read_text()))
    unread = sorted(name for name, n in _public_definitions().items()
                    if len(re.findall(rf"\b{name}\b", program)) <= n
                    and name not in exported)
    assert unread == sorted(TEST_ONLY_NAMES), \
        f"public names read only by tests: {sorted(set(unread) - set(TEST_ONLY_NAMES))}; " \
        f"allowed names now read by the program: {sorted(set(TEST_ONLY_NAMES) - set(unread))}"


def _dest(call: ast.Call) -> str:
    """The attribute an ``add_argument`` call stores into, as argparse names it."""
    for kw in call.keywords:
        if kw.arg == "dest":
            return kw.value.value
    names = [a.value for a in call.args if isinstance(a, ast.Constant)]
    name = next((n for n in names if n.startswith("--")), names[0])
    return name.lstrip("-").replace("-", "_")


def test_every_cli_flag_is_read():
    # a flag that is accepted and then ignored changes nothing but the user's belief
    tree = ast.parse((SRC / "cli.py").read_text())
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    dests = {_dest(node) for node in ast.walk(funcs["_build_parser"])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "add_argument"}
    scenario_flags = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "_SCENARIO_FLAGS" for t in node.targets))
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}
    unread = dests - read - scenario_flags
    assert len(dests) > 20 and not unread, f"flags accepted and never read: {sorted(unread)}"


def test_scenario_flags_and_config_keys_are_the_scenario_parameters():
    # a scenario parameter needs its flag and its INI key, and neither front
    # end accepts a name that no scenario takes
    params = {name for run in SCENARIOS.values() for name in inspect.signature(run).parameters}
    assert cli._SCENARIO_FLAGS == params
    ini_key = {param: key for key, param in cli._PARAM_NAMES.items()}
    assert cli._CONFIG_KEYS == {"scenario"} | {ini_key.get(name, name) for name in params}


def test_readme_commands_parse():
    # a documented command that no longer parses fails every reader who copies it
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("wudlab ")]
    scripts = [line.split()[1] for line in lines if line.startswith("python scripts/")]
    parser, unparsed = _build_parser(), []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            unparsed.append(argv)
    assert commands and not unparsed, f"README commands that do not parse: {unparsed}"
    assert scripts and all((ROOT / s).is_file() for s in scripts), scripts


@pytest.mark.parametrize("argv,header,last", [
    (["character_bound_sweep.py", "--limit", "27"],
     "   ell^e   #chi    max |Z|      bound saturation", "max saturation: 0.577"),
    (["mixing_ratio_table.py", "--q", "5", "7", "--jmax", "4"],
     "     q          J=2          J=4", "     7    2.000e-01    8.000e-03"),
], ids=["character_bound_sweep", "mixing_ratio_table"])
def test_scripts_run(argv, header, last):
    # the scripts read library fields that no other test reaches through them
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stderr
    assert lines[1] == header and lines[-1] == last


@pytest.mark.parametrize("argv, code, message", [
    (["character_bound_sweep.py", "--poly", "[1, -2, 1]"], 2, "repeated roots"),
    (["mixing_ratio_table.py", "--poly", "[1, -2, 1]"], 2, "repeated roots"),
    (["mixing_ratio_table.py", "--q", "4"], 2, "need odd q"),
], ids=["sweep-poly", "mixing-poly", "mixing-even-q"])
def test_scripts_bad_input_exit_code(argv, code, message):
    # a bad input is one error line and the CLI's exit code, not a traceback
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
