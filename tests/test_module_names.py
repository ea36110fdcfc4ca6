"""Every global name the package's code loads resolves when the code runs.

A name that no module defines or imports raises ``NameError`` only on the
branch that loads it, so a branch no other test reaches can hide one.  This
walks the compiled code of each module instead of running it.  The demos'
imports from the package are resolved from their syntax trees, also without
running them, so removing a public name cannot silently break a demo.
"""

import ast
import builtins
import dis
import importlib
from pathlib import Path

import cmaqf


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _code_objects(const)


def unresolved_globals(path: Path, namespace: dict) -> list[str]:
    """``"<code name>: <name>"`` for each loaded global found in neither ``namespace`` nor builtins."""
    top = compile(path.read_text(), str(path), "exec")
    missing = []
    for code in _code_objects(top):
        instrs = list(dis.get_instructions(code))
        # a class body loads its own earlier assignments with LOAD_NAME
        local = {i.argval for i in instrs if i.opname == "STORE_NAME"}
        for ins in instrs:
            if ins.opname not in ("LOAD_GLOBAL", "LOAD_NAME"):
                continue
            name = ins.argval
            if name in namespace or hasattr(builtins, name):
                continue
            if ins.opname == "LOAD_NAME" and name in local:
                continue
            missing.append(f"{code.co_qualname}: {name}")
    return sorted(set(missing))


def test_every_loaded_global_resolves():
    src = Path(cmaqf.__file__).parent
    missing = []
    for path in sorted(src.glob("*.py")):
        module = "cmaqf" if path.stem == "__init__" else f"cmaqf.{path.stem}"
        namespace = vars(importlib.import_module(module))
        missing += [f"{path.stem}.{entry}" for entry in unresolved_globals(path, namespace)]
    assert missing == []


def test_demo_imports_resolve():
    demos = Path(__file__).resolve().parent.parent / "demos"
    paths = sorted(demos.glob("*.py"))
    assert paths
    missing = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "cmaqf":
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert missing == []
