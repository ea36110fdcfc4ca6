"""Every global name the package's code loads resolves when the code runs.

A name that no module defines or imports raises ``NameError`` only on the
branch that loads it, so a branch no other test reaches can hide one.  This
walks the compiled code of each module instead of running it.  The demos'
imports from the package are resolved from their syntax trees, also without
running them, so removing a public name cannot silently break a demo.  The
benchmark's references into the package (attribute chains on ``cmaqf`` and
its modules, and the entry points its tracer patches by name) are resolved
the same way, so a rename shows up here and not first in a benchmark run.
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


def _package_bindings(tree) -> dict:
    """Names an ``import cmaqf...`` or ``from cmaqf... import`` statement binds, with their objects."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "cmaqf":
                    module = importlib.import_module(alias.name)  # loads the submodule onto the package
                    bound[alias.asname or "cmaqf"] = module if alias.asname else cmaqf
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "cmaqf":
            module = importlib.import_module(node.module)
            for alias in node.names:
                bound[alias.asname or alias.name] = getattr(module, alias.name, None)
    return bound


def _attribute_chain(node):
    """``(root name, [attr, ...])`` of ``a.b.c``, or ``None``."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return (node.id, attrs[::-1]) if isinstance(node, ast.Name) else None


def test_benchmark_references_resolve():
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    paths = sorted(bench.glob("*.py")) + sorted(bench.glob("tests/*.py"))
    assert paths
    missing = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        bound = _package_bindings(tree)
        missing += [f"{path.name}: {name}" for name, obj in bound.items() if obj is None]
        for node in ast.walk(tree):
            chain = _attribute_chain(node) if isinstance(node, ast.Attribute) else None
            if chain is None or chain[0] not in bound or bound[chain[0]] is None:
                continue
            obj = bound[chain[0]]
            for attr in chain[1]:
                if not hasattr(obj, attr):
                    missing.append(f"{path.name}: {'.'.join([chain[0], *chain[1]])}")
                    break
                obj = getattr(obj, attr)
        # the tracer patches entry points named by string tables: (module, function) pairs and levy classes
        for node in tree.body:
            targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
            if targets not in (["FUNCTIONS"], ["LEVY_CLASSES"]):
                continue
            for entry in ast.literal_eval(node.value):
                mod_name, name = entry if isinstance(entry, tuple) else ("levy", entry)
                if not hasattr(importlib.import_module(f"cmaqf.{mod_name}"), name):
                    missing.append(f"{path.name}: cmaqf.{mod_name}.{name}")
    assert sorted(set(missing)) == []


def _module_definitions(tree) -> dict:
    """Private functions and classes and upper-case constants a module defines at top level, with their nodes."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_") and not node.name.startswith("__"):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id.lstrip("_").isupper():
                        defs[name.id] = node
    return defs


def test_every_private_helper_and_constant_is_used():
    src = Path(cmaqf.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    dead = []
    for stem, tree in trees.items():
        for name, definition in _module_definitions(tree).items():
            inside = {id(n) for n in ast.walk(definition)}
            used = any(
                id(node) not in inside
                and ((isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name) or (isinstance(node, ast.Attribute) and node.attr == name))
                for other in trees.values()
                for node in ast.walk(other)
            )
            if not used:
                dead.append(f"{stem}.{name}")
    assert dead == []


# Where a sampled tail may be fitted or a truncated lag sum completed: the tails
# module itself (its radius loop, ``grow_lags``, serves every adaptive lag sum),
# the kernel table and grid fits, the norm of a given sequence and the lattice
# tail of a period integral.
TAIL_CALLERS = {
    ("kernels", "_fit_table_tail"),
    ("kernels", "grid_sample"),
    ("conditions", "lp_norm_sequence"),
    ("quadrature", "phase_integral"),
}


def _calls(tree, callees) -> set[tuple[str, str]]:
    """``(top-level definition, callee)`` for each call in ``tree`` of a function named in ``callees``."""
    found = set()
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in callees:
                found.add((getattr(top, "name", "<module>"), name))
    return found


def test_lag_tails_are_fitted_and_completed_in_one_place():
    src = Path(cmaqf.__file__).parent
    stray = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "tails":
            continue
        for where, name in _calls(ast.parse(path.read_text(), str(path)), ("fit_tail", "lattice_tail_sum")):
            if (path.stem, where) not in TAIL_CALLERS:
                stray.append(f"{path.stem}.{where} calls {name}")
    assert stray == [], "grow a truncated lag sum with tails.grow_lags instead"


# Where a lag product is integrated: lag covariances run one quadrature per lag only in
# covariance_lags, through its cache; the L^4 check keeps the tail bound of its norm, and the
# simulated paths measure the kernel mass their window leaves out.
PRODUCT_CALLERS = {
    ("covariance", "_cached_product", "product_integral"),
    ("covariance", "covariance_lags", "_cached_product"),
    ("conditions", "_l4_check", "product_integral"),
    ("simulate", "resolve_horizon", "product_integral"),
    ("simulate", "_simulate", "product_integral"),
}


def test_lag_products_are_integrated_in_one_place():
    src = Path(cmaqf.__file__).parent
    callers = {
        (path.stem, where, name)
        for path in sorted(src.glob("*.py"))
        for where, name in _calls(ast.parse(path.read_text(), str(path)), ("product_integral", "_cached_product"))
    }
    assert callers == PRODUCT_CALLERS, "read lag covariances with covariance.covariance_lags"


def _doublings(tree) -> list[int]:
    """Line numbers of the augmented doublings ``x *= 2`` (or ``2.0``) in ``tree``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.AugAssign)
        and isinstance(node.op, ast.Mult)
        and isinstance(node.value, ast.Constant)
        and node.value.value == 2
    ]


def test_radii_are_doubled_in_one_place():
    # tails.grow_lags grows the windows that data decide, tails.grow_radius those that decay models decide
    src = Path(cmaqf.__file__).parent
    stray = [
        f"{path.stem}:{line}"
        for path in sorted(src.glob("*.py"))
        if path.stem != "tails"
        for line in _doublings(ast.parse(path.read_text(), str(path)))
    ]
    assert stray == [], "grow a model-driven window with tails.grow_radius"


def _import_time_scipy(tree) -> list[int]:
    """Line numbers of the ``import scipy…`` and ``from scipy…`` that run when ``tree``'s module is imported."""
    found, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # a function body imports when called
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_scipy_is_imported_only_inside_functions():
    # import cmaqf loads numpy alone; scipy.linalg loads on the first call that needs it
    src = Path(cmaqf.__file__).parent
    stray = [
        f"{path.stem}:{line}"
        for path in sorted(src.glob("*.py"))
        for line in _import_time_scipy(ast.parse(path.read_text(), str(path)))
    ]
    assert stray == [], "import scipy inside the function that uses it"


TAIL_MODELS = {"PowerTail", "ExpTail", "CompactTail"}


def _tail_class_tests(tree) -> list[int]:
    """Line numbers of the ``isinstance`` calls in ``tree`` that test for a tail model class."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and any(getattr(n, "id", getattr(n, "attr", None)) in TAIL_MODELS for n in ast.walk(node.args[1]))
    ]


def test_tail_models_are_inspected_in_one_place():
    # tails.decay_exponent reads a model's exponent (inf when faster than any power), tails transforms it
    src = Path(cmaqf.__file__).parent
    stray = [
        f"{path.stem}:{line}"
        for path in sorted(src.glob("*.py"))
        if path.stem != "tails"
        for line in _tail_class_tests(ast.parse(path.read_text(), str(path)))
    ]
    assert stray == [], "read exponents with tails.decay_exponent"


def _fft_calls(tree) -> set[str]:
    """Top-level definitions in ``tree`` that call an ``rfft`` or ``irfft``."""
    return {
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("rfft", "irfft")
    }


def test_real_ffts_are_called_in_one_routine():
    src = Path(cmaqf.__file__).parent
    callers = {(path.stem, where) for path in sorted(src.glob("*.py")) for where in _fft_calls(ast.parse(path.read_text(), str(path)))}
    # one FFT routine serves every convolution by FFT: paths, compute_qn and b * gamma
    assert callers == {("covariance", "_fft_convolve")}, "convolve with covariance._fft_convolve"


def _names(tree) -> set[str]:
    """Every identifier ``tree`` names: variables, attributes and imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
    return found


def test_lattice_combinations_are_read_in_one_place():
    # kernels._lattice_combo reads a lattice combination as (base, offsets, coefficients) for
    # lag covariances and period integrals alike; quadrature samples only the base
    src = Path(cmaqf.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    owners = {stem for stem, tree in trees.items() for node in tree.body if getattr(node, "name", None) == "_lattice_combo"}
    assert owners == {"kernels"}
    assert "LinComboKernel" not in _names(trees["quadrature"]), "read combinations with kernels._lattice_combo"
    assert {"covariance", "quadrature"} <= {stem for stem, tree in trees.items() if "_lattice_combo" in _names(tree)}


def test_pieces_are_integrated_in_one_module():
    # quadrature._pieces is the one piece loop: product integrals, period integrals and the
    # kappa4 block of Sigma hand it integrands and never run Simpson themselves
    src = Path(cmaqf.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(src.glob("*.py"))}
    users = {stem for stem, tree in trees.items() if _names(tree) & {"_simpson", "_block", "_graded"}}
    assert users == {"quadrature"}, "integrate through quadrature's piece loop"


def test_absolute_kernels_are_built_by_the_condition_checks():
    # |phi| and the envelope |b| * |phi| are built once per check, in conditions; no other module wraps
    # a kernel in its absolute value, so no lattice reading needs to unwrap one
    src = Path(cmaqf.__file__).parent
    callers = {
        path.stem
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "PowAbsKernel"
    }
    assert callers == {"conditions"}, "build absolute kernels in the condition checks"
