"""The public names of the package resolve, and the traced entry points stay put.

The benchmark's layer tracer wraps module-level public functions (and the
``Matrix`` rank and kernel methods) by name; a name that moves or becomes
an alias would silently read as zero calls.
"""

import ast
import importlib.util
import inspect
import pkgutil
from importlib import import_module
from pathlib import Path

import pytest

import multiarr
import oracles
from multiarr import arr3, multiarr2
from multiarr.exactalg import GF, QQ, FpElement

LAYER_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layer_trace.py"

MODULES = ("exactalg", "multiarr2", "lattice", "shift", "arr3", "corpus", "acceptance", "cli", "stats")

TRACED_FUNCTIONS = {
    "exactalg": ("divisibility_constraints", "binary_form_divides"),
    "multiarr2": ("exponents", "basis"),
    "lattice": ("exponent_map", "verify_theorem_str"),
    "shift": ("shift_isomorphism_check", "nabla"),
    "arr3": ("ziegler_restriction", "char_poly"),
    "cli": ("load_document",),
}
TRACED_METHODS = {"exactalg": {"Matrix": ("rank", "kernel")}}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = import_module(f"multiarr.{name}")
    for attr in getattr(mod, "__all__", ()):
        assert hasattr(mod, attr), f"multiarr.{name}.__all__ lists missing {attr}"


def test_package_imports_resolve():
    tree = ast.parse(Path(multiarr.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, attr in imported:
        source = import_module(f"multiarr.{module}")
        assert getattr(multiarr, attr) is getattr(source, attr)
        assert attr in source.__all__, f"{attr} is exported by the package but not by {module}"


@pytest.mark.parametrize("layer", sorted(TRACED_FUNCTIONS))
def test_traced_functions_are_module_functions(layer):
    mod = import_module(f"multiarr.{layer}")
    for attr in TRACED_FUNCTIONS[layer]:
        fn = getattr(mod, attr)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, f"{layer}.{attr}"


def test_traced_methods_are_defined_on_their_class():
    for layer, classes in TRACED_METHODS.items():
        mod = import_module(f"multiarr.{layer}")
        for cls_name, methods in classes.items():
            for meth in methods:
                assert inspect.isfunction(getattr(mod, cls_name).__dict__.get(meth)), (
                    f"{layer}.{cls_name}.{meth}"
                )


def test_benchmark_tracer_counts_exponents_ranks_and_constraint_rows():
    spec = importlib.util.spec_from_file_location("layer_trace", LAYER_TRACE)
    layer_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layer_trace)
    arr = multiarr2.Arrangement2(QQ, [(1, 0), (0, 1), (1, 1)])
    multiarr2._unit_state.cache_clear()
    tracer = layer_trace.Tracer()
    tracer.install()
    try:
        multiarr2.exponents(arr, (2, 2, 1))
        after_exponents = tracer.metrics()
        oracles.derivation_space_dim(arr, (2, 2, 1), 2)
        after_dim = tracer.metrics()
    finally:
        tracer.restore()
    assert after_exponents["multiarr2.exponents_calls"] == 1
    assert after_exponents["exactalg.rank_calls"] == 0
    assert after_dim["exactalg.rank_calls"] == 1
    assert after_dim["exactalg.constraint_calls"] == 3  # one per line


def test_multiarr2_memos_are_bounded_or_known():
    """Every module-level memo in the package is bounded, but for GF's, kept for good."""
    unbounded = set()
    for info in pkgutil.iter_modules(multiarr.__path__):
        for v in vars(import_module(f"multiarr.{info.name}")).values():
            if hasattr(v, "cache_info") and v.cache_info().maxsize is None:
                unbounded.add(f"{v.__module__}.{v.__qualname__}")
    assert unbounded <= {"multiarr.exactalg.GF"}


def callers_of(*names) -> set:
    """The src/ modules that call a function or method of one of these names."""
    src = Path(multiarr.__file__).parent
    callers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name in names:
                    callers.add(path.stem)
    return callers


def test_only_multiarr2_builds_the_defining_form():
    """Saito's criterion has one copy: no other module checks a determinant itself."""
    assert callers_of("defining_form") == {"multiarr2"}


def test_no_module_but_exactalg_solves_a_linear_system():
    """The exponents have one route, the unit steps: only exactalg itself builds a Matrix or its constraint rows."""
    assert callers_of("Matrix", "divisibility_constraints") == {"exactalg"}


def multiarr2_calls(name: str) -> set:
    """The names that the multiarr2 function of this name calls directly."""
    tree = ast.parse((Path(multiarr.__file__).parent / "multiarr2.py").read_text(encoding="utf-8"))
    (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    return {getattr(node.func, "id", None) for node in ast.walk(fn) if isinstance(node, ast.Call)}


def test_unit_state_is_the_walk_of_one_point():
    """A single query reads no state one unit below, its own cache included: it is the walk of its point."""
    called = multiarr2_calls("_unit_state")
    assert "_walk" in called and "_unit_state" not in called


def test_walk_starts_from_the_two_line_closed_form():
    """The walk is one flat loop from the closed form: it reads no cached state and does not recurse."""
    called = multiarr2_calls("_walk")
    assert "_two_line_state" in called and not called & {"_unit_state", "_walk"}

def test_arr3_char_poly_is_the_only_chi():
    """The characteristic polynomial has one formula: no other src/ function or method is named char_poly."""
    src = Path(multiarr.__file__).parent
    defined = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "char_poly"
    ]
    assert defined == [f"arr3:{arr3.char_poly.__code__.co_firstlineno}"]


def test_no_module_runs_the_indented_json_encoder():
    """With an indent, json.dumps runs its pure-Python encoder; corpus.canonical_json writes indented JSON."""
    src = Path(multiarr.__file__).parent
    callers = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name in {"dump", "dumps", "JSONEncoder"} and any(k.arg == "indent" for k in node.keywords):
                    callers.append(f"{path.stem}:{node.lineno}")
    assert callers == []


def test_arr3_divides_no_field_scalars():
    """arr3 works on canonical ints: scalars stay at the boundary, so it has no true division."""
    tree = ast.parse((Path(multiarr.__file__).parent / "arr3.py").read_text(encoding="utf-8"))
    divisions = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    assert divisions == []


FP_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__neg__", "__pow__")


def test_fp_element_is_a_value():
    """GF(p) arithmetic runs on residues: FpElement defines no operator, and combining two raises."""
    assert [name for name in FP_OPERATORS + ("_coerce",) if name in vars(FpElement)] == []
    two = GF(5)(2)
    assert (two.val, two.p, str(two), repr(two)) == (2, 5, "2", "FpElement(2, 5)")
    assert two == GF(5)(7) and hash(two) == hash(GF(5)(7)) and not GF(5)(5)
    for combine in (lambda a: a + a, lambda a: a * 2, lambda a: 1 - a, lambda a: a / a, lambda a: -a, lambda a: a**2):
        with pytest.raises(TypeError):
            combine(two)
