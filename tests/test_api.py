"""The public surface: each module's __all__ and the package's re-exports agree,
and the names and attributes the benchmark reaches by attribute exist."""

import ast
import types
from fractions import Fraction
from pathlib import Path

import pytest

import cutchains
from cutchains import counting, cuts, enumeration, matrices

MODULES = [counting, cuts, enumeration, matrices]
BENCHMARK_RUNNER = Path(__file__).resolve().parent.parent / "cutbench" / "run.py"


def reexported(module):
    """The names of module.__all__ that the package re-exports: all but constants."""
    return {name for name in module.__all__ if not name.isupper()}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_exist(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_package_reexports_module_names(module):
    for name in reexported(module):
        assert getattr(cutchains, name, None) is getattr(module, name), name


def test_package_exports_nothing_else():
    public = {
        name
        for name, value in vars(cutchains).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set().union(*map(reexported, MODULES))


def benchmark_inner_calls():
    """The (module, attr) pairs of the benchmark runner's INNER_CALLS, read
    from its source without importing it."""
    for node in ast.parse(BENCHMARK_RUNNER.read_text(encoding="utf-8")).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["INNER_CALLS"]:
            return [entry[:2] for entry in ast.literal_eval(node.value)]
    raise AssertionError(f"no INNER_CALLS in {BENCHMARK_RUNNER}")


def test_benchmark_wrapped_names_exist():
    # the traced benchmark wraps each of these by getattr, and its classify
    # workloads call the two Classification methods
    calls = benchmark_inner_calls()
    assert calls
    names = [*calls, ("cuts", "Classification.to_json_list"), ("cuts", "Classification.__len__")]
    missing = []
    for module, dotted in names:
        target = getattr(cutchains, module)
        for attr in dotted.split("."):
            target = getattr(target, attr, None)
        if not callable(target):
            missing.append(f"{module}.{dotted}")
    assert missing == []


def test_benchmark_read_surface_exists():
    # the benchmark checks a classification by reading these attributes off it
    rows = [["0.5", "0"], ["1", "0.5"]], [["0.7", "0"], ["1", "0.7"]]
    result = cutchains.classify_corpus(cutchains.FuzzyMatrix.from_rows(r) for r in rows)
    (klass,) = result.classes
    assert list(klass.members) == [0, 1]
    assert list(klass.representative.values()) == [Fraction(1, 2), 0, 1, Fraction(1, 2)]
    sig = klass.signature
    assert [cut.bits for cut in sig.cuts] == ["0010", "1011"]
    assert (sig.order, sig.k, sig.o_rooted, sig.j_rooted) == (2, 1, False, False)
