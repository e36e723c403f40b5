"""The public surface: each module's __all__ and the package's re-exports agree,
the names and attributes the benchmark reaches by attribute exist, the value
classes behave as frozen values, and importing the package stays light: each
submodule, and each CLI command's modules, load only when first used."""

import ast
import copy
import json
import os
import pickle
import subprocess
import sys
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
    # read off __all__ and dir(), not vars(): a name is bound in the package only
    # once it is first read, so vars() would depend on what earlier tests read
    names = set().union(*map(reexported, MODULES))
    assert sorted(cutchains.__all__) == sorted(names)
    public = {
        name
        for name in dir(cutchains)
        if not name.startswith("_") and not isinstance(getattr(cutchains, name), types.ModuleType)
    }
    assert public == names


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


def run_fresh(script: str) -> str:
    """The stdout of script, run in a fresh interpreter that imports the same
    package as this process, installed or not; the script must succeed and
    write nothing to stderr."""
    package_root = str(Path(cutchains.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    return result.stdout


# an expression for the package's submodules a process has loaded, sorted
LOADED = "sorted(m for m in sys.modules if m.startswith('cutchains.'))"


def test_import_loads_no_dataclasses():
    # dataclasses (and the inspect module it imports) cost a CLI run about
    # 15 ms of start-up; the value classes below are written out instead
    script = "import sys, cutchains, cutchains.cli; print('dataclasses' in sys.modules)"
    assert run_fresh(script) == "False\n"


def test_import_loads_no_submodule():
    # each submodule costs a process its compile time when no bytecode is
    # cached; listing the package's names must not load them either
    script = (
        "import json, sys, cutchains\n"
        "names = dir(cutchains)\n"
        f"print(json.dumps([{LOADED}, sorted(set(cutchains.__all__) - set(names))]))"
    )
    assert json.loads(run_fresh(script)) == [[], []]


COUNTING_MODULES = ["cutchains.cli", "cutchains.counting", "cutchains.matrices"]
CUTS_MODULES = ["cutchains.cli", "cutchains.cuts", "cutchains.matrices"]
ENUMERATION_MODULES = [
    "cutchains.cli", "cutchains.counting", "cutchains.enumeration", "cutchains.matrices"
]

# each CLI command, run on a tiny job, and the submodules a process running it loads
COMMAND_MODULES = [
    (["count", "--n", "2"], COUNTING_MODULES),
    (["table", "--max-n", "2"], COUNTING_MODULES),
    (["sequence", "--max-n", "2"], COUNTING_MODULES),
    (["enumerate", "--m", "3", "--k", "1"], ENUMERATION_MODULES),
    (["lattice", "--m", "2"], ENUMERATION_MODULES),
    (["classify", "--input", "{a}"], CUTS_MODULES),
    (["signature", "--input", "{a}"], CUTS_MODULES),
    (["equivalent", "{a}", "{b}"], CUTS_MODULES),
]


@pytest.mark.parametrize("argv, modules", COMMAND_MODULES, ids=[c[0][0] for c in COMMAND_MODULES])
def test_command_loads_only_its_modules(tmp_path, argv, modules):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("0 1/2\n0.25 1\n", encoding="utf-8")
    b.write_text("0 1/3\n0.2 1\n", encoding="utf-8")
    argv = [arg.format(a=a, b=b) for arg in argv]
    script = (
        "import json, sys, cutchains.cli\n"
        f"code = cutchains.cli.main({argv!r})\n"
        f"print(json.dumps([code, {LOADED}]))"
    )
    assert json.loads(run_fresh(script).splitlines()[-1]) == [0, modules]


def test_submodules_resolve_after_benchmark_import():
    # the benchmark imports cutchains and cutchains.cli, then reads the four
    # submodules as attributes of the package
    script = (
        "import sys, cutchains, cutchains.cli\n"
        "for name in ('counting', 'cuts', 'enumeration', 'matrices'):\n"
        "    module = getattr(cutchains, name)\n"
        "    print(name, module is sys.modules['cutchains.' + name])"
    )
    assert run_fresh(script) == "counting True\ncuts True\nenumeration True\nmatrices True\n"


def test_star_import_binds_each_name_to_its_module_object():
    script = (
        "import json\n"
        "from cutchains import *\n"
        "from cutchains import __all__ as names, counting, cuts, enumeration, matrices\n"
        "wrong = []\n"
        "for name in names:\n"
        "    owners = [m for m in (counting, cuts, enumeration, matrices) if name in m.__all__]\n"
        "    if not owners or any(globals().get(name) is not getattr(m, name) for m in owners):\n"
        "        wrong.append(name)\n"
        "print(json.dumps([len(names), wrong]))"
    )
    assert json.loads(run_fresh(script)) == [len(cutchains.__all__), []]


def test_unknown_name_raises_attribute_error():
    script = (
        "import json, sys, cutchains\n"
        "try:\n"
        "    cutchains.nope\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        f"print(json.dumps([hasattr(cutchains, 'nope'), {LOADED}]))"
    )
    assert run_fresh(script) == "module 'cutchains' has no attribute 'nope'\n[false, []]\n"


SIGNATURE = cutchains.ChainSignature(2, (0b0001, 0b1011))
REPRESENTATIVE = cutchains.FuzzyMatrix(
    2, ((Fraction(1), Fraction(1, 2)), (Fraction(0), Fraction(1, 2)))
)
CLASS = cutchains.EquivalenceClass(SIGNATURE, REPRESENTATIVE, (0, 3))

# each value class, keyword arguments for one instance, and that instance's repr
VALUES = [
    (cutchains.CrispMatrix, {"order": 2, "mask": 0b1001}, "CrispMatrix(2, '1001')"),
    (
        cutchains.FuzzyMatrix,
        {"order": 2, "entries": REPRESENTATIVE.entries},
        "FuzzyMatrix(2, [1 0.5; 0 0.5])",
    ),
    (
        cutchains.SizeVector,
        {"cell_count": 4, "sizes": (0, 2, 4)},
        "SizeVector(cell_count=4, sizes=(0, 2, 4))",
    ),
    (
        cutchains.CountRow,
        {"n": 1, "counts": (2, 1), "total": 3},
        "CountRow(n=1, counts=(2, 1), total=3)",
    ),
    (
        cutchains.CountTable,
        {"rows": cutchains.count_table(1).rows, "root": "O"},
        "CountTable(rows=(CountRow(n=0, counts=(1,), total=1), "
        "CountRow(n=1, counts=(2, 1), total=3)), root='O')",
    ),
    (
        cutchains.CutChain,
        {"order": 2, "levels": (Fraction(1), Fraction(1, 2)), "masks": (0b0001, 0b1011)},
        "CutChain(order=2, levels=(Fraction(1, 1), Fraction(1, 2)), masks=(1, 11))",
    ),
    (
        cutchains.ChainSignature,
        {"order": 2, "masks": (0b0001, 0b1011)},
        "ChainSignature(order=2, masks=(1, 11))",
    ),
    (
        cutchains.EquivalenceClass,
        {"signature": SIGNATURE, "representative": REPRESENTATIVE, "members": (0, 3)},
        "EquivalenceClass(signature=ChainSignature(order=2, masks=(1, 11)), "
        "representative=FuzzyMatrix(2, [1 0.5; 0 0.5]), members=(0, 3))",
    ),
    (
        cutchains.Classification,
        {"order": 2, "classes": (CLASS,)},
        "Classification(order=2, classes=(EquivalenceClass(signature=ChainSignature("
        "order=2, masks=(1, 11)), representative=FuzzyMatrix(2, [1 0.5; 0 0.5]), "
        "members=(0, 3)),))",
    ),
    (
        cutchains.ChainRecord,
        {"cell_count": 4, "components": (0b0001, 0b0011)},
        "ChainRecord(cell_count=4, components=(1, 3))",
    ),
    (cutchains.HasseDiagram, {"cell_count": 3}, "HasseDiagram(cell_count=3)"),
]


@pytest.mark.parametrize("cls, fields, shown", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_class_protocol(cls, fields, shown):
    value = cls(**fields)
    twin = cls(*fields.values())
    assert cls.__slots__ == tuple(fields)
    assert [getattr(value, name) for name in fields] == list(fields.values())
    assert value == twin and hash(value) == hash(twin)
    assert repr(value) == shown

    other = type("Other", (cls,), {"__slots__": ()})(**fields)
    assert value.__eq__(other) is NotImplemented
    assert value != other and other != value

    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == twin and not hasattr(value, "__dict__")

    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is cls and clone == value and hash(clone) == hash(value)
