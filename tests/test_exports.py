"""The package's public names and what importing it loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import pytest

import cisym
from cisym.algebra import CharacterFunction, LiftPolynomial, TruncatedSeries


def test_all_lists_exactly_the_public_names_the_package_binds():
    # Read from the source, so a name dropped from a module but left in
    # __all__ or in the import list fails here rather than on first use.
    tree = ast.parse(Path(cisym.__file__).read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {name for name in bound if not name.startswith("_")}
    assert len(cisym.__all__) == len(set(cisym.__all__))
    assert set(cisym.__all__) == public
    for name in cisym.__all__:
        assert hasattr(cisym, name)


# Each kernel's own surface: its public names, and the operators it defines
# (those of the shared core, _Exact, are inherited).  A method comes back
# only by an edit here.
_KERNEL_SURFACES = {
    TruncatedSeries: (
        ["coefficient", "inverse", "one", "order", "rescaled"],
        ["__mul__", "__new__", "__pow__", "__repr__"]),
    LiftPolynomial: (
        ["constant", "is_zero", "shifted_lift"],
        ["__add__", "__mul__", "__new__", "__pow__", "__repr__", "__rmul__",
         "__sub__"]),
    CharacterFunction: (
        ["constant", "is_constant", "zero"],
        ["__add__", "__eq__", "__mul__", "__new__", "__repr__", "__rmul__"]),
}


@pytest.mark.parametrize("kernel", list(_KERNEL_SURFACES),
                         ids=lambda k: k.__name__)
def test_each_kernel_defines_exactly_its_pinned_surface(kernel):
    public, operators = _KERNEL_SURFACES[kernel]
    own = vars(kernel)
    assert sorted(n for n in own if not n.startswith("_")) == public
    assert sorted(n for n in own if n.startswith("__")
                  and isinstance(own[n], (FunctionType, staticmethod))) \
        == operators


# The private names one module of the package imports from another, as
# (importer, module, name).  A decision shared across modules comes back
# only by an edit here.
_PRIVATE_IMPORTS = {
    ("cli", "classify", "_ADMISSIBLE"),
    ("invariants", "algebra", "_unit_line_factor"),
    ("localization", "algebra", "_in_lift"),
    ("search", "algebra", "_taylor_shift"),
    ("search", "localization", "_LEMMA64_WEIGHTS"),
    ("search", "localization", "_LOCAL_DATA"),
    ("search", "localization", "_TEMPLATE_B2"),
    ("search", "localization", "_int"),
    ("search", "localization", "_p1x_local_datum"),
    ("search", "localization", "_x3_local_datum"),
}


def test_modules_import_exactly_the_pinned_private_names_of_each_other():
    found = set()
    for path in Path(cisym.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and not module.startswith("cisym"):
                continue
            found.update((path.stem, module.rpartition(".")[2], a.name)
                         for a in node.names if a.name.startswith("_"))
    assert found == _PRIVATE_IMPORTS


_IMPORT_PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import cisym
import cisym.cli
cisym.cli.build_parser()
print("\\n".join(sorted({m.partition(".")[0]
                         for m in set(sys.modules) - before})))
"""


def test_the_package_and_its_cli_import_only_the_standard_library():
    # A fresh interpreter without site-packages (-S) and without
    # PYTHONPATH: every top-level module that importing cisym and building
    # the parser loads must be cisym itself or part of the standard library.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE, str(src)],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "cisym" in loaded
    assert loaded - {"cisym"} <= sys.stdlib_module_names
