"""The package's public names and what importing it loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cisym


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
