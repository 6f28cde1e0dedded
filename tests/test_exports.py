"""The package's public names."""

import ast
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
