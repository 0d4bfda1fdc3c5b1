"""The package's public names: every ``__all__`` entry resolves, and the
package re-exports only names its source modules declare public."""

import ast
import importlib
import pkgutil
from pathlib import Path

import freqfact


def _modules():
    return {info.name: importlib.import_module(f"freqfact.{info.name}")
            for info in pkgutil.iter_modules(freqfact.__path__)}


def test_every_all_entry_resolves():
    declared = {name: mod for name, mod in _modules().items() if hasattr(mod, "__all__")}
    assert declared, "no freqfact module declares __all__"
    for name, mod in declared.items():
        assert len(set(mod.__all__)) == len(mod.__all__), f"freqfact.{name}.__all__ repeats a name"
        missing = [n for n in mod.__all__ if not hasattr(mod, n)]
        assert not missing, f"freqfact.{name}.__all__ names missing attributes {missing}"


def test_package_reexports_come_from_source_all():
    tree = ast.parse(Path(freqfact.__file__).read_text())
    modules = _modules()
    reexported = 0
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            source = modules[node.module]
            public = getattr(source, "__all__", None)
            assert public is not None, f"freqfact.{node.module} has no __all__"
            for alias in node.names:
                assert alias.name in public, (
                    f"freqfact re-exports {alias.name} from freqfact.{node.module}, "
                    "which does not list it in __all__")
                assert getattr(freqfact, alias.asname or alias.name) is getattr(source, alias.name)
                reexported += 1
    assert reexported > 0
