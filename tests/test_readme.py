"""The README's library example runs as written, and the package
exports every name of its modules' ``__all__``, as the README says."""

import ast
import importlib
import re
import types
from pathlib import Path

import evomarket

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out


def star_imported_modules():
    """The modules that ``evomarket/__init__.py`` imports, by name."""
    tree = ast.parse(Path(evomarket.__file__).read_text(encoding="utf-8"))
    return [node.module for node in tree.body if isinstance(node, ast.ImportFrom)]


def test_every_imported_module_declares_its_public_names():
    modules = star_imported_modules()
    assert "market" in modules and "errors" in modules
    for name in modules:
        module = importlib.import_module(f"evomarket.{name}")
        assert hasattr(module, "__all__"), f"evomarket.{name} has no __all__"
        for public in module.__all__:
            assert hasattr(module, public), f"evomarket.{name}.{public} does not exist"
            assert getattr(evomarket, public) is getattr(module, public), public


def test_the_package_exports_the_union_of_the_modules_all():
    declared = set()
    for name in star_imported_modules():
        declared.update(importlib.import_module(f"evomarket.{name}").__all__)
    public = {name for name in vars(evomarket) if not name.startswith("_")}
    submodules = {
        name for name in public if isinstance(getattr(evomarket, name), types.ModuleType)
    }
    assert all(getattr(evomarket, name).__name__ == f"evomarket.{name}" for name in submodules)
    assert public - submodules == declared
