"""Every name a package module imports from the package is one it uses, and
only permeameter.config knows a config key."""

import ast
import pkgutil

import pytest
from layering import module_tree, names_imported_from, unreferenced_package_imports

import permeameter

PACKAGE_MODULES = ["__init__"] + [info.name for info in pkgutil.iter_modules(permeameter.__path__)]

#: Names a module imports only so that perfbench/spans.py has a lookup
#: site to wrap (see tests/test_benchmark_hooks.py).
LOOKUP_SITE_IMPORTS = {
    "synth": {"geometry_factor_derived", "sample_energy_quadrature"},
}


@pytest.mark.parametrize("module", PACKAGE_MODULES)
def test_package_imports_are_referenced(module):
    # an import kept for the benchmark alone cannot come back unnoticed
    assert unreferenced_package_imports(module_tree(module)) == LOOKUP_SITE_IMPORTS.get(module, set())


def test_only_config_renames_errors_to_config_keys():
    # config checks every section at load, the synth sweep included, so no
    # other module calls a library field by its config key
    callers = {
        module
        for module in PACKAGE_MODULES
        for node in ast.walk(module_tree(module))
        if isinstance(node, ast.Call)
        and "renamed" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert callers == {"config"}
    assert not names_imported_from(module_tree("cli"), "synth") & {"SynthOptions", "empty_sweep"}
