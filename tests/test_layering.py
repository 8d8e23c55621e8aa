"""Every name a package module imports from the package is one it uses,
only permeameter.config knows a config key, and no module reads the
environment."""

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


#: The os names that read the process environment.
ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


@pytest.mark.parametrize("module", PACKAGE_MODULES)
def test_no_module_reads_the_environment(module):
    # the command line names every input of a run, so no variable can change one unseen
    tree = module_tree(module)
    os_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "os"
    }
    reads = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in os_names
    } | {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "os"
        for alias in node.names
    }
    assert not reads & ENVIRONMENT_READERS
