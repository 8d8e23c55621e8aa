"""Every name a package module imports from the package is one it uses."""

import pkgutil

import pytest
from layering import module_tree, unreferenced_package_imports

import permeameter

#: Names a module imports only so that perfbench/spans.py has a lookup
#: site to wrap (see tests/test_benchmark_hooks.py).
LOOKUP_SITE_IMPORTS = {
    "synth": {"geometry_factor_derived", "sample_energy_quadrature"},
}


@pytest.mark.parametrize(
    "module", ["__init__"] + [info.name for info in pkgutil.iter_modules(permeameter.__path__)]
)
def test_package_imports_are_referenced(module):
    # an import kept for the benchmark alone cannot come back unnoticed
    assert unreferenced_package_imports(module_tree(module)) == LOOKUP_SITE_IMPORTS.get(module, set())
