"""Public-API surface tests.

Guard the contract downstream users import against: the names promised in
each package's ``__all__`` exist, the top-level convenience exports work,
and the package version matches the build metadata.
"""

import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

PACKAGES = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", None)
    assert exported is not None, f"{package_name} must declare __all__"
    for name in exported:
        assert hasattr(package, name), f"{package_name}.__all__ lists missing {name}"


def test_top_level_quickstart_names():
    for name in ("anonymize", "Anonymizer", "Microdata", "METHODS"):
        assert hasattr(repro, name)


def test_methods_registry_matches_paper():
    assert set(repro.METHODS) == {"merge", "kanon-first", "tclose-first"}


def test_version_matches_pyproject():
    pyproject = (Path(repro.__file__).parents[2] / "pyproject.toml").read_text()
    assert f'version = "{repro.__version__}"' in pyproject


def test_console_script_target_exists():
    from repro.cli import main

    assert callable(main)
