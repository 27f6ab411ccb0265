"""Public-API integrity: every exported name exists and imports cleanly."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.scenegraph",
    "repro.render",
    "repro.services",
    "repro.network",
    "repro.data",
    "repro.compression",
    "repro.obs",
    "repro.hardware",
    "repro.collab",
    "repro.farm",
    "repro.sanitizer",
    "repro.analysis",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    mod = importlib.import_module(package)
    assert hasattr(mod, "__all__"), f"{package} lacks __all__"
    for name in mod.__all__:
        assert hasattr(mod, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_export(package):
    mod = importlib.import_module(package)
    assert set(mod.__all__) <= set(dir(mod))


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_attribute_raises_attribute_error(package):
    mod, name = importlib.import_module(package), "no_such_export"
    with pytest.raises(AttributeError, match=name):
        getattr(mod, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_name(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    mod = importlib.import_module(package)
    for name in mod.__all__:
        assert namespace[name] is getattr(mod, name), f"{package}.{name}"


@pytest.mark.parametrize("package", PACKAGES)
def test_package_docstring(package):
    mod = importlib.import_module(package)
    assert mod.__doc__ and len(mod.__doc__.strip()) > 30, \
        f"{package} needs a real docstring"


def test_every_module_has_docstring():
    import pkgutil

    import repro

    missing = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        mod = importlib.import_module(info.name)
        if not (mod.__doc__ and mod.__doc__.strip()):
            missing.append(info.name)
    assert not missing, f"modules without docstrings: {missing}"


def test_public_classes_documented():
    """Spot-check: classes reachable from the package roots carry docs."""
    import inspect

    for package in PACKAGES:
        mod = importlib.import_module(package)
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if inspect.isclass(obj):
                assert obj.__doc__, f"{package}.{name} lacks a docstring"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2
