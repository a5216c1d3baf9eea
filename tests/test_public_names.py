"""Every name a package exports in ``__all__`` resolves, so that
``from package import *`` does not break on a stale entry."""
import importlib

import pytest


@pytest.mark.parametrize("package", ["revcat", "revcat.cat", "revcat.functionals", "revcat.revlang"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
