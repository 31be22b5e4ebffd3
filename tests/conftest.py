import sys

import pytest

from epscontact import curvature


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(names) -> a dict counting the calls of the named curvature
    functions, wherever a module of the package binds them."""

    def install(names) -> dict:
        counts = dict.fromkeys(names, 0)
        for fname in names:
            original = getattr(curvature, fname)

            def counting(*args, _name=fname, _original=original):
                counts[_name] += 1
                return _original(*args)

            for name, mod in list(sys.modules.items()):
                if name.startswith("epscontact") and getattr(mod, fname, None) is original:
                    monkeypatch.setattr(mod, fname, counting)
        return counts

    return install
