import sys

import pytest

from epscontact import curvature


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(names) -> a dict counting the calls of the named curvature
    functions, wherever a module of the package binds them; with by_dim the
    keys are (name, n) for calls on n-dimensional frames."""

    def install(names, by_dim=False) -> dict:
        counts = {} if by_dim else dict.fromkeys(names, 0)
        for fname in names:
            original = getattr(curvature, fname)

            def counting(*args, _name=fname, _original=original):
                key = (_name, args[0].shape[-1]) if by_dim else _name
                counts[key] = counts.get(key, 0) + 1
                return _original(*args)

            for name, mod in list(sys.modules.items()):
                if name.startswith("epscontact") and getattr(mod, fname, None) is original:
                    monkeypatch.setattr(mod, fname, counting)
        return counts

    return install
