import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps module.name at every fuzzychern module
    that binds it and returns the list of positional-argument tuples of its
    calls."""

    def install(module, name):
        original = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "fuzzychern" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
        return calls

    return install
