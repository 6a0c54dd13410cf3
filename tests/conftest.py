import sys

import pytest

from phasecoord.bundled import bundled_names, get_bundled
from phasecoord.mcpal import load_migration
from phasecoord.model import initial_configuration


@pytest.fixture(scope="session")
def bundles():
    return {name: get_bundled(name) for name in bundled_names()}


def _load_shop():
    bundle = get_bundled("shop-migration")
    model = bundle.model()
    config = initial_configuration(model)
    return load_migration(model, config, model.variables[bundle.fragment_var])


@pytest.fixture(scope="session")
def shop_loaded():
    """The flagship system: bundled shop model with its migration loaded."""
    return _load_shop()


@pytest.fixture
def load_shop():
    """`load_shop()` gives the flagship system as `shop_loaded` does, in new
    model objects, whose step tables no other test has filled."""
    return _load_shop


@pytest.fixture
def count_calls(monkeypatch):
    """`count_calls(module, name)` replaces the function `module.name` with a
    call counter under that name in every phasecoord module that binds it,
    and returns the list that collects each call's positional arguments."""

    def install(module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "phasecoord" and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
        return calls

    return install
