"""The package exports exactly what its five library modules export."""

import hawkes_mle
from hawkes_mle import experiments, likelihood, model, optim, simulate

MODULES = (model, simulate, likelihood, optim, experiments)


def test_package_all_is_the_modules_all_in_order():
    names = [name for mod in MODULES for name in mod.__all__]
    assert list(hawkes_mle.__all__) == names
    assert len(set(names)) == len(names)
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(hawkes_mle, name) is getattr(mod, name)


def test_names_documented_for_library_callers_import():
    from hawkes_mle import RECIPES, RUNNERS, DataError, ResidualSummary

    assert issubclass(DataError, ValueError)
    assert RUNNERS is optim.RUNNERS and RECIPES is experiments.RECIPES
    assert ResidualSummary is optim.ResidualSummary
