import types

import fengrao


def test_all_lists_exactly_the_public_names():
    # a name dropped from the imports or from __all__ alone fails here
    bound = {
        name
        for name, value in vars(fengrao).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(fengrao.__all__) == len(set(fengrao.__all__))
    assert set(fengrao.__all__) == bound
