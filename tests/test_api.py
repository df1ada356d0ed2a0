from types import ModuleType

import multidisc


def test_all_lists_exactly_the_public_names():
    public = [
        name
        for name, value in vars(multidisc).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    ]
    assert sorted(multidisc.__all__) == sorted(public)
    assert len(multidisc.__all__) == 27
