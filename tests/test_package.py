import types

import yoneda_cps


def test_all_lists_resolvable_names_and_no_modules():
    names = yoneda_cps.__all__
    assert len(set(names)) == len(names)
    for name in names:
        value = getattr(yoneda_cps, name)
        assert not isinstance(value, types.ModuleType), name
