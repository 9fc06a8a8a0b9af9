import types

import threebraid


def test_all_names_resolve_and_hold_no_module():
    for name in threebraid.__all__:
        assert not isinstance(getattr(threebraid, name), types.ModuleType), name
    # The submodules stay reachable as attributes of the package.
    for name in ("floer", "homology", "invariants", "murasugi", "seifert",
                 "words"):
        assert isinstance(getattr(threebraid, name), types.ModuleType)
