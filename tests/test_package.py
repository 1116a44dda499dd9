import types

import gaplab


def test_all_exports_public_names_not_submodules():
    for name in ("exact", "gline", "instances", "lp_solver", "ratio", "subtour"):
        assert name not in gaplab.__all__
    for name in gaplab.__all__:
        assert not isinstance(getattr(gaplab, name), types.ModuleType), name
