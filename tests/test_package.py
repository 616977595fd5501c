"""The package's public names."""

import leonet


def test_every_public_name_resolves():
    assert len(set(leonet.__all__)) == len(leonet.__all__)
    missing = [name for name in leonet.__all__ if not hasattr(leonet, name)]
    assert missing == []


def test_star_import():
    names: dict = {}
    exec("from leonet import *", names)
    assert set(leonet.__all__) <= set(names)
