"""The package's public names."""

import evtrack


def test_every_public_name_resolves_once():
    names = evtrack.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(evtrack, name)]
    assert not missing
