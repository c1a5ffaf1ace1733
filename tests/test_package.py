"""The package's public names."""

import dasrate


def test_every_name_in_all_resolves_on_the_package():
    assert [name for name in dasrate.__all__ if not hasattr(dasrate, name)] == []
    assert len(set(dasrate.__all__)) == len(dasrate.__all__)
