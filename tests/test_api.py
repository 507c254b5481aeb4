"""The package's public names: ``__all__`` lists each exported name once,
and every listed name resolves."""

import ffconsensus


def test_every_public_name_resolves_once():
    names = ffconsensus.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(ffconsensus, name)]
    assert not missing, missing
