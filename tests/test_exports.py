"""The package's public names all resolve, so a deletion cannot leave a stale
export behind."""

import diffalg


def test_every_export_resolves():
    missing = [name for name in diffalg.__all__ if not hasattr(diffalg, name)]
    assert missing == []
    assert len(set(diffalg.__all__)) == len(diffalg.__all__)
