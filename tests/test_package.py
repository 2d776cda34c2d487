import icmvc


def test_every_exported_name_resolves():
    missing = [name for name in icmvc.__all__ if not hasattr(icmvc, name)]
    assert missing == []
