import rowfinite


def test_every_public_name_resolves():
    missing = [name for name in rowfinite.__all__ if not hasattr(rowfinite, name)]
    assert missing == []
