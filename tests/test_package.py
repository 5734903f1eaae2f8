"""The package's public namespace."""

import qqinv


def test_all_names_resolve_and_are_listed_once():
    assert len(qqinv.__all__) == len(set(qqinv.__all__))
    missing = [name for name in qqinv.__all__ if not hasattr(qqinv, name)]
    assert missing == []
