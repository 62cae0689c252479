"""The package's public export list."""

import qhyp


def test_all_names_resolve_once():
    names = qhyp.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(qhyp, name)]
    assert missing == []
