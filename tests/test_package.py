"""The package's public names."""

import kgfuse


def test_every_exported_name_resolves_once():
    names = kgfuse.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names)
                                                 if names.count(n) > 1)
    assert [n for n in names if not hasattr(kgfuse, n)] == []
