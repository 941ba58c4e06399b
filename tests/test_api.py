"""The package's public API: every exported name exists."""

import mgems


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from mgems import *", namespace)
    assert mgems.__all__
    for name in mgems.__all__:
        assert namespace[name] is getattr(mgems, name)
