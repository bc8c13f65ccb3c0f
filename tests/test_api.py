import qrl


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from qrl import *", namespace)  # raises AttributeError on a stale __all__ entry
    assert all(hasattr(qrl, name) for name in qrl.__all__)
    assert set(qrl.__all__) <= namespace.keys()
