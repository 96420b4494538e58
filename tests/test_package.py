import signalgames


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from signalgames import *", namespace)
    missing = [name for name in signalgames.__all__ if name not in namespace]
    assert not missing
    assert len(set(signalgames.__all__)) == len(signalgames.__all__)
