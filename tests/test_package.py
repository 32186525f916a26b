import fewatom


def test_all_names_resolve():
    # `from fewatom import *` raises AttributeError on a listed name the
    # package no longer defines
    namespace = {}
    exec("from fewatom import *", namespace)
    assert sorted(set(fewatom.__all__) - namespace.keys()) == []
    assert len(set(fewatom.__all__)) == len(fewatom.__all__)
