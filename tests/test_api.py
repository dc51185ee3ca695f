"""The package's public names all resolve."""

import diracband


def test_all_names_resolve():
    missing = [name for name in diracband.__all__
               if not hasattr(diracband, name)]
    assert missing == []
    namespace: dict = {}
    exec("from diracband import *", namespace)
    assert set(diracband.__all__) <= set(namespace)
