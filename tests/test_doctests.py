import doctest
import importlib
import pkgutil

import fibc


def test_docstring_examples():
    modules = [fibc] + [importlib.import_module(f"fibc.{info.name}")
                        for info in pkgutil.iter_modules(fibc.__path__)]
    failed = attempted = 0
    for module in modules:
        result = doctest.testmod(module)
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 23
