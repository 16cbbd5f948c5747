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
    assert attempted >= 22


def test_public_api():
    assert sorted(fibc.__all__) == [
        "CarryState", "MealyMachine", "MissingTransitionError", "TraceStep",
        "add_fib", "add_fibc", "add_words", "adder_table", "berstel_adder",
        "canonicalize", "cmp_radix", "cmp_signed", "complement_adder",
        "derive_adder", "enumerate_canonical", "fib", "fib_rep", "fib_value",
        "fibc_rep", "fibc_value", "is_canonical", "is_zeckendorf",
        "neutral_prefix", "normalize_fib", "pad_words", "step", "sub_fibc",
        "sum_words", "translate_word", "twos_complement_rep",
        "twos_complement_value",
    ]
    for name in fibc.__all__:
        assert getattr(fibc, name) is not None
