"""Zeckendorf and Fibonacci's-complement numeration systems for Python.

Nonnegative integers get their canonical Fibonacci (Zeckendorf) words;
all integers get odd-length complement words whose leading digit carries a
negative weight, the analogue of two's complement over Fibonacci weights.
Addition in both systems runs on a small left-to-right transducer, which the
package derives from first principles, together with the order theory making
the signed representation map monotone.
"""

from .adders import (add_fib, add_fibc, add_words, adder_table, berstel_adder,
                     complement_adder, sub_fibc)
from .complement import (canonicalize, cmp_signed, enumerate_canonical,
                         fibc_rep, is_canonical, neutral_prefix, pad_words,
                         sum_words)
from .derivation import CarryState, derive_adder, step, translate_word
from .fibonacci import (fib, fib_value, fibc_value, twos_complement_rep,
                        twos_complement_value)
from .mealy import MealyMachine, MissingTransitionError, TraceStep
from .zeckendorf import cmp_radix, fib_rep, is_zeckendorf, normalize_fib

__version__ = "0.1.0"

__all__ = [
    "MealyMachine", "MissingTransitionError", "TraceStep",
    "CarryState",
    "add_fib", "add_fibc", "add_words", "adder_table", "berstel_adder", "canonicalize",
    "cmp_radix", "cmp_signed", "complement_adder", "derive_adder",
    "enumerate_canonical", "fib", "fib_rep", "fib_value", "fibc_rep",
    "fibc_value", "is_canonical", "is_zeckendorf",
    "neutral_prefix", "normalize_fib", "pad_words", "step",
    "sub_fibc", "sum_words", "translate_word", "twos_complement_rep",
    "twos_complement_value",
]
