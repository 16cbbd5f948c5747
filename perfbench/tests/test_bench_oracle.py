"""The benchmark's output oracle, checked against Python int arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracle  # noqa: E402


def binary_words(max_len):
    for length in range(max_len + 1):
        for digits in product("01", repeat=length):
            yield "".join(digits)


def fib(i):
    """F(i) by the plain recurrence, F(-1) = 1, F(0) = 1, F(1) = 2."""
    a, b = 1, 1  # F(-1), F(0)
    for _ in range(i + 1):
        a, b = b, a + b
    return a


class OracleTest(unittest.TestCase):
    def test_zeckendorf_words_are_a_bijection_onto_an_int_range(self):
        # Canonical words of length <= L are exactly the integers 0 .. F(L)-1.
        for max_len in range(13):
            values = [oracle.value(w) for w in binary_words(max_len)
                      if oracle.is_zeckendorf(w)]
            self.assertEqual(sorted(values), list(range(fib(max_len))), max_len)

    def test_complement_words_are_a_bijection_onto_an_int_range(self):
        # Canonical words of length <= 2k+1 are exactly -F(2k-1) .. F(2k)-1.
        for k in range(7):
            values = [oracle.signed_value(w) for w in binary_words(2 * k + 1)
                      if oracle.is_complement(w)]
            self.assertEqual(sorted(values), list(range(-fib(2 * k - 1), fib(2 * k))), k)

    def test_checks_accept_exactly_the_canonical_word_of_the_sum(self):
        zeck = {oracle.value(w): w for w in binary_words(10) if oracle.is_zeckendorf(w)}
        comp = {oracle.signed_value(w): w for w in binary_words(9) if oracle.is_complement(w)}
        for w in binary_words(10):
            for m in range(0, 144, 7):
                for n in (0, 1, 5):
                    self.assertEqual(oracle.check_fib_sum(m, n, w), zeck.get(m + n) == w)
            if w:
                for m in range(-21, 34, 5):
                    self.assertEqual(oracle.check_fibc_sum(m, -3, w), comp.get(m - 3) == w)

    def test_worked_examples_and_rejections(self):
        self.assertTrue(oracle.check_fib_sum(13, 7, "101010"))
        self.assertTrue(oracle.check_fibc_sum(-1, -9, "1000100"))
        self.assertTrue(oracle.check_fibc_sum(0, 0, "0"))
        self.assertTrue(oracle.check_fib_sum(0, 0, ""))
        self.assertFalse(oracle.check_fib_sum(3, 0, "011"))     # 11 factor
        self.assertFalse(oracle.check_fib_sum(2, 0, "010"))     # leading zero
        self.assertFalse(oracle.check_fib_sum(2, 0, "2"))       # not binary
        self.assertFalse(oracle.check_fibc_sum(2, 0, "00010"))  # 000 prefix
        self.assertFalse(oracle.check_fibc_sum(-2, 0, "10100"))  # 101 prefix
        self.assertFalse(oracle.check_fibc_sum(1, 0, "01"))     # even length
        self.assertFalse(oracle.check_fibc_sum(1, 0, ValueError("boom")))

    def test_large_values_match_int_arithmetic(self):
        # F(1000) is 10^0 ... 0 in Zeckendorf, and a sum of alternate
        # Fibonacci numbers telescopes: F(0) + F(2) + ... + F(2k) = F(2k+1) - 1.
        self.assertEqual(oracle.value("1" + "0" * 1000), fib(1000))
        self.assertEqual(oracle.value("10" * 500 + "1"), fib(1001) - 1)
        self.assertEqual(oracle.signed_value("1" + "0" * 1000), 0 - fib(1001) + fib(1000))


if __name__ == "__main__":
    unittest.main()
