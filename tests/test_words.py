import itertools
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import periodlines
from periodlines.words import (
    PeriodError,
    border_array,
    fine_wilf_root,
    is_period,
    period_lengths,
    primitive_root,
)

WORDS = st.text(alphabet="ab", min_size=1, max_size=20)


def brute_periods(z):
    """Independent oracle: p is a period iff z[i] == z[i+p] wherever defined."""
    out = []
    for p in range(1, len(z) + 1):
        if all(z[i] == z[i + p] for i in range(len(z) - p)):
            out.append(p)
    return out


def test_border_array_examples():
    assert border_array("abaab") == [0, 0, 1, 1, 2]
    assert border_array("aaaa") == [0, 1, 2, 3]
    assert border_array("abc"[:0]) == []


def test_period_lengths_examples():
    assert period_lengths("abaab") == [3, 5]
    assert period_lengths("abaabaab") == [3, 6, 8]
    assert period_lengths("a") == [1]
    with pytest.raises(PeriodError):
        period_lengths("")


@given(WORDS)
def test_period_lengths_matches_brute_force(z):
    assert period_lengths(z) == brute_periods(z)


@given(WORDS)
def test_period_border_duality(z):
    # p is a period of z iff z has a border of length |z| - p
    borders = set()
    b = border_array(z)
    k = b[-1]
    while k > 0:
        borders.add(k)
        k = b[k - 1]
    borders.add(0)
    assert set(period_lengths(z)) == {len(z) - l for l in borders}


@given(WORDS)
def test_is_period_agrees(z):
    got = [p for p in range(1, len(z) + 1) if is_period(z, p)]
    assert got == period_lengths(z)


def test_fine_wilf_examples():
    assert fine_wilf_root("ababab", 2, 4) == "ab"
    assert fine_wilf_root("aaaaa", 2, 3) == "a"


def test_fine_wilf_rejects_short_overlap():
    with pytest.raises(PeriodError, match="overlap too short"):
        fine_wilf_root("aaaa", 2, 3)


def test_fine_wilf_rejects_non_period():
    with pytest.raises(PeriodError):
        fine_wilf_root("abcabc", 2, 3)


@given(WORDS, st.integers(1, 6), st.integers(1, 6))
def test_fine_wilf_root_property(z, p, q):
    if not (is_period(z, p) and is_period(z, q) and len(z) >= p + q):
        return
    c = fine_wilf_root(z, p, q)
    g = math.gcd(p, q)
    assert len(c) == g
    assert z == (c * (len(z) // g + 1))[: len(z)]


def test_primitive_root_examples():
    assert primitive_root("ababab") == ("ab", 3)
    assert primitive_root("aba") == ("aba", 1)
    assert primitive_root("aaaa") == ("a", 4)


@given(WORDS, st.integers(1, 4))
def test_primitive_root_of_power(w, k):
    c, m = primitive_root(w * k)
    assert c * m == w * k
    # the root itself is primitive
    assert primitive_root(c) == (c, 1)


def _primitive_root_loop(w):
    """The least d dividing |w| with w = w[:d] * (|w| / d), by trying each
    d in turn: the reference for primitive_root's rotation search."""
    n = len(w)
    d = next(d for d in range(1, n + 1) if n % d == 0 and w == w[:d] * (n // d))
    return w[:d], n // d


def test_primitive_root_matches_the_loop():
    """Every word of length 1 to 12 over {a, b} and 1 to 7 over {a, A, b}."""
    for letters, longest in (("ab", 12), ("aAb", 7)):
        for n in range(1, longest + 1):
            for w in map("".join, itertools.product(letters, repeat=n)):
                assert primitive_root(w) == _primitive_root_loop(w), w
    with pytest.raises(PeriodError):
        primitive_root("")


# Each snippet breaks one internal invariant; the check must still raise the
# named error when python -O strips assert statements.
BROKEN_INVARIANTS = {
    "fine_wilf_root": ("RuntimeError: periodicity lemma violated", """
from periodlines import words
words.gcd = lambda p, q: 1
words.fine_wilf_root("ababab", 2, 4)
"""),
    "fine_wilf_root powers": ("RuntimeError: periodicity lemma violated", """
from periodlines import words
words.gcd = lambda p, q: 1
words.is_period = lambda z, p: True
words.fine_wilf_root("ababab", 2, 4)
"""),
    "commensurate": ("RuntimeError: witness failed to verify", """
from periodlines import freewords
from periodlines.backends import FreeBackend
freewords.gcd = lambda p, q: 2
FreeBackend(2).commensurate("ab", "abab")
"""),
    "overlap_root": ("RuntimeError: overlap root failed to verify", """
from periodlines import freewords
freewords.match_roots = lambda *args: ("", 1, 1)
freewords.overlap_root("ab", "ba")
"""),
    "root_witness": ("RuntimeError: witness failed re-verification", """
from periodlines import harness
from periodlines.backends import FreeBackend
harness.gcd = lambda p, q: 2
harness.weak_theorem_check(harness.TheoremInstance(FreeBackend(2), "abab", "ab", "", "", 0),
                           min_periods=2)
"""),
    "r_base": ("periodlines.constants.ProfileError: 2*delta + 2*mu = 1/2", """
import dataclasses
from fractions import Fraction
from periodlines.constants import ConstantsProfile
p = ConstantsProfile.create(0, 1, 1, "user-supplied", {})
dataclasses.replace(p, mu=Fraction(1, 4)).r_base
"""),
}


@pytest.mark.parametrize("name", sorted(BROKEN_INVARIANTS))
def test_invariant_checks_survive_python_O(name):
    error, snippet = BROKEN_INVARIANTS[name]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(periodlines.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", snippet],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines()[-1].startswith(error), proc.stderr
