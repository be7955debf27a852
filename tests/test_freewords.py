import itertools
from math import gcd

import pytest
from hypothesis import given, strategies as st

from periodlines.freewords import (
    FreeWordError,
    cyclic_reduce,
    free_commensurate,
    free_reduce,
    inverse_word,
    is_cyclically_reduced,
    is_reduced,
    line_window,
    overlap_root,
    rotate,
)
from periodlines.words import primitive_root

LETTERS = "abAB"
WORDS = st.text(alphabet=LETTERS, max_size=12)


def brute_reduce(w):
    """Oracle: cancel one adjacent inverse pair at a time until stable."""
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] == w[i + 1].swapcase():
                w = w[:i] + w[i + 2:]
                changed = True
                break
    return w


def test_free_reduce_examples():
    assert free_reduce("aBbA") == ""
    assert free_reduce("abBA") == ""
    assert free_reduce("abAB") == "abAB"
    assert free_reduce("") == ""


@given(WORDS)
def test_free_reduce_matches_oracle(w):
    r = free_reduce(w)
    assert r == brute_reduce(w)
    assert is_reduced(r)


@given(WORDS)
def test_inverse_word_involution(w):
    assert inverse_word(inverse_word(w)) == w
    assert free_reduce(w + inverse_word(w)) == ""


def test_cyclic_reduce_examples():
    assert cyclic_reduce("ABabba") == ("AB", "ab")
    assert cyclic_reduce("aba") == ("", "aba")
    assert cyclic_reduce("aA") == ("", "")


@given(WORDS)
def test_cyclic_reduce_property(w):
    u, core = cyclic_reduce(w)
    assert is_cyclically_reduced(core)
    assert free_reduce(u + core + inverse_word(u)) == free_reduce(w)


def test_rotate_is_conjugation():
    w = "abAb"
    for i in range(len(w)):
        s = w[:i]
        assert free_reduce(inverse_word(s) + w + s) == rotate(w, i)


def test_line_window():
    assert line_window("ab", 0, 3) == "ababab"
    assert line_window("ab", -2, 1) == "ababab"
    with pytest.raises(FreeWordError):
        line_window("aA", 0, 2)
    with pytest.raises(FreeWordError):
        line_window("ab", 2, 2)


def test_overlap_root_examples():
    r = overlap_root("ab", "ba")
    assert r is not None and r.c == "ab" and (r.exp_a, r.exp_b) == (1, 1)
    assert rotate("ba", r.shift_b) == "ab"
    assert overlap_root("ab", "aab") is None
    r = overlap_root("ab", "abab")
    assert r is not None and r.c == "ab" and r.exp_b == 2
    # reversed orientation: b travels the same line backwards
    r = overlap_root("ab", "BA")
    assert r is not None and r.exp_b == -1


def test_overlap_root_reconstruction():
    for a, b in [("ab", "ba"), ("ab", "abab"), ("aab", "abaaba"), ("ab", "BA")]:
        r = overlap_root(a, b)
        assert r is not None
        assert rotate(a, r.shift_a) == r.c * r.exp_a
        if r.exp_b > 0:
            assert rotate(b, r.shift_b) == r.c * r.exp_b
        else:
            assert rotate(b, r.shift_b) == inverse_word(r.c) * (-r.exp_b)


def test_overlap_root_rejects_unreduced():
    with pytest.raises(FreeWordError):
        overlap_root("aA", "b")


def _verify_commensurate(a, b, g, s, t):
    ra, rb = free_reduce(a), free_reduce(b)
    bt = rb * t if t > 0 else inverse_word(rb) * (-t)
    as_ = ra * s if s > 0 else inverse_word(ra) * (-s)
    assert free_reduce(inverse_word(g) + bt + g) == free_reduce(as_)


def test_free_commensurate_examples():
    g, s, t = free_commensurate("ab", "baba")
    assert s == 2 and t == 1
    _verify_commensurate("ab", "baba", g, s, t)
    assert free_commensurate("ab", "aabb") is None
    g, s, t = free_commensurate("ab", "AB")
    _verify_commensurate("ab", "AB", g, s, t)
    with pytest.raises(FreeWordError):
        free_commensurate("aA", "b")


@given(st.text(alphabet=LETTERS, min_size=1, max_size=4),
       st.text(alphabet=LETTERS, max_size=3),
       st.integers(-3, 3))
def test_free_commensurate_detects_conjugate_powers(a, conj, k):
    if free_reduce(a) == "" or k == 0:
        return
    ak = a * k if k > 0 else inverse_word(a) * (-k)
    b = free_reduce(conj + ak + inverse_word(conj))
    res = free_commensurate(a, b)
    assert res is not None
    _verify_commensurate(a, b, *res)


# Reference copies of the first overlap_root (a scan of every relative offset
# of the two lines, in both orientations of b) and free_commensurate (a loop
# over every rotation); the derived versions must agree with them exactly.

def _reference_powers_match(u, v, length):
    return (u * (length // len(u) + 1))[:length] == (v * (length // len(v) + 1))[:length]


def reference_overlap_root(a, b):
    length = len(a) + len(b)
    for oriented in (b, inverse_word(b)):
        for i in range(len(a)):
            ra = rotate(a, i)
            for j in range(len(b)):
                rb = rotate(oriented, j)
                if _reference_powers_match(ra, rb, length):
                    c, exp_a = primitive_root(ra)
                    exp_b = len(b) // len(c)
                    if oriented is b:
                        return (c, i, j, exp_a, exp_b)
                    target = inverse_word(c) * exp_b
                    for sb in range(len(b)):
                        if rotate(b, sb) == target:
                            return (c, i, sb, exp_a, -exp_b)
    return None


def reference_free_commensurate(a, b):
    ra, rb = free_reduce(a), free_reduce(b)
    ua, core_a = cyclic_reduce(ra)
    ub, core_b = cyclic_reduce(rb)
    pa, ka = primitive_root(core_a)
    pb, kb = primitive_root(core_b)
    for sign in (1, -1):
        pb_oriented = pb if sign == 1 else inverse_word(pb)
        if len(pb_oriented) != len(pa):
            continue
        for i in range(len(pb_oriented)):
            if rotate(pb_oriented, i) == pa:
                g = free_reduce(ub + pb_oriented[:i] + inverse_word(ua))
                d = gcd(ka, kb)
                return g, kb // d, sign * (ka // d)
    return None


def _assert_matches_references(a, b):
    res = overlap_root(a, b)
    got = None if res is None else (res.c, res.shift_a, res.shift_b, res.exp_a, res.exp_b)
    assert got == reference_overlap_root(a, b), (a, b)
    assert free_commensurate(a, b) == reference_free_commensurate(a, b), (a, b)


def test_overlap_root_matches_reference_exhaustive():
    words = [w for n in range(1, 5) for w in map("".join, itertools.product(LETTERS, repeat=n))
             if is_cyclically_reduced(w)]
    assert len(words) == 128
    for a in words:
        for b in words:
            _assert_matches_references(a, b)


CYCLIC_ROOTS = st.text(alphabet=LETTERS, min_size=1, max_size=12).filter(is_cyclically_reduced)


@given(CYCLIC_ROOTS, st.integers(1, 3), st.integers(1, 3), st.integers(0, 35),
       st.integers(0, 35), st.booleans(), CYCLIC_ROOTS, WORDS)
def test_overlap_root_matches_reference_on_root_powers(root, ka, kb, i, j, inverse, other, conj):
    # a and b are rotations of powers of one root, b possibly of its
    # inverse; the unrelated word checks the negative answers too, and the
    # conjugate of a the free_commensurate conjugators
    a = rotate(root * ka, i)
    b = rotate((inverse_word(root) if inverse else root) * kb, j)
    _assert_matches_references(a, b)
    _assert_matches_references(a, other)
    a_conj = free_reduce(conj + a + inverse_word(conj))
    assert free_commensurate(a_conj, b) == reference_free_commensurate(a_conj, b)
