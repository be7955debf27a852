import itertools

import pytest
from hypothesis import given, strategies as st

from periodlines import freewords
from periodlines.backends import FreeBackend
from periodlines.freewords import (
    FreeWordError,
    cyclic_reduce,
    free_reduce,
    inverse_word,
    is_cyclically_reduced,
    is_reduced,
    line_window,
    overlap_root,
    rotate,
)
from periodlines.words import primitive_root
from free_commensurate_reference import reference_free_oracle

FREE = FreeBackend(2)
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


@pytest.mark.parametrize("a,b,wrong", [
    ("ab", "ba", ("", 1, 1)),    # a rotation that misses b's root
    ("ab", "ba", ("b", 1, -1)),  # the right rotation, the wrong orientation
    ("ab", "BA", ("", 1, 1)),
])
def test_overlap_root_checks_the_roots_it_is_given(monkeypatch, a, b, wrong):
    # overlap_root checks its root by rotation, not by trusting match_roots
    assert overlap_root(a, b) is not None
    monkeypatch.setattr(freewords, "match_roots", lambda *args: wrong)
    with pytest.raises(RuntimeError, match="^overlap root failed to verify$"):
        overlap_root(a, b)


def test_overlap_root_agrees_with_the_free_oracle():
    """The lemma across the two layers: on every pair of cyclically
    reduced words of length <= 5, the lines share a root exactly when the
    backend's oracle calls a and b commensurable."""
    words = [w for n in range(1, 6) for w in map("".join, itertools.product(LETTERS, repeat=n))
             if is_cyclically_reduced(w)]
    found = 0
    for a in words:
        for b in words:
            shared = overlap_root(a, b) is not None
            assert shared == (FREE.commensurate(a, b)[0] is not None), (a, b)
            found += shared
    assert found > len(words)


def _verify_commensurate(a, b, g, s, t):
    ra, rb = free_reduce(a), free_reduce(b)
    bt = rb * t if t > 0 else inverse_word(rb) * (-t)
    as_ = ra * s if s > 0 else inverse_word(ra) * (-s)
    assert free_reduce(inverse_word(g) + bt + g) == free_reduce(as_)


def _free_oracle(a, b):
    """FreeBackend(2).commensurate, checked against the reference, as
    (g, s, t) or None."""
    witness, cert = FREE.commensurate(a, b)
    assert (witness, cert) == reference_free_oracle(a, b), (a, b)
    return None if witness is None else (witness["g"], witness["s"], witness["t"])


def test_free_commensurate_examples():
    g, s, t = _free_oracle("ab", "baba")
    assert s == 2 and t == 1
    _verify_commensurate("ab", "baba", g, s, t)
    assert _free_oracle("ab", "aabb") is None
    g, s, t = _free_oracle("ab", "AB")
    _verify_commensurate("ab", "AB", g, s, t)
    # the trivial element is left to the bounded search
    assert FREE.commensurate("aA", "b") is None


@given(st.text(alphabet=LETTERS, min_size=1, max_size=4),
       st.text(alphabet=LETTERS, max_size=3),
       st.integers(-3, 3))
def test_free_commensurate_detects_conjugate_powers(a, conj, k):
    if free_reduce(a) == "" or k == 0:
        return
    ak = a * k if k > 0 else inverse_word(a) * (-k)
    b = free_reduce(conj + ak + inverse_word(conj))
    res = _free_oracle(a, b)
    assert res is not None
    _verify_commensurate(a, b, *res)


# A reference copy of the first overlap_root (a scan of every relative offset
# of the two lines, in both orientations of b); the derived version must
# agree with it exactly, and the backend's oracle with
# free_commensurate_reference.

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


def _assert_matches_references(a, b):
    res = overlap_root(a, b)
    got = None if res is None else (res.c, res.shift_a, res.shift_b, res.exp_a, res.exp_b)
    assert got == reference_overlap_root(a, b), (a, b)
    assert FREE.commensurate(a, b) == reference_free_oracle(a, b), (a, b)


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
    # conjugate of a the oracle's conjugators
    a = rotate(root * ka, i)
    b = rotate((inverse_word(root) if inverse else root) * kb, j)
    _assert_matches_references(a, b)
    _assert_matches_references(a, other)
    a_conj = free_reduce(conj + a + inverse_word(conj))
    assert FREE.commensurate(a_conj, b) == reference_free_oracle(a_conj, b)
