import random

import pytest

from periodlines.backends import SURFACE_GENUS2, DehnBackend, FreeBackend, FreeProductBackend
from periodlines.fourgon import (
    FourGon,
    FourGonError,
    compose,
    side_elements,
    translate_path,
    translation_element,
)
from periodlines.geometry import path_from_word
from periodlines.testutil import random_composable_pair, random_fourgon

FREE = FreeBackend(2)
FP = FreeProductBackend((2, 3))


def square(backend, start, w1, w2, w3, w4):
    p1 = path_from_word(backend, start, w1)
    p2 = path_from_word(backend, p1.end, w2)
    p3 = path_from_word(backend, p2.end, w3)
    p4 = path_from_word(backend, p3.end, w4)
    return FourGon(p1, p2, p3, p4)


def test_side_elements_square():
    P = square(FREE, "", "a", "b", "BA", "")
    P.validate(FREE)
    assert side_elements(P, FREE) == ("a", "b", "ab", "")


def test_side_elements_degenerate():
    P = square(FREE, "", "", "", "", "")
    P.validate(FREE)
    assert side_elements(P, FREE) == ("", "", "", "")


def test_side_elements_two_sided():
    P = square(FREE, "", "ab", "", "BA", "")
    P.validate(FREE)
    assert side_elements(P, FREE) == ("ab", "", "ab", "")


def test_validate_rejects_open_loop():
    p1 = path_from_word(FREE, "", "a")
    p2 = path_from_word(FREE, "a", "b")
    p3 = path_from_word(FREE, "ab", "A")
    p4 = path_from_word(FREE, "", "")  # wrong start vertex on purpose
    bad = FourGon(p1, p2, p3, p4)
    with pytest.raises(FourGonError):
        bad.validate(FREE)


def test_translation_element():
    rng = random.Random(11)
    P = random_fourgon(FREE, rng, "ab")
    h = "ba"
    Q = FourGon(*(translate_path(s, h, FREE) for s in P.sides))
    g = translation_element(P, Q, FREE)
    assert FREE.equal(g, FREE.inv(h))


def test_translation_requires_equal_labels():
    rng = random.Random(12)
    P = random_fourgon(FREE, rng, "b")
    Q = random_fourgon(FREE, rng, "a")
    with pytest.raises(FourGonError, match="tops not label-equal"):
        translation_element(P, Q, FREE)
    with pytest.raises(FourGonError, match="tops not label-equal"):
        compose(P, Q, FREE)


def test_self_composition_cancels():
    rng = random.Random(13)
    P = random_fourgon(FREE, rng, "ab")
    S = compose(P, P, FREE)
    L, T, R, B = side_elements(S, FREE)
    assert FREE.is_identity(L) and FREE.is_identity(R)


def test_composition_identities_random():
    for backend, seed in ((FREE, 21), (FP, 22)):
        rng = random.Random(seed)
        for _ in range(60):
            P, Q = random_composable_pair(backend, rng)
            S = compose(P, Q, backend)
            S.validate(backend)
            LP, _, RP, BP = side_elements(P, backend)
            LQ, _, RQ, BQ = side_elements(Q, backend)
            LS, TS, RS, BS = side_elements(S, backend)
            assert backend.equal(LS, backend.mul(LP, backend.inv(LQ)))
            assert backend.equal(RS, backend.mul(RP, backend.inv(RQ)))
            assert BS == BP
            assert TS == BQ


def test_composition_identities_genus2():
    """Genus-2 vertices are Dehn-reduced words, so a side can end at the
    element the next one starts at in another spelling (abAB and dcDC).
    Every seed 0-199 of fourgon-selfcheck (50 compositions each) composes,
    closes up and keeps the side identities."""
    dehn = DehnBackend(SURFACE_GENUS2)
    for seed in range(200):
        rng = random.Random(seed)
        for _ in range(50):
            P, Q = random_composable_pair(dehn, rng)
            S = compose(P, Q, dehn)
            LP, _, RP, BP = side_elements(P, dehn)
            LQ, _, RQ, BQ = side_elements(Q, dehn)
            LS, TS, RS, BS = side_elements(S, dehn)
            assert dehn.equal(LS, dehn.mul(LP, dehn.inv(LQ))), seed
            assert dehn.equal(RS, dehn.mul(RP, dehn.inv(RQ))), seed
            assert dehn.equal(BS, BP) and dehn.equal(TS, BQ), seed


def test_translate_preserves_labels():
    rng = random.Random(31)
    P = random_fourgon(FP, rng, "xy")
    for s in P.sides:
        assert translate_path(s, "yx", FP).label == s.label
