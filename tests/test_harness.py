import itertools
import math
import random
from fractions import Fraction

import pytest

from periodlines.backends import (
    SURFACE_GENUS2,
    BackendError,
    BudgetExceeded,
    DehnBackend,
    FreeBackend,
    FreeProductBackend,
)
from periodlines.constants import ConstantsProfile
from periodlines import harness
from periodlines.geometry import GeometryError, shortest_conjugate
from periodlines.harness import (
    HypothesisError,
    TheoremInstance,
    commensurability_search,
    empirical_period_threshold,
    lemma41_check,
    main_theorem_check,
    _witness_search,
    weak_theorem_check,
)
from periodlines.freewords import free_commensurate, is_cyclically_reduced, overlap_root, rotate
from commensurability_reference import commensurability_reference
from period_threshold_reference import period_threshold_reference
from witness_search_reference import witness_search_reference
from zmzn_reference import zmzn_normal_form

FREE = FreeBackend(2)
FP = FreeProductBackend((2, 3))


def test_lemma41_coinciding_lines():
    res = lemma41_check(FREE, "ab", "", "ab", window=6, r=2)
    assert res.status == "witness"
    assert res.details["centralizer_member"] is True
    z = res.witness["element"]
    n = res.witness["n"]
    bn = FREE.normal_form("ab" * n)
    assert FREE.equal(FREE.mul(z, bn), FREE.mul(bn, z))


def test_lemma41_far_lines_fail_hypothesis():
    res = lemma41_check(FREE, "ab", "", "bb", window=6, r=1)
    assert res.status == "hypothesis-failed"


def test_lemma41_requires_shortest():
    dehn = DehnBackend(SURFACE_GENUS2)
    for backend, b, msg in ((FREE, "Bab", "b is not shortest in its conjugacy class"),
                            (FP, "y", "b is not loxodromic"),  # elliptic
                            (FREE, "", "b is not loxodromic"),
                            (dehn, "ab", "b is not certified loxodromic: "
                                         "the backend gives no conjugacy core")):
        with pytest.raises(HypothesisError) as exc:
            lemma41_check(backend, b, "", "", window=4, r=0)
        assert str(exc.value) == msg

    class CountingFree(FreeBackend):
        cores = 0

        def cyclic_core(self, g):
            self.cores += 1
            return super().cyclic_core(g)

    # one conjugacy core decides both hypotheses on b
    free = CountingFree(2)
    assert lemma41_check(free, "ab", "", "ab", window=6, r=2).status == "witness"
    assert free.cores == 1


@pytest.mark.parametrize("backend", [FREE, FP, DehnBackend(SURFACE_GENUS2)],
                         ids=["free", "zmzn", "dehn"])
def test_hypotheses_check_letters_first(backend):
    # Dehn has no conjugacy core, which would read the letters
    bad = backend.letters[0] + "q"
    with pytest.raises(BackendError, match="^letter 'q' not in generating set$"):
        lemma41_check(backend, bad, "", "", window=4, r=0)
    with pytest.raises(BackendError, match="^letter 'q' not in generating set$"):
        empirical_period_threshold(backend, bad, backend.letters[0], "", "", 0)


@pytest.mark.parametrize("backend", [FreeBackend(2), FreeProductBackend((2, 3))],
                         ids=["free", "zmzn"])
def test_hypotheses_make_no_mul_or_length_call(backend, monkeypatch):
    """Both hypotheses are read off the cyclic core, one normal-form pass
    per element: no product, no length, on shortest loxodromic words and
    on words refused for either hypothesis."""
    calls = []
    for name in ("mul", "length"):
        monkeypatch.setattr(backend, name, lambda *args, _name=name: calls.append(_name))
    words = (["ab", "aab", "abAB", "a", "Bab", ""] if type(backend) is FreeBackend
             else ["xy", "xyxY", "yxyx", "xyx", "yxyxy", ""])
    answers = []
    for g in words:
        try:
            answers.append(harness._require_loxodromic_shortest(backend, g, "b"))
        except HypothesisError as exc:
            answers.append(str(exc))
    assert calls == []
    assert "b is not shortest in its conjugacy class" in answers
    assert "b is not loxodromic" in answers and answers[0] == 2


def test_lemma41_window_gate_with_profile():
    profile = ConstantsProfile.create(0, 2, 1, "user-supplied", {24: (10, 5)})
    res = lemma41_check(FREE, "ab", "", "ab", window=4, r=0, profile=profile)
    assert res.status == "hypothesis-failed"
    assert "K(r)" in res.details


def test_weak_theorem_sharp_free():
    inst = TheoremInstance(FREE, "ab", "ab", "", "", 0)
    res = weak_theorem_check(inst, None, min_periods=2)
    assert res.status == "witness"
    s, t = res.witness["s"], res.witness["t"]
    assert s and t


def test_weak_theorem_rejects_shorter_a():
    inst = TheoremInstance(FREE, "ab", "abab", "", "", 0)
    with pytest.raises(HypothesisError, match=r"\|a\|"):
        weak_theorem_check(inst, None, min_periods=2)


def test_weak_theorem_hypothesis_failure():
    inst = TheoremInstance(FREE, "ab", "ba", "", "bb", 0)
    res = weak_theorem_check(inst, None, min_periods=2)
    assert res.status == "hypothesis-failed"


def test_weak_theorem_free_product_alignment():
    # conjugating xy by the order-2 generator gives yx; the lines L(1, xy)
    # and L(x, yx) run within distance 1 of each other
    inst = TheoremInstance(FP, "xy", "yx", "", "x", 1)
    res = weak_theorem_check(inst, None, min_periods=3)
    assert res.status == "witness"
    s, t = res.witness["s"], res.witness["t"]
    u = FP.normal_form("x")
    lhs = FP.mul(FP.mul(u, FP.normal_form("yx" * s if s > 0 else "xY" * -s)), u)
    rhs = FP.normal_form("xy" * t if t > 0 else "Yx" * -t)
    assert FP.equal(lhs, rhs)


def test_main_theorem_sharp_mode_guards():
    inst = TheoremInstance(FP, "xy", "xy", "", "", 0)
    with pytest.raises(HypothesisError):
        main_theorem_check(inst, None, sharp_free=True)
    inst = TheoremInstance(FREE, "ab", "ab", "", "", 1)
    with pytest.raises(HypothesisError):
        main_theorem_check(inst, None, sharp_free=True)
    inst = TheoremInstance(FREE, "ab", "ab", "", "", 0)
    with pytest.raises(HypothesisError):
        main_theorem_check(inst, None)  # profile required outside sharp mode


def _z2z3(w, n=1):
    """w^n in Z/2*Z/3 by syllable arithmetic, without the backend."""
    return zmzn_normal_form((2, 3), (w if n > 0 else w[::-1].swapcase()) * abs(n))


def test_main_theorem_ratio3_trims_both_lines():
    """|a|/|b| = 3 with the acceptance-10 profile, built as acceptance 10
    builds its instances: b is the shortest conjugate w^-1 c w of the period
    word c, a = c^3, y = x w and r = max(1, |w|).  The trimmed phases
    [k, k + trimmed] of L(x, a) must be compared with the b-line window over
    the same phases; a window centred on phases [0, trimmed] misses the
    last periods of the a-line."""
    profile = ConstantsProfile.create(Fraction(1, 2), 2, 1, "user-supplied", {64: (70, 2)})
    c, h, x = "xY", "yx", "y"
    inner, b, _ = shortest_conjugate(FP, FP.mul(FP.mul(FP.inv(h), c), h))
    w = FP.mul(h, inner)
    y, r, a = FP.mul(x, w), max(1, len(w)), c * 3
    assert len(a) == 3 * len(b)
    res = main_theorem_check(TheoremInstance(FP, a, b, x, y, r), profile)
    assert res.status == "witness", res.details
    assert res.details["k"] >= 3 and res.details["r_base"] == 3
    s, t = res.witness["s"], res.witness["t"]
    assert s and t
    u = _z2z3(_z2z3(x, -1) + y)
    assert _z2z3(u + _z2z3(b, s) + _z2z3(u, -1)) == _z2z3(a, t)


def test_commensurability_search_free_exact():
    witness, cert = commensurability_search(FREE, "ab", "baba")
    assert cert == "exact"
    assert witness["s"] == 2 and witness["t"] == 1
    none, cert = commensurability_search(FREE, "ab", "aabb")
    assert none is None and cert == "exact: non-commensurable"
    with pytest.raises(HypothesisError):
        commensurability_search(FREE, "", "a")


def test_commensurability_search_bounded():
    # Z/2*Z/3 answers loxodromic pairs by its oracle; without it, bounded
    witness, cert = commensurability_search(_NoOracleFP((2, 3)), "xy", "yx", max_exponent=3,
                                            conjugator_bound=2)
    assert witness is not None and cert.startswith("bounded")
    g, s, t = witness["g"], witness["s"], witness["t"]
    lhs = FP.normal_form("xy" * s if s > 0 else "Yx" * -s)
    bt = FP.normal_form("yx" * t if t > 0 else "xY" * -t)
    rhs = FP.mul(FP.mul(FP.inv(g), bt), g)
    assert FP.equal(lhs, rhs)


def test_commensurability_search_matches_candidate_loop():
    """The bounded search, run through the theorems' witness search over
    the conjugator ball, returns the candidate loop's witness and
    certificate: on every ordered pair of Z/2*Z/3 words of length 1 to 3
    (finite-order ones too, whose powers repeat and whose trivial powers
    both sides drop) at bounds (3, 2), where powers match as identical
    normal forms, on a Z/2*Z/3 without the exact oracle, and at (3, 1) on
    genus-2 pairs (w^2, w) and (w, c), |w| <= 2, c a letter, where
    Dehn-reduced powers are bucketed by their exponent sums.  Where no key
    agrees, the search asks no equal."""
    class Counting(DehnBackend):
        calls = 0

        def equal(self, u, v):
            self.calls += 1
            return super().equal(u, v)

    dehn = DehnBackend(SURFACE_GENUS2)
    fp_words = ["".join(w) for n in (1, 2, 3) for w in itertools.product("xyY", repeat=n)]
    dehn_words = ["".join(w) for n in (1, 2) for w in itertools.product(dehn.letters, repeat=n)]
    fp = _NoOracleFP((2, 3))
    cases = [(fp, a, b, 3, 2) for a in fp_words for b in fp_words]
    cases += [(dehn, w * 2, w, 3, 1) for w in dehn_words]
    cases += [(dehn, w, c, 3, 1) for w in dehn_words for c in dehn.letters]
    found = {fp: 0, dehn: 0}
    for backend, a, b, n, bound in cases:
        if backend.is_identity(a) or backend.is_identity(b):
            continue
        got = commensurability_search(backend, a, b, n, bound)
        assert got == commensurability_reference(backend, a, b, n, bound), (a, b)
        found[backend] += got[0] is not None
    assert found[fp] > 400 and found[dehn] == 64 + 32, found
    counting = Counting(SURFACE_GENUS2)
    assert commensurability_search(counting, "ab", "ac", 8, 2) == \
        (None, "not found within bounds (8,2)")
    assert counting.calls == 0


def test_commensurability_search_needs_nontrivial_powers():
    """x^2 = y^3 = 1 in Z/2*Z/3 is no witness: the bounded search drops
    trivial powers.  x is commensurable with itself through x^-1 = x,
    the first pair in the search order."""
    assert commensurability_search(FP, "x", "y") == (None, "not found within bounds (8,4)")
    assert commensurability_search(FP, "x", "x") == ({"g": "", "s": -1, "t": 1}, "bounded(8,4)")
    assert commensurability_search(FP, "y", "Y", 3, 2) == \
        ({"g": "", "s": -1, "t": 1}, "bounded(3,2)")


def test_commensurability_search_stops_at_the_witness_layer():
    # genus-2 powers are looked up by Dehn reduction, so a witness with
    # g = "" builds no ball layer beyond 0
    d = DehnBackend(SURFACE_GENUS2)
    assert commensurability_search(d, "DDDD", "dd") == ({"g": "", "s": -1, "t": 2}, "bounded(8,4)")
    assert d._layer_start == [0, 1]


def test_commensurability_search_refuses_a_bound_past_the_budget():
    # refused before layer 0, where ab would be its own witness
    d = DehnBackend(SURFACE_GENUS2)
    with pytest.raises(BudgetExceeded, match="^conjugator_bound 5 exceeds budget"):
        commensurability_search(d, "ab", "ab", conjugator_bound=5)
    assert d._layer_start == [0, 1]
    with pytest.raises(HypothesisError, match="^need conjugator_bound >= 0, got -1$"):
        commensurability_search(FP, "xy", "xy", conjugator_bound=-1)
    # refused before the free group's exact oracle, which reads no bound
    with pytest.raises(HypothesisError, match="^need conjugator_bound >= 0, got -1$"):
        commensurability_search(FREE, "ab", "ab", conjugator_bound=-1)


def test_commensurability_search_reverifies_bounded_witness():
    class Disagreeing(_NoOracleFP):
        def equal(self, u, v):  # the conjugation-form check refuses every hit
            return False

    with pytest.raises(RuntimeError, match="witness failed re-verification"):
        commensurability_search(Disagreeing((2, 3)), "xy", "yx", max_exponent=3,
                                conjugator_bound=2)

    class DisagreeingOracle(FreeProductBackend):
        def equal(self, u, v):  # the oracle's word-problem check refuses its witness
            return False

    with pytest.raises(RuntimeError, match="^witness failed to verify$"):
        commensurability_search(DisagreeingOracle((2, 3)), "xy", "yx")


def test_commensurability_search_bounded_hit_makes_one_equal_call():
    """On Z/2*Z/3 without the oracle the lookup by normal form finds the
    hit; the one equal call is its re-verification."""
    class Counting(_NoOracleFP):
        calls = 0

        def equal(self, u, v):
            self.calls += 1
            return super().equal(u, v)

    fp = Counting((2, 3))
    witness, cert = commensurability_search(fp, "xy", "yx")
    assert witness == {"g": "x", "s": -1, "t": -1} and cert == "bounded(8,4)"
    assert fp.calls == 1


def test_empirical_threshold_same_line():
    assert empirical_period_threshold(FREE, "ab", "ab", "", "", 0) == 1


def test_empirical_threshold_non_commensurable():
    assert empirical_period_threshold(FREE, "ab", "ba", "", "bb", 0,
                                      max_periods=4) is None


def _threshold_outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except (HypothesisError, GeometryError) as exc:
        return type(exc).__name__, str(exc)


def test_empirical_threshold_matches_loop_reference():
    """The closed form answers as the m x offset loop over a 24-period
    window did, with a 17-period one: on every commensurable acceptance-4
    pair and every 16th other one at r = 0, 1, 2, and on Z/2*Z/3
    instances, elliptic ones too.  The answer is only ever 1 or None."""
    answers = []
    for i, (a, b, commensurable) in enumerate(_acceptance4_pairs()):
        if not commensurable and i % 16:
            continue
        for r in (0, 1, 2):
            got = empirical_period_threshold(FREE, a, b, "", "", r)
            assert got == period_threshold_reference(FREE, a, b, "", "", r), (a, b, r)
            answers.append(got)
    assert set(answers) == {1, None}
    rng = random.Random(41)
    answers = []
    for _ in range(300):
        a, b, x, y = ("".join(rng.choice("xyY") for _ in range(rng.randint(lo, 4)))
                      for lo in (1, 1, 0, 0))
        r, n = rng.randint(0, 2), rng.randint(1, 4)
        got = _threshold_outcome(empirical_period_threshold, FP, a, b, x, y, r, n)
        assert got == _threshold_outcome(period_threshold_reference, FP, a, b, x, y, r, n), \
            (a, b, x, y, r, n)
        answers.append(got if got in (1, None) else got[0])
    assert {1, None, "HypothesisError"} <= set(answers)


def _count_line_work(monkeypatch):
    """Counters on the harness's periodic_line and neighborhood_profile."""
    calls = {"periodic_line": 0, "neighborhood_profile": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(harness, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(harness, name, counted)
    return calls


@pytest.mark.parametrize("backend,a,b,r", [(FREE, "aab", "ab", r) for r in (0, 1, 2)]
                         + [(FP, "xyxY", "xy", r) for r in (0, 1, 2)],
                         ids=[f"{name}-r{r}" for name in ("free", "zmzn") for r in (0, 1, 2)])
def test_empirical_threshold_without_witness_builds_no_line(monkeypatch, backend, a, b, r):
    # the witness search decides first; with no witness, no line is built
    calls = _count_line_work(monkeypatch)
    assert empirical_period_threshold(backend, a, b, "", "", r) is None
    assert calls == {"periodic_line": 0, "neighborhood_profile": 0}


def test_empirical_threshold_with_witness_sweeps_both_lines(monkeypatch):
    calls = _count_line_work(monkeypatch)
    assert empirical_period_threshold(FREE, "ab", "ab", "", "", 1) == 1
    assert calls == {"periodic_line": 2, "neighborhood_profile": 1}


def test_every_statement_refuses_a_non_positive_exponent_bound(monkeypatch):
    calls = _count_line_work(monkeypatch)
    inst = TheoremInstance(FREE, "ab", "ab", "", "", 0, max_exponent=0)
    statements = [
        lambda: empirical_period_threshold(FREE, "ab", "ab", "", "", 0, max_exponent=0),
        lambda: lemma41_check(FREE, "ab", "", "ab", window=6, r=0, max_exponent=-1),
        lambda: weak_theorem_check(inst, min_periods=2),
        lambda: main_theorem_check(inst, sharp_free=True),
        lambda: commensurability_search(FREE, "ab", "ab", max_exponent=0),
        lambda: commensurability_search(FP, "xy", "xyxy", max_exponent=0),
    ]
    for statement in statements:
        with pytest.raises(HypothesisError, match=r"^need max_exponent >= 1, got -?[01]$"):
            statement()
    assert calls == {"periodic_line": 0, "neighborhood_profile": 0}


def test_empirical_threshold_needs_a_period():
    with pytest.raises(GeometryError, match="max_periods >= 1"):
        empirical_period_threshold(FREE, "ab", "ab", "", "", 0, max_periods=0)


def _acceptance4_pairs():
    """The instances of acceptance 4: pairs of cyclically reduced rank-2
    words of length 1..4, rotated onto their common axis where one exists,
    with whether one does."""
    corpus = [w for n in range(1, 5) for w in map("".join, itertools.product("abAB", repeat=n))
              if is_cyclically_reduced(w)]
    for a in corpus:
        for b in corpus:
            if len(a) >= len(b):
                res = overlap_root(a, b)
                if res is None:
                    yield a, b, False
                else:
                    yield rotate(a, res.shift_a), rotate(b, res.shift_b), True


def _count_powers(monkeypatch):
    calls = []
    powers = harness._powers
    monkeypatch.setattr(harness, "_powers", lambda *args: calls.append(args) or powers(*args))
    return calls


def test_witness_search_asks_the_exact_oracle_first(monkeypatch):
    """On the free backend a non-commensurable pair builds no power table;
    a commensurable one still runs the bounded search under its u."""
    calls = _count_powers(monkeypatch)
    assert _witness_search(FREE, "aab", "ab", "", "", 8) is None
    assert _witness_search(FREE, "aab", "ab", "b", "Ab", 8) is None
    assert calls == []
    assert _witness_search(FREE, "abab", "ab", "", "", 8) == {"s": -2, "t": -1}
    assert calls
    calls.clear()
    # commensurable, but no witness under u = b: the oracle's conjugator
    # is not u, so the bounded search decides
    assert _witness_search(FREE, "abab", "ab", "", "b", 8) is None
    assert calls


class _NoOracleFree(FreeBackend):
    def commensurate(self, a, b):
        return None


class _NoOracleFP(FreeProductBackend):
    def commensurate(self, a, b):
        return None


def _zmzn_core(w):
    """The cyclic core of w in Z/2*Z/3 from reference normal forms:
    conjugate by the first letter while that shortens the word."""
    w = zmzn_normal_form((2, 3), w)
    while len(w) >= 2 and len(zmzn_normal_form((2, 3), w[1:] + w[0])) < len(w):
        w = zmzn_normal_form((2, 3), w[1:] + w[0])
    return w


def _zmzn_loxodromic(max_syllables):
    """The loxodromic Z/2*Z/3 normal forms of 2 to max_syllables
    syllables, shortest in their class or not: those whose core keeps two
    syllables or more."""
    words = {zmzn_normal_form((2, 3), w) for n in range(2, max_syllables + 1)
             for w in map("".join, itertools.product("xyY", repeat=n))}
    return sorted((w for w in words if 2 <= len(w) <= max_syllables and len(_zmzn_core(w)) >= 2),
                  key=lambda w: (len(w), w))


def test_witness_search_oracle_exit_matches_the_bounded_search():
    """With one seeded random u = x^-1 y per acceptance-4 pair (x and y of
    0 to 3 letters), the search that asks the oracle first answers as the
    bounded search alone does, on every pair; and so on 3,000 seeded
    Z/2*Z/3 instances of loxodromic a and b of up to 5 syllables."""
    bounded = _NoOracleFree(2)
    rng = random.Random(25)
    found = 0
    for a, b, _ in _acceptance4_pairs():
        x, y = ("".join(rng.choice("abAB") for _ in range(rng.randint(0, 3))) for _ in "xy")
        witness = _witness_search(FREE, a, b, x, y, 8)
        assert witness == _witness_search(bounded, a, b, x, y, 8), (a, b, x, y)
        found += witness is not None
    assert found > 20, found
    bounded = _NoOracleFP((2, 3))
    lox = _zmzn_loxodromic(5)
    found = 0
    for _ in range(3000):
        a, b = rng.choice(lox), rng.choice(lox)
        x, y = ("".join(rng.choice("xyY") for _ in range(rng.randint(0, 3))) for _ in "xy")
        witness = _witness_search(FP, a, b, x, y, 8)
        assert witness == _witness_search(bounded, a, b, x, y, 8), (a, b, x, y)
        found += witness is not None
    assert found > 100, found


def _zmzn_commensurable_reference(a, b):
    """Commensurability of loxodromic Z/2*Z/3 elements from reference
    normal forms and cyclic permutations: cyclically reduce each by
    conjugating with its first letter while that shortens it, and ask
    whether the core powers of equal length lcm(|c|, |d|), c^(l / |c|)
    and d^(l / |d|) or its inverse, are cyclic permutations of each
    other."""
    c, d = _zmzn_core(a), _zmzn_core(b)
    n = len(c) * len(d) // math.gcd(len(c), len(d))
    d_power = d * (n // len(d))
    return any(len(p) == n and p in (c * (n // len(c))) * 2
               for p in (d_power, zmzn_normal_form((2, 3), d_power[::-1].swapcase())))


def test_zmzn_oracle_matches_the_reference():
    """On every pair of loxodromic Z/2*Z/3 normal forms of up to 6
    syllables, the oracle is exact, agrees with the reference, and every
    witness verifies by reference normal forms; it never answers
    "non-commensurable" where the bounded search (8, 2) finds a witness."""
    lox = _zmzn_loxodromic(6)
    bounded = _NoOracleFP((2, 3))
    verdicts = {True: 0, False: 0}
    for a in lox:
        for b in lox:
            witness, cert = FP.commensurate(a, b)
            commensurable = _zmzn_commensurable_reference(a, b)
            assert (witness is not None) == commensurable, (a, b)
            assert cert == ("exact" if commensurable else "exact: non-commensurable")
            verdicts[commensurable] += 1
            if commensurable:
                g, s, t = witness["g"], witness["s"], witness["t"]
                assert s > 0 and t
                assert _z2z3(_z2z3(g, -1) + _z2z3(b, t) + g) == _z2z3(a, s), (a, b, witness)
            else:
                assert commensurability_search(bounded, a, b, 8, 2)[0] is None, (a, b)
    assert len(lox) == 36 and verdicts == {True: 504, False: 792}, verdicts


def test_free_oracle_matches_free_commensurate():
    """On every pair of nontrivial elements of length <= 5 of the free
    group of rank 2, the backend's oracle returns free_commensurate's
    witness, byte for byte, and "non-commensurable" exactly where it
    returns None."""
    elements = [w for w in FREE.ball(5) if w]
    for a in elements:
        for b in elements:
            res = free_commensurate(a, b)
            expected = ((None, "exact: non-commensurable") if res is None
                        else ({"g": res[0], "s": res[1], "t": res[2]}, "exact"))
            assert FREE.commensurate(a, b) == expected, (a, b)


def test_witness_search_matches_pairwise_reference():
    """The search over pairs whose element keys agree finds the pairwise
    loop's witness (or none): on every commensurable acceptance-4 pair and
    every 16th other one (the reference tries all 256 pairs (s, t) there),
    on Z/2*Z/3 instances, elliptic ones too, whose powers repeat, and on
    genus-2 instances, where equal elements can have different
    Dehn-reduced words."""
    found = 0
    for i, (a, b, commensurable) in enumerate(_acceptance4_pairs()):
        if not commensurable and i % 16:
            continue
        witness = _witness_search(FREE, a, b, "", "", 8)
        assert witness == witness_search_reference(FREE, a, b, "", "", 8), (a, b)
        found += witness is not None
    assert found > 100
    rng = random.Random(31)
    found = 0
    for _ in range(300):
        a, b, x, y = ("".join(rng.choice("xyY") for _ in range(rng.randint(lo, 4)))
                      for lo in (1, 1, 0, 0))
        n = rng.randint(1, 6)
        witness = _witness_search(FP, a, b, x, y, n)
        assert witness == witness_search_reference(FP, a, b, x, y, n), (a, b, x, y, n)
        found += witness is not None
    assert found > 50
    # abAB and dcDC, the two halves of the relator, are one element in two
    # Dehn-reduced spellings.  b = p^-1 w^j p and a = w^k with x^-1 y = p
    # are commensurable through x^-1 y; random a, b, x, y mostly are not.
    dehn = DehnBackend(SURFACE_GENUS2)
    rng = random.Random(59)
    cases = [("abAB", "dcDC", "", "", 3), ("cabAB", "cdcDC", "a", "a", 3)]
    for i in range(200):
        w, p, x, a, b = ("".join(rng.choice(dehn.letters) for _ in range(rng.randint(lo, 4)))
                         for lo in (1, 0, 0, 1, 1))
        y = dehn.mul(x, p)
        if i % 2:
            a = w * rng.randint(1, 3)
            b = dehn.mul(dehn.mul(dehn.inv(p), w * rng.randint(1, 3)), p)
        cases.append((a, b, x, y, rng.randint(1, 4)))
    found = 0
    for a, b, x, y, n in cases:
        witness = _witness_search(dehn, a, b, x, y, n)
        assert witness == witness_search_reference(dehn, a, b, x, y, n), (a, b, x, y, n)
        found += witness is not None
    assert found > 50
