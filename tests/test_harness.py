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
from periodlines.freewords import is_cyclically_reduced, overlap_root, power_word, rotate
from periodlines.words import primitive_root
from commensurability_reference import commensurability_reference
from free_commensurate_reference import reference_free_oracle
from lemma41_reference import lemma41_reference
from period_threshold_reference import period_threshold_reference
from witness_search_reference import witness_search_reference
from zmzn_reference import zmzn_normal_form

FREE = FreeBackend(2)
FP = FreeProductBackend((2, 3))


def _counting(cls):
    """cls with counters on cyclic_core and commensurate."""
    class Counting(cls):
        cores = 0
        oracle = 0

        def cyclic_core(self, g):
            self.cores += 1
            return super().cyclic_core(g)

        def commensurate(self, *args):
            self.oracle += 1
            return super().commensurate(*args)

    return Counting


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

    # one conjugacy core decides both hypotheses on b
    free = _counting(FreeBackend)(2)
    assert lemma41_check(free, "ab", "", "ab", window=6, r=2).status == "witness"
    assert free.cores == 1

    # nor are the theorems and the threshold, whose witness search reads a's core
    for statement in (lambda: empirical_period_threshold(dehn, "abab", "ab", "", "", 0),
                      lambda: weak_theorem_check(TheoremInstance(dehn, "abab", "ab", "", "", 0),
                                                 min_periods=2)):
        with pytest.raises(HypothesisError, match="^a is not certified loxodromic"):
            statement()


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
    assert "b is not loxodromic" in answers and answers[0] == ("", words[0])


def test_lemma41_window_gate_with_profile():
    profile = ConstantsProfile.create(0, 2, 1, "user-supplied", {24: (10, 5)})
    res = lemma41_check(FREE, "ab", "", "ab", window=4, r=0, profile=profile)
    assert res.status == "hypothesis-failed"
    assert "K(r)" in res.details


def _lemma41_answer(check, *args):
    try:
        return check(*args)
    except HypothesisError as exc:
        return "refused", str(exc)


@pytest.mark.parametrize("backend", [FreeBackend(2), FreeProductBackend((2, 3))],
                         ids=["free:2", "zmzn:2,3"])
def test_lemma41_matches_power_loop_reference(backend):
    """One commutation gives the power loop's answer on seeded instances:
    b mostly cyclically reduced (a core on free:2, an alternating word on
    zmzn:2,3), else a random word (refused as elliptic or not shortest now
    and then), and x_q = x_p times a power of b's root
    (the lines coincide, so z commutes with b), a letter or a random word,
    under windows 1 to 3, r 0 to 4, the loop's exponent bounds 1, 2 and 8,
    and at r = 0 now and then a profile whose K(r) gates the window."""
    rng = random.Random(400)
    letters = "abAB" if type(backend) is FreeBackend else "xyY"
    profile = ConstantsProfile.create(0, 2, 1, "user-supplied", {24: (10, 5)})
    counts = {}
    for i in range(400):
        b = "".join(rng.choice(letters) for _ in range(rng.randint(1, 5)))
        if i % 5 and letters == "xyY":  # cyclically alternating, so loxodromic
            b = "".join("x" + rng.choice("yY") for _ in range(rng.randint(1, 3)))
        elif i % 5:
            b = backend.cyclic_core(b)[1] or b
        x_p = "".join(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        if i % 3 == 0:
            rho = primitive_root(backend.normal_form(b) or b)[0]
            k = rng.randint(-2, 2)
            x_q = backend.mul(x_p, (rho if k > 0 else backend.inv(rho)) * abs(k))
        elif i % 3 == 1:
            x_q = x_p + rng.choice(letters)
        else:
            x_q = "".join(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        r = rng.randint(0, 4)
        args = (backend, b, x_p, x_q, rng.randint(1, 3), r,
                profile if r == 0 and i % 4 == 0 else None)
        max_exponent = rng.choice((1, 2, 8))
        answer = _lemma41_answer(lemma41_check, *args)
        assert answer == _lemma41_answer(lemma41_reference, *args, max_exponent), \
            (args, max_exponent)
        status = answer[0] if type(answer) is tuple else answer.status
        counts[status] = counts.get(status, 0) + 1
    assert counts["witness"] > 60 and counts["refused"] > 30, counts
    assert counts["no-witness-within-bounds"] > 0 and counts["hypothesis-failed"] > 200, counts


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
    genus-2 pairs (w^2, w) and (w, c), |w| <= 2, c a letter, and seeded
    pairs (w^k, p^-1 w^j p), |p| <= 1, where Dehn-reduced powers are
    bucketed by their exponent sums: abAB and dcDC, the two halves of the
    relator, are one element in two Dehn-reduced spellings, so equal keys
    need not mean identical words.  Where no key agrees, the search asks
    no equal."""
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
    halves = [(dehn, "abAB", "dcDC", 3, 1), (dehn, "cabAB", "cdcDC", 3, 1)]
    rng = random.Random(59)
    for _ in range(100):
        w, p = ("".join(rng.choice(dehn.letters) for _ in range(rng.randint(lo, 3)))
                for lo in (1, 0))
        p = p[:1]
        b = dehn.mul(dehn.mul(dehn.inv(p), w * rng.randint(1, 2)), p)
        halves.append((dehn, w * rng.randint(1, 2), b, 3, 1))
    cases += halves
    found = {fp: 0, dehn: 0}
    for backend, a, b, n, bound in cases:
        if backend.is_identity(a) or backend.is_identity(b):
            continue
        got = commensurability_search(backend, a, b, n, bound)
        assert got == commensurability_reference(backend, a, b, n, bound), (a, b)
        found[backend] += got[0] is not None
    assert found[fp] > 400 and found[dehn] == 64 + 32 + 94, found
    assert commensurability_search(dehn, "abAB", "dcDC", 3, 1)[0] is not None
    counting = Counting(SURFACE_GENUS2)
    assert commensurability_search(counting, "ab", "ac", 8, 2) == \
        (None, "not found within bounds (8,2)")
    assert counting.calls == 0


def test_commensurability_search_needs_nontrivial_powers():
    """x^2 = y^3 = 1 in Z/2*Z/3 is no witness: the bounded search drops
    trivial powers, and the oracle knows x and y lie in conjugates of
    different factors.  x is commensurable with itself through x^-1 = x,
    the first pair in the search order."""
    assert commensurability_search(FP, "x", "y") == (None, "exact: non-commensurable")
    assert commensurability_search(_NoOracleFP((2, 3)), "x", "y") == \
        (None, "not found within bounds (8,4)")
    # yxY lies in a conjugate of x's factor, and xy has infinite order
    assert FP.commensurate("yxY", "Y") == (None, "exact: non-commensurable")
    assert FP.commensurate("x", "xy") == (None, "exact: non-commensurable")
    assert FP.commensurate("yxY", "x") is None
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


def test_witness_search_reads_a_root_and_builds_no_power(monkeypatch):
    """Given a's core, the witness search reads a's root and builds no
    power table and asks no oracle, for a non-commensurable pair and a
    commensurable one under its u."""
    calls = _count_powers(monkeypatch)
    monkeypatch.setattr(FREE, "commensurate", lambda *args: calls.append(args))

    def search(a, b, x, y, n):
        return _witness_search(FREE, a, b, x, y, n, FREE.cyclic_core(a))

    assert search("aab", "ab", "", "", 8) is None
    assert search("aab", "ab", "b", "Ab", 8) is None
    assert search("abab", "ab", "", "", 8) == {"s": -2, "t": -1}
    # BABA = (ab)^-2: j = -2 over inv(rho) = BA, and (BABA)^-1 = (ab)^2
    assert search("ab", "BABA", "", "", 8) == {"s": -1, "t": 2}
    # commensurable, but no witness under u = b: b (ab) b^-1 = ba is no
    # power of the root ab
    assert search("abab", "ab", "", "b", 8) is None
    # the least witness (s, t) = (-2, -1) is cut off by the bound
    assert search("abab", "ab", "", "", 1) is None
    assert calls == []


# (a, b) on free:2 and a Z/2*Z/3 pair of the same kind: commensurable or not
_ZMZN_PAIRS = {("abab", "ab"): ("xyxy", "xy"), ("aab", "ab"): ("xyxY", "xy")}


@pytest.mark.parametrize("a, b", [("abab", "ab"), ("aab", "ab")])
def test_statements_read_each_core_once(monkeypatch, a, b):
    """The hypotheses hand a's core on to the witness search: one threshold
    op and one weak theorem check on free:2 and on zmzn:2,3 each make 2
    cyclic_core calls, no oracle call and build no power table,
    commensurable pair or not."""
    powers = _count_powers(monkeypatch)
    for make, (a_, b_) in ((lambda: _counting(FreeBackend)(2), (a, b)),
                           (lambda: _counting(FreeProductBackend)((2, 3)), _ZMZN_PAIRS[a, b])):
        backend = make()
        empirical_period_threshold(backend, a_, b_, "", "", 1)
        assert (backend.cores, backend.oracle) == (2, 0)
        backend = make()
        weak_theorem_check(TheoremInstance(backend, a_, b_, "", "", 0), min_periods=2)
        assert (backend.cores, backend.oracle) == (2, 0)
    assert powers == []


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
    0 to 3 letters), the exact search (a's root, which needs no oracle)
    answers as the bounded search does, the pairwise loop over every
    (s, t) within the bound, on every pair; and so on 3,000 seeded
    Z/2*Z/3 instances of loxodromic a and b of up to 5 syllables."""
    rng = random.Random(25)
    found = 0
    for a, b, _ in _acceptance4_pairs():
        x, y = ("".join(rng.choice("abAB") for _ in range(rng.randint(0, 3))) for _ in "xy")
        witness = _witness_search(FREE, a, b, x, y, 8, FREE.cyclic_core(a))
        assert witness == witness_search_reference(FREE, a, b, x, y, 8), (a, b, x, y)
        found += witness is not None
    assert found > 20, found
    lox = _zmzn_loxodromic(5)
    found = 0
    for _ in range(3000):
        a, b = rng.choice(lox), rng.choice(lox)
        x, y = ("".join(rng.choice("xyY") for _ in range(rng.randint(0, 3))) for _ in "xy")
        witness = _witness_search(FP, a, b, x, y, 8, FP.cyclic_core(a))
        assert witness == witness_search_reference(FP, a, b, x, y, 8), (a, b, x, y)
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


@pytest.mark.parametrize("orders", [(2, 3), (3, 3)], ids=["zmzn:2,3", "zmzn:3,3"])
def test_oracle_on_finite_order_matches_the_bounded_search(orders):
    """On every pair of nontrivial elements of length <= 4, one of them of
    finite order, the oracle answers "non-commensurable" exactly where the
    bounded search (8, 2) finds no witness, and leaves the others, two
    elements of finite order in conjugates of one factor, to it."""
    fp = FreeProductBackend(orders)
    bounded = _NoOracleFP(orders)
    elements = [w for w in fp.ball(4) if w]
    finite = {w for w in elements if len(fp.cyclic_core(w)[1]) == 1}
    verdicts = {True: 0, False: 0}
    for a in elements:
        for b in elements:
            if a in finite or b in finite:
                exact = fp.commensurate(a, b)
                assert exact in (None, (None, "exact: non-commensurable")), (a, b)
                found = commensurability_search(bounded, a, b, 8, 2)[0] is not None
                assert (exact is None) == found, (a, b)
                verdicts[found] += 1
    assert verdicts[True] >= 25 and verdicts[False] >= 200, verdicts


def test_free_oracle_matches_the_reference():
    """On every pair of nontrivial elements of length <= 5 of the free
    group of rank 2, the backend's oracle returns the rotation loop's
    witness (tests/free_commensurate_reference.py), byte for byte, and
    "non-commensurable" exactly where the loop finds none."""
    elements = [w for w in FREE.ball(5) if w]
    assert len(elements) == 484
    for a in elements:
        for b in elements:
            assert FREE.commensurate(a, b) == reference_free_oracle(a, b), (a, b)


def test_witness_search_matches_pairwise_reference():
    """The witness read off a's root is the pairwise loop's (or none): on
    every commensurable acceptance-4 pair and every 16th other one (the
    reference tries all 256 pairs (s, t) there), under u = 1 and under one
    seeded random u = x^-1 y (x and y of 0 to 3 letters), and on 1,000
    seeded Z/2*Z/3 instances of loxodromic a and b of up to 5 syllables,
    shortest in their classes or not, under exponent bounds 1 to 8."""
    rng = random.Random(25)
    found = 0
    for i, (a, b, commensurable) in enumerate(_acceptance4_pairs()):
        x, y = ("".join(rng.choice("abAB") for _ in range(rng.randint(0, 3))) for _ in "xy")
        if not commensurable and i % 16:
            continue
        for u in (("", ""), (x, y)):
            witness = _witness_search(FREE, a, b, *u, 8, FREE.cyclic_core(a))
            assert witness == witness_search_reference(FREE, a, b, *u, 8), (a, b, u)
            found += witness is not None
    assert found > 120, found
    lox = _zmzn_loxodromic(5)
    found = 0
    for _ in range(1000):
        a, b = rng.choice(lox), rng.choice(lox)
        x, y = ("".join(rng.choice("xyY") for _ in range(rng.randint(0, 3))) for _ in "xy")
        n = rng.randint(1, 8)
        witness = _witness_search(FP, a, b, x, y, n, FP.cyclic_core(a))
        assert witness == witness_search_reference(FP, a, b, x, y, n), (a, b, x, y, n)
        found += witness is not None
    assert found > 100, found


@pytest.mark.parametrize("orders", [(2, 2), (3, 3)], ids=["zmzn:2,2", "zmzn:3,3"])
def test_root_witness_matches_pairwise_reference(orders):
    """The witness read off a's root is the pairwise loop's, on seeded
    loxodromic a = p rho^k p^-1 and b = q rho^l q^-1 (p mostly nonempty,
    so a is not cyclically reduced and its core has a conjugator) or b
    random, under a u = x^-1 y that aligns them (y = x p q^-1) or a random
    one.  At max_exponent 1 and 2 the bound cuts off some least witnesses
    that max_exponent 8 finds.  In Z/2*Z/2 a loxodromic normal form
    alternates x and y with even length, so it is its own core: only
    Z/3*Z/3 gives a conjugator."""
    fp = FreeProductBackend(orders)
    rng = random.Random(28)

    def word(lo, hi):
        return fp.normal_form("".join(rng.choice(fp.letters) for _ in range(rng.randint(lo, hi))))

    found, cut, conjugated = 0, 0, 0
    for _ in range(600):
        rho, p, q, x = word(2, 4), word(0, 2), word(0, 2), word(0, 2)
        if len(fp.cyclic_core(rho)[1]) < 2:
            continue
        a = fp.normal_form(p + rho * rng.randint(1, 3) + fp.inv(p))
        b = fp.normal_form(q + power_word(rho, rng.choice((1, 2, 3, -1, -2, -3))) + fp.inv(q))
        if rng.random() < 0.2:
            b = word(2, 5)
        y = fp.normal_form(x + p + fp.inv(q)) if rng.random() < 0.8 else word(0, 3)
        if len(fp.cyclic_core(b)[1]) < 2:
            continue
        conjugated += fp.cyclic_core(a)[0] != ""
        witnesses = []
        for n in (1, 2, 8):
            witness = _witness_search(fp, a, b, x, y, n, fp.cyclic_core(a))
            assert witness == witness_search_reference(fp, a, b, x, y, n), (a, b, x, y, n)
            witnesses.append(witness)
        found += witnesses[-1] is not None
        cut += witnesses[0] is None and witnesses[-1] is not None
    assert found > 150 and cut > 50, (found, cut)
    assert conjugated > 50 or orders == (2, 2), conjugated
