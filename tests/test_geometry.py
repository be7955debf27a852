import functools
import itertools
import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from periodlines.backends import (
    SURFACE_GENUS2,
    BackendError,
    BudgetExceeded,
    DehnBackend,
    FreeBackend,
    FreeProductBackend,
    Presentation,
)
from periodlines import geometry
from periodlines.freewords import cyclic_reduce, free_reduce, inverse_word
from periodlines.geometry import (
    GeometryError,
    PathInGraph,
    QuasiParams,
    acylindricity_profile,
    classify_element,
    estimate_delta,
    hausdorff_distance,
    injectivity_radius_estimate,
    neighborhood_contains,
    neighborhood_profile,
    path_from_word,
    periodic_line,
    quasi_geodesic_check,
    reverse_path,
    shortest_conjugate,
    slimness,
    stable_norm_estimate,
)
from periodlines.harness import _powers
from injectivity_reference import injectivity_radius_reference
from path_metric_reference import hausdorff_reference, quasi_geodesic_reference
from power_loop_reference import (
    acylindricity_profile_reference,
    classify_element_reference,
    powers_reference,
    stable_norm_estimate_reference,
)
from slimness_reference import slimness_reference

FREE = FreeBackend(2)
FP = FreeProductBackend((2, 3))
FP33 = FreeProductBackend((3, 3))
FP22 = FreeProductBackend((2, 2))
DEHN = DehnBackend(SURFACE_GENUS2)


def test_quasi_params_validation():
    QuasiParams(Fraction(1), Fraction(0))
    with pytest.raises(GeometryError):
        QuasiParams(Fraction(1, 2), Fraction(0))
    with pytest.raises(GeometryError):
        QuasiParams(Fraction(2), Fraction(-1))


def test_path_from_word():
    p = path_from_word(FREE, "", "abA")
    assert p.vertices == ["", "a", "ab", "abA"]
    assert p.label == "abA"
    q = path_from_word(FREE, "a", "A")
    assert q.vertices == ["a", ""]


def test_path_from_word_rejects_foreign_letters():
    # the metrics read distances off states grown along the label
    with pytest.raises(BackendError):
        path_from_word(FREE, "", "az")
    with pytest.raises(BackendError):
        path_from_word(DEHN, "a", "e")


def test_periodic_line_phases():
    p = periodic_line(FREE, "", "ab", 0, 3)
    assert p.start == "" and p.end == "ababab"
    assert p.phase_indices == [0, 2, 4, 6]
    assert p.period_element == "ab"
    assert [p.vertices[i] for i in p.phase_indices] == ["", "ab", "abab", "ababab"]
    # negative window
    q = periodic_line(FREE, "", "ab", -2, 0)
    assert q.start == "BABA" and q.end == ""


def test_periodic_line_period_element_is_the_normal_form():
    """period_element is the geodesic word the line is built from, which
    is normal_form(a) on every backend: on Dehn, geodesic_word succeeds
    only inside the ball, where normal_form gives the same canonical word;
    outside it no line is built."""
    cases = [(FREE, w) for w in ("ab", "aBBa", "abAB", "aaAb")] + \
        [(FP, w) for w in ("xy", "xY", "yxyx", "XyxYY")] + \
        [(DEHN, w) for w in ("ab", "abABc", "dcDCb", "abAB", "dcDC", "cdCDabABa",
                             "acacac")]
    for backend, a in cases:
        try:
            line = periodic_line(backend, "", a, 0, 2)
        except BudgetExceeded:
            assert backend is DEHN and len(backend.normal_form(a)) > backend.max_radius, a
            continue
        assert line.period_element == backend.normal_form(a), a


def _line_by_steps(backend, x, a, n_min, n_max):
    """periodic_line as first written: the window start reached by |n_min|
    multiplications by the period word, one at a time."""
    wa = backend.geodesic_word(a)
    start = backend.normal_form(x)
    step = wa if n_min > 0 else inverse_word(wa)
    for _ in range(abs(n_min)):
        start = backend.mul(start, step)
    return path_from_word(backend, start, wa * (n_max - n_min))


@pytest.mark.parametrize("backend", [FREE, FP, FP33, DEHN], ids=["free", "fp23", "fp33", "dehn"])
def test_periodic_line_start_in_one_product(backend):
    rng = random.Random(5)
    letters = "".join(backend.letters)
    for _ in range(60):
        x = "".join(rng.choice(letters) for _ in range(rng.randint(0, 6)))
        a = "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        n_min = rng.randint(-12, 5)
        n_max = n_min + rng.randint(1, 3)
        if backend.is_identity(a):
            continue
        expected = _line_by_steps(backend, x, a, n_min, n_max)
        line = periodic_line(backend, x, a, n_min, n_max)
        assert (line.vertices, line.label) == (expected.vertices, expected.label), (x, a, n_min)


def test_periodic_line_rejects_trivial_period():
    with pytest.raises(GeometryError):
        periodic_line(FREE, "", "aA", 0, 2)
    with pytest.raises(GeometryError):
        periodic_line(FREE, "", "ab", 1, 1)


def test_geodesic_word():
    assert FREE.geodesic_word("aBbA") == ""
    assert FP.geodesic_word("yyx") == "Yx"
    with pytest.raises(BudgetExceeded,
                       match="^geodesic unavailable at budget; largest completed radius is 4$"):
        DEHN.geodesic_word("aaaaa")


def test_quasi_geodesic_check_geodesic_passes():
    p = path_from_word(FREE, "", "abab")
    assert quasi_geodesic_check(p, QuasiParams(Fraction(1), Fraction(0)), FREE) == []


def test_quasi_geodesic_check_backtrack_fails():
    p = path_from_word(FREE, "", "aA" * 3)
    params = QuasiParams(Fraction(1), Fraction(0))
    violations = quasi_geodesic_check(p, params, FREE)
    assert violations
    # with a huge eps the same path passes
    assert quasi_geodesic_check(p, QuasiParams(Fraction(1), Fraction(10)), FREE) == []


def test_quasi_geodesic_check_dehn_beyond_budget():
    # d(v_0, v_5) = 5 and d(v_0, v_6) = 6 lie beyond the radius-4 budget,
    # where a distance is only certified > 4.  That bound meets the
    # threshold 6/1 - 1, but not 6/1 - 0.
    p = path_from_word(DEHN, "", "aaaaaa")
    assert quasi_geodesic_check(p, QuasiParams(Fraction(1), Fraction(1)), DEHN) == []
    with pytest.raises(BudgetExceeded):
        quasi_geodesic_check(p, QuasiParams(Fraction(1), Fraction(0)), DEHN)


def test_estimate_delta_free_is_zero():
    val, cert = estimate_delta(FREE, 2)
    assert val == 0
    assert "exhaustive" in cert


def test_estimate_delta_fp_positive():
    # the triangle y, yy has positive slimness via edge midpoints
    for radius in (2, 3):
        val, cert = estimate_delta(FP, radius)
        assert val == Fraction(1, 2)
        assert cert == f"lower_bound(exhaustive on ball({radius}))"


def test_estimate_delta_genus2():
    # ball(2) is a tree (girth 8), so triangles on ball(1) are tripods; on
    # ball(2) some side-to-side distance lies beyond the radius-4 budget
    assert estimate_delta(DEHN, 1) == (0, "lower_bound(exhaustive on ball(1))")
    with pytest.raises(BudgetExceeded, match=r"^distance not certified within radius 4$"):
        estimate_delta(DehnBackend(SURFACE_GENUS2), 2, seed=0)


def test_estimate_delta_sampled_matches_reference():
    val, cert = estimate_delta(FP33, 3, max_triangles=40, seed=5)
    assert cert == "lower_bound(sampled 40 triangles on ball(3), seed=5)"
    rng = random.Random(5)
    elems = list(FP33.ball(3))
    tris = [rng.sample(elems, 3) for _ in range(40)]
    dist = functools.lru_cache(maxsize=None)(FP33.dist)
    assert val == max(slimness_reference(FP33, tri, dist) for tri in tris)


def test_estimate_delta_exhaustive_matches_reference():
    # all 3,654 triangles of ball(3) against the Fraction point-pair scan;
    # twice 1/2 is odd, so the value comes from an edge midpoint
    backend = FreeProductBackend((3, 3))
    assert estimate_delta(backend, 3) == (Fraction(1, 2), "lower_bound(exhaustive on ball(3))")
    dist = functools.lru_cache(maxsize=None)(backend.dist)
    tris = itertools.combinations(list(backend.ball(3)), 3)
    assert max(slimness_reference(backend, tri, dist) for tri in tris) == Fraction(1, 2)


def _log_dist(backend):
    """Make backend.dist log each pair it is asked; returns the log."""
    log, dist = [], backend.dist

    def logged(u, v):
        log.append((u, v))
        return dist(u, v)

    backend.dist = logged
    return log


def _triangles(elems, max_triangles, seed):
    if math.comb(len(elems), 3) <= max_triangles:
        return itertools.combinations(elems, 3)
    rng = random.Random(seed)
    return [rng.sample(elems, 3) for _ in range(max_triangles)]


def _slimness_loop(backend, radius, max_triangles, seed):
    """estimate_delta's value as per-triangle slimness calls sharing one
    dist cache, with every sampled triangle drawn before the first check."""
    dist = geometry._cached_dist(backend)
    tris = _triangles(list(backend.ball(radius)), max_triangles, seed)
    return max(slimness(backend, tri, dist) for tri in tris)


DELTA_ASK_CASES = {
    "free2-r2": (lambda: FreeBackend(2), 2, 20000, 0),
    "zmzn23-r3": (lambda: FreeProductBackend((2, 3)), 3, 20000, 0),
    "zmzn33-r3-sampled": (lambda: FreeProductBackend((3, 3)), 3, 40, 5),
    "genus2-r1": (lambda: DehnBackend(SURFACE_GENUS2), 1, 20000, 0),
    "genus2-r2-sampled": (lambda: DehnBackend(SURFACE_GENUS2), 2, 20000, 0),
    # 3,654 triangles, every one checked
    "zmzn33-r3": (lambda: FreeProductBackend((3, 3)), 3, 20000, 0),
    # every triangle of ball(3), in order: the first raise comes from a side
    # longer than the budget (geodesic_word), after 4,181 side builds and
    # 5,082 distance asks, so the two stay in the loop's order
    "genus2-r3": (lambda: DehnBackend(SURFACE_GENUS2), 3, 10**8, 0),
    # sampled: one triangle is checked before the second side of the next
    # one raises
    "genus2-r3-sampled": (lambda: DehnBackend(SURFACE_GENUS2), 3, 20000, 37),
}


@pytest.mark.parametrize("make,radius,max_triangles,seed", DELTA_ASK_CASES.values(),
                         ids=DELTA_ASK_CASES.keys())
def test_estimate_delta_asks_as_slimness_loop(make, radius, max_triangles, seed):
    # the shared memo skips only pairs already asked: same asks, same order
    outcomes = []
    for run in (lambda b: estimate_delta(b, radius, max_triangles, seed)[0],
                lambda b: _slimness_loop(b, radius, max_triangles, seed)):
        backend = make()
        log = _log_dist(backend)
        try:
            outcomes.append((run(backend), log))
        except BudgetExceeded as exc:
            outcomes.append((str(exc), log))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1]


def test_estimate_delta_builds_each_side_once():
    backend = FreeBackend(2)
    n = len(backend.ball(2))
    calls = []
    geodesic_word = backend.geodesic_word
    backend.geodesic_word = lambda g: calls.append(g) or geodesic_word(g)
    assert estimate_delta(backend, 2) == (0, "lower_bound(exhaustive on ball(2))")
    # 680 triangles (e_i, e_j, e_k), i < j < k, with sides (e_i, e_j),
    # (e_j, e_k) and (e_k, e_i): (e_1, e_n) and the n - 1 pairs
    # (e_i+1, e_i) are never a side; one per triangle side would be 2,040
    assert len(calls) == n * (n - 1) - n == 255


def test_estimate_delta_draws_samples_lazily(monkeypatch):
    draws = []

    class CountingRandom(geometry.random.Random):
        def sample(self, population, k):
            draws.append(k)
            return super().sample(population, k)

    monkeypatch.setattr(geometry, "random", types.SimpleNamespace(Random=CountingRandom))
    with pytest.raises(BudgetExceeded, match=r"^distance not certified within radius 4$"):
        estimate_delta(DehnBackend(SURFACE_GENUS2), 2, seed=0)
    # the same triangles, checked one by one until the first one that raises
    backend = DehnBackend(SURFACE_GENUS2)
    dist, checked = geometry._cached_dist(backend), 0
    with pytest.raises(BudgetExceeded):
        for tri in _triangles(list(backend.ball(2)), 20000, 0):
            checked += 1
            slimness(backend, tri, dist)
    assert len(draws) == checked < 20000


@pytest.mark.parametrize("backend", [FREE, FP, FP33, FP22], ids=["free", "zmzn", "zmzn33", "zmzn22"])
def test_slimness_matches_fraction_reference(backend):
    rng = random.Random(8)
    elems = list(backend.ball(4))
    dist = functools.lru_cache(maxsize=None)(backend.dist)
    for _ in range(60):
        # repeated corners give degenerate sides of one vertex
        tri = rng.choices(elems, k=3)
        assert slimness(backend, tri) == slimness_reference(backend, tri, dist), tri


def test_slimness_matches_reference_dehn():
    # beyond the radius-4 budget both raise: they ask for the same distances
    rng = random.Random(9)
    elems = list(DEHN.ball(2))
    dist = functools.lru_cache(maxsize=None)(DEHN.dist)
    raised = 0
    for _ in range(800):
        tri = rng.sample(elems, 3)
        try:
            expected = slimness_reference(DEHN, tri, dist)
        except BudgetExceeded:
            raised += 1
            with pytest.raises(BudgetExceeded):
                slimness(DEHN, tri)
        else:
            assert slimness(DEHN, tri) == expected, tri
    assert 0 < raised < 800


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([FREE, FP]), st.text("abABxyY", max_size=12),
       st.fractions(min_value=1, max_value=5, max_denominator=7),
       st.fractions(min_value=0, max_value=6, max_denominator=7))
def test_quasi_geodesic_check_matches_fraction_form(backend, word, kappa, eps):
    word = "".join(c for c in word if c in backend.letters)
    p = path_from_word(backend, "", word)
    expected = [(i, j, d) for i in range(len(p.vertices)) for j in range(i + 1, len(p.vertices))
                for d in [backend.dist(p.vertices[i], p.vertices[j])]
                if Fraction(d) < Fraction(j - i) / kappa - eps]
    assert quasi_geodesic_check(p, QuasiParams(kappa, eps), backend) == expected


def test_stable_norm_examples():
    assert stable_norm_estimate(FREE, "ab", 4) == (Fraction(2), "upper_bound(n_max=4)")
    val, _ = stable_norm_estimate(FREE, "Bab", 8)
    assert val == Fraction(10, 8)


def test_stable_norm_cyclic_core_law():
    # exact stable norm in a free group is the cyclic core length
    rng = random.Random(3)
    elems = [w for w in FREE.ball(5) if w]
    for _ in range(100):
        g = rng.choice(elems)
        core_len = len(cyclic_reduce(g)[1])
        val, _ = stable_norm_estimate(FREE, g, 12)
        assert val >= core_len
        if core_len:
            # the estimate converges from above onto the core length
            assert val <= core_len + Fraction(2 * len(g), 12)


def test_classify_element():
    assert classify_element(FREE, "") == "elliptic"
    assert classify_element(FREE, "ab") == "loxodromic"
    assert classify_element(FP, "y") == "elliptic"
    assert classify_element(FP, "xyx") == "elliptic"  # conjugate of y
    assert classify_element(FP, "xy") == "loxodromic"


@pytest.mark.parametrize("backend", [FREE, FP, FreeProductBackend((2, 2)), FreeProductBackend((3, 3))],
                         ids=["free", "zmzn23", "zmzn22", "zmzn33"])
def test_classify_element_matches_orders(backend):
    # torsion in these groups has order at most 3, so a power up to 6
    # decides the order of every element
    for g in backend.ball(4):
        power, elliptic = "", False
        for _ in range(6):
            power = backend.mul(power, g)
            elliptic = elliptic or backend.is_identity(power)
        assert classify_element(backend, g) == ("elliptic" if elliptic else "loxodromic"), g


def test_shortest_conjugate_examples():
    assert shortest_conjugate(FREE, "Bab") == ("B", "a", "exact")
    conj, core, cert = shortest_conjugate(FP, "yxyY")
    assert (core, cert) == ("xy", "exact")
    assert FP.equal(FP.mul(FP.mul(FP.inv(conj), "yxyY"), conj), core)
    with pytest.raises(GeometryError, match="no conjugacy core"):
        shortest_conjugate(DEHN, "ab")


def test_shortest_conjugate_is_shortest():
    rng = random.Random(5)
    elems = [w for w in FP.ball(4) if w]
    conjugators = list(FP.ball(3))
    for _ in range(50):
        g = rng.choice(elems)
        conj, core, cert = shortest_conjugate(FP, g)
        assert cert == "exact"
        assert FP.equal(FP.mul(FP.mul(FP.inv(conj), g), conj), core)
        for h in conjugators:
            other = FP.mul(FP.mul(FP.inv(h), g), h)
            assert len(core) <= len(other)


# Dehn presentations with torsion-free groups: surfaces of genus 2 and 3 and
# the two SCAN_PATH_CASES presentations of test_backends
TORSION_FREE_DEHN = {
    "genus2": SURFACE_GENUS2,
    "genus3": Presentation(tuple("abcdef"), ("abABcdCDefEF",)),
    "aabaBBc": Presentation(("a", "b", "c"), ("aabaBBc",)),
    "aabaBBc-bccbCaCA": Presentation(("a", "b", "c"), ("aabaBBc", "bccbCaCA")),
}


@pytest.mark.parametrize("presentation", TORSION_FREE_DEHN.values(), ids=TORSION_FREE_DEHN.keys())
def test_dehn_classification_is_undecided(presentation):
    """Without a conjugacy core no nontrivial element is decided, and the
    power loop that classification no longer runs would not have decided
    one either: no power up to 24 is trivial."""
    backend = DehnBackend(presentation)
    rng = random.Random(23)
    words = ["".join(rng.choice(backend.letters) for _ in range(rng.randint(1, 8)))
             for _ in range(60)]
    nontrivial = 0
    for g in words + list(presentation.relators):
        if backend.is_identity(g):
            assert classify_element(backend, g) == "elliptic"
            continue
        nontrivial += 1
        assert classify_element(backend, g) == "undecided", g
        assert classify_element_reference(backend, g, 24) == "undecided", g
    assert nontrivial > 50


def test_injectivity_radius():
    val, cert = injectivity_radius_estimate(FREE, 2)
    assert val == 1
    assert cert.startswith("upper_bound")
    val, _ = injectivity_radius_estimate(FP, 3)
    assert val == 2  # shortest loxodromic is xy


def test_injectivity_radius_refuses_a_bound_past_the_budget():
    # refused by the caller's name for the radius, before any layer is built
    d = DehnBackend(SURFACE_GENUS2)
    with pytest.raises(BudgetExceeded, match="^length_bound 5 exceeds budget; largest completed "
                                             "radius is 4$"):
        injectivity_radius_estimate(d, 5)
    assert d._layer_start == [0, 1]


@pytest.mark.parametrize("backend, bounds", [
    (FREE, range(1, 6)), (FreeBackend(3), range(1, 6)),
    (FP, range(1, 7)), (FP33, range(1, 7)), (FP22, range(1, 7)),
], ids=["free2", "free3", "zmzn23", "zmzn33", "zmzn22"])
def test_injectivity_radius_matches_filtered_reference(backend, bounds):
    # the stable norm is a conjugacy invariant, so dropping the
    # shortest-in-class filter changes neither the value nor the witness;
    # ball(1) of a free product of finite groups has no loxodromic element
    def outcome(estimate, bound):
        try:
            return estimate(backend, bound)
        except GeometryError as exc:
            return str(exc)

    for bound in bounds:
        assert outcome(injectivity_radius_estimate, bound) == \
            outcome(injectivity_radius_reference, bound), bound


def test_genus2_stable_norm_grows_no_layer():
    # a^n is Dehn-reduced and 2 n <= L2 = 14, so each |a^n| is read off
    # the word without the ball
    d = DehnBackend(SURFACE_GENUS2)
    assert stable_norm_estimate(d, "a", 4) == (Fraction(1), "upper_bound(n_max=4)")
    assert d._layer_start == [0, 1]


@pytest.mark.parametrize("presentation, g, value", [
    (SURFACE_GENUS2, "abc", 3), (SURFACE_GENUS2, "ABC", 3),
    (TORSION_FREE_DEHN["aabaBBc"], "B", 1), (TORSION_FREE_DEHN["aabaBBc"], "bbb", 3),
], ids=["genus2-abc", "genus2-ABC", "aabaBBc-B", "aabaBBc-bbb"])
def test_dehn_stable_norm_beyond_the_budget_grows_no_layer(presentation, g, value):
    # g^n past the budget has too many letters for L2 to decide it, but a
    # homomorphism to Z puts it beyond the budget: the exponent sums on
    # genus 2, and phi(b) = 3 for phi = (1, 3, 0) on <a, b, c | aabaBBc>
    d = DehnBackend(presentation)
    best, cert = stable_norm_estimate(d, g, 8)
    assert best == value and cert.startswith("upper_bound(n_max=8, word_length_at_n=")
    assert d._layer_start == [0, 1]


def test_genus2_acylindricity_profile_grows_nothing_past_its_radius():
    # a conjugate g^-1 f g reduces to at most 9 letters, and 9 + 4 < L2 =
    # 14, so one beyond the budget needs no layer 4
    d = DehnBackend(SURFACE_GENUS2)
    assert acylindricity_profile(d, 1, 3) == (1, 3, "observed_on_ball(3)")
    assert len(d._layer_start) == 3 + 2


def test_acylindricity_profile_free():
    r_est, n_est, cert = acylindricity_profile(FREE, 0, 2)
    assert (r_est, n_est) == (1, 1)
    assert cert == "observed_on_ball(2)"


def test_acylindricity_profile_eps_bound():
    with pytest.raises(GeometryError):
        acylindricity_profile(FREE, 3, 2)


@pytest.mark.parametrize("eps, radius, message", [
    (0, 0, "need radius >= 1"), (-1, 3, "need eps >= 0")])
def test_acylindricity_profile_refuses_before_the_ball(eps, radius, message):
    d = DehnBackend(SURFACE_GENUS2)
    with pytest.raises(GeometryError, match=message):
        acylindricity_profile(d, eps, radius)
    assert d._layer_start == [0, 1]


class _NoCoreFP(FreeProductBackend):
    """Z/2*Z/3 without its conjugacy core: a group with torsion whose
    elements classification leaves undecided."""

    def cyclic_core(self, g):
        return None


POWER_LOOP_BACKENDS = {"free": FREE, "zmzn": FP, "zmzn-power-loop": _NoCoreFP((2, 3)),
                       "genus2": DEHN}


def _power_loop_words(backend):
    """Ball words, random words over every accepted letter (the order-2
    alias X on Z/2*Z/3), and on Dehn arcs of symmetrized relators, whose
    powers need Dehn rewrites."""
    rng = random.Random(17)
    letters = sorted(backend._letterset)
    words = list(backend.ball(2))
    words += ["".join(rng.choice(letters) for _ in range(rng.randint(1, 7))) for _ in range(150)]
    if isinstance(backend, DehnBackend):
        words += [rho[i:i + k] for rho in backend.presentation.symmetrized()[:8]
                  for i in range(4) for k in (3, 4, 5, 6)]
    return words


@pytest.mark.parametrize("backend", POWER_LOOP_BACKENDS.values(), ids=POWER_LOOP_BACKENDS.keys())
def test_power_loops_match_mul_reference(backend):
    """Power loops that append letters to one state give the outputs of
    the loops that multiply whole words, classification agrees with the
    reference's power loop wherever a core exists or that loop finds no
    trivial power, and a letter outside the generating set still raises
    BackendError."""
    words = _power_loop_words(backend)
    assert any("X" in w for w in words) == ("X" in backend._letterset)
    has_core = backend.cyclic_core("") is not None
    torsion = rewritten = 0
    for g in words:
        cls = classify_element(backend, g)
        if has_core or backend is DEHN:
            assert cls == classify_element_reference(backend, g, 8), g
        else:
            assert cls == ("elliptic" if backend.is_identity(g) else "undecided"), g
        assert stable_norm_estimate(backend, g, 6) == stable_norm_estimate_reference(backend, g, 6), g
        assert _powers(backend, g, 4) == powers_reference(backend, g, 4), g
        torsion += cls == "elliptic" and not backend.is_identity(g)
        rewritten += backend is DEHN and backend.dehn_reduce(g * 4) != free_reduce(g * 4)
    assert (torsion > 20) == (isinstance(backend, FreeProductBackend) and has_core)
    assert (rewritten > 20) == (backend is DEHN)
    bad = backend.letters[0] + "q"
    for call in (lambda: classify_element(backend, bad), lambda: stable_norm_estimate(backend, bad, 3),
                 lambda: _powers(backend, bad, 2)):
        with pytest.raises(BackendError, match="^letter 'q' not in generating set$"):
            call()


ACYL_CASES = {
    "free-0-2": (lambda: FREE, 0, 2), "free-1-3": (lambda: FREE, 1, 3),
    "free-2-5": (lambda: FREE, 2, 5),
    "zmzn23-1-4": (lambda: FP, 1, 4), "zmzn23-2-5": (lambda: FP, 2, 5),
    "zmzn23-3-10": (lambda: FP, 3, 10),
    "zmzn33-2-4": (lambda: FP33, 2, 4), "zmzn22-1-3": (lambda: FP22, 1, 3),
    "genus2-1-3": (lambda: DehnBackend(SURFACE_GENUS2), 1, 3),
    "genus2-2-3": (lambda: DehnBackend(SURFACE_GENUS2), 2, 3),
    # budget 3: conjugates longer than the budget are not counted
    "genus2-budget3-2-3": (lambda: DehnBackend(SURFACE_GENUS2, max_radius=3), 2, 3),
    "genus3-1-3": (lambda: DehnBackend(TORSION_FREE_DEHN["genus3"]), 1, 3),
    "aabaBBc-1-3": (lambda: DehnBackend(TORSION_FREE_DEHN["aabaBBc"]), 1, 3),
}


@pytest.mark.parametrize("make, eps, radius", ACYL_CASES.values(), ids=ACYL_CASES.keys())
def test_acylindricity_profile_matches_mul_reference(make, eps, radius):
    """The estimator, which skips the pairs whose inherited floor exceeds
    eps, gives the reference's per-g counts, so its (R, N, certificate)."""
    r_est, n_est, cert, counts = acylindricity_profile_reference(make(), eps, radius)
    assert acylindricity_profile(make(), eps, radius) == (r_est, n_est, cert)
    backend = make()
    assert geometry._acylindricity_counts(backend, eps, backend.ball(radius)) == counts


@pytest.mark.parametrize("make, eps, radius", ACYL_CASES.values(), ids=ACYL_CASES.keys())
def test_ball_words_are_prefix_closed(make, eps, radius):
    """Each nontrivial ball word g has its BFS parent g[:-1] in the ball one
    layer in, and the layers come in order: the floor rule of
    acylindricity_profile reads the parent's floors."""
    ball = make().ball(radius)
    assert list(ball.values()) == sorted(ball.values())
    assert all(ball.get(g[:-1]) == d - 1 for g, d in ball.items() if g)


def test_genus2_acylindricity_profile_skips_pairs_by_floor():
    """On genus 2 at (eps, radius) = (1, 3) the reference asks the length of
    all 456 * 9 pairs; inherited floors leave 1,296 lookups."""
    d = DehnBackend(SURFACE_GENUS2)
    calls = []
    state_dist = d.state_dist

    def counting_state_dist(state):
        calls.append(state)
        return state_dist(state)

    d.state_dist = counting_state_dist
    assert acylindricity_profile(d, 1, 3) == (1, 3, "observed_on_ball(3)")
    assert len(calls) <= 1300, len(calls)


def _brute_contains(p, q, r, backend):
    for u in p.vertices:
        if all(backend.dist(u, v) > r for v in q.vertices):
            return False
    return True


def test_neighborhood_contains_matches_brute_force():
    rng = random.Random(7)
    for backend in (FREE, FP):
        elems = list(backend.ball(3))
        for _ in range(30):
            start_p = rng.choice(elems)
            start_q = rng.choice(elems)
            wp = "".join(rng.choice(backend.letters) for _ in range(rng.randint(1, 6)))
            wq = "".join(rng.choice(backend.letters) for _ in range(rng.randint(1, 6)))
            p = path_from_word(backend, start_p, wp)
            q = path_from_word(backend, start_q, wq)
            for r in (0, 1, 2):
                assert neighborhood_contains(p, q, r, backend) == \
                    _brute_contains(p, q, r, backend)


def test_neighborhood_contains_long_lines():
    # L(a, ba) runs along the same bi-infinite line as L(1, ab), offset by one
    p = periodic_line(FREE, "", "ab", 0, 50)
    q = periodic_line(FREE, "a", "ba", -1, 52)
    assert neighborhood_contains(p, q, 1, FREE)
    # a window that stops short leaves the tail of p uncovered
    short = periodic_line(FREE, "a", "ba", -1, 10)
    assert not neighborhood_contains(p, short, 1, FREE)
    far = periodic_line(FREE, "bb", "ab", 0, 50)
    assert not neighborhood_contains(p, far, 1, FREE)


def _assert_sweep_matches_brute_force(p, q, backend):
    """Both sweep entry points against the distance from every vertex of p
    to every vertex of q, for r = 0..3."""
    nearest = [min(backend.dist(u, v) for v in q.vertices) for u in p.vertices]
    for r in range(4):
        flags = [d <= r for d in nearest]
        assert neighborhood_profile(p, q, r, backend) == flags, r
        assert neighborhood_contains(p, q, r, backend) == all(flags), r


@st.composite
def line_pairs(draw, backend):
    """Periodic lines p = L(x, a) and q = L(x h, b) of 20-100 edges each.

    b is a, a^-1 or an unrelated word, h is short (overlapping lines) or
    long (far apart), the two windows are drawn independently (partial
    overlap) and q may be reversed, so that window hits, skip-scan hits,
    skip-scan misses and the distance floor after a miss all occur."""
    words = st.text(alphabet=backend.letters, min_size=1, max_size=4).filter(
        lambda w: not backend.is_identity(w))

    def line(x, a):
        la = len(backend.geodesic_word(a))
        periods = draw(st.integers(-(-20 // la), 100 // la))
        n_min = draw(st.integers(-periods, 0))
        return periodic_line(backend, x, a, n_min, n_min + periods)

    a = draw(words)
    b = draw(st.sampled_from([a, backend.inv(a), draw(words)]))
    x = backend.normal_form(draw(st.text(alphabet=backend.letters, max_size=3)))
    h = draw(st.text(alphabet=backend.letters, max_size=12))
    q = line(backend.mul(x, h), b)
    if draw(st.booleans()):
        q = reverse_path(q)
    return line(x, a), q


@pytest.mark.parametrize("backend", [FREE, FP], ids=["free", "zmzn"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_neighborhood_sweep_matches_brute_force(backend, data):
    _assert_sweep_matches_brute_force(*data.draw(line_pairs(backend)), backend)


@st.composite
def dehn_walks(draw, radius=2):
    """Paths whose vertices stay in ball(radius) of the genus-2 surface
    group; for radius 2 every distance between two of them is certified
    within the radius-4 budget.  Vertex words are freely reduced only: a
    walk around part of the relator keeps long words for short elements, so
    the sweep's window states overestimate distances and the exact skip
    scan must decide."""
    ball = DEHN.ball(radius)
    start = draw(st.sampled_from(sorted(DEHN.ball(1))))
    word, vertex = "", start
    for _ in range(draw(st.integers(0, 16))):
        c = draw(st.sampled_from([c for c in DEHN.letters
                                  if DEHN.normal_form(vertex + c) in ball]))
        word, vertex = word + c, DEHN.normal_form(vertex + c)
    return path_from_word(DEHN, start, word)


@settings(max_examples=60, deadline=None)
@given(dehn_walks(), dehn_walks())
def test_neighborhood_sweep_matches_brute_force_dehn(p, q):
    _assert_sweep_matches_brute_force(p, q, DEHN)


@settings(max_examples=60, deadline=None)
@given(dehn_walks(3), dehn_walks(3), st.integers(0, 3))
def test_neighborhood_sweep_dehn_beyond_budget(p, q, r):
    # vertices in ball(3) can be 6 apart; a distance beyond the radius-4
    # budget is certified > 4 > r, so the sweep decides every flag
    def within(u, v):
        n, cert = DEHN.length(inverse_word(u) + v)
        return cert == "exact" and n <= r

    flags = [any(within(u, v) for v in q.vertices) for u in p.vertices]
    assert neighborhood_profile(p, q, r, DEHN) == flags


def test_neighborhood_sweep_dehn_far_vertex_raises():
    # d("aaaaa", "") = 5 is beyond the radius-4 budget.  The certified bound
    # d > 4 decides r = 1; at r = 5 it does not, and no flag is guessed.
    p = path_from_word(DEHN, "aaaaa", "a")
    q = path_from_word(DEHN, "", "b")
    assert neighborhood_profile(p, q, 1, DEHN) == [False, False]
    with pytest.raises(BudgetExceeded):
        neighborhood_profile(p, q, 5, DEHN)


def test_hausdorff_distance():
    p = path_from_word(FREE, "", "ab")
    q = path_from_word(FREE, "", "ab")
    assert hausdorff_distance(p, q, FREE) == 0
    far = path_from_word(FREE, "bb", "ab")
    assert hausdorff_distance(p, far, FREE) > 0


def test_hausdorff_distance_dehn_beyond_budget():
    # On genus 2 a distance beyond the radius-4 budget is certified > 4, so
    # a vertex's minimum is exact iff some vertex of the other path is
    # within 4.  Where every vertex has one, the answer must match a
    # radius-5 backend; anywhere else it must raise.
    dehn5 = DehnBackend(SURFACE_GENUS2, max_radius=5)
    rng = random.Random(0)
    ball = sorted(DEHN.ball(2))

    def walk():
        word = "".join(rng.choice(DEHN.letters) for _ in range(2))
        return path_from_word(DEHN, rng.choice(ball), word)

    def covered(a, b):
        return all(any(DEHN.length(inverse_word(u) + v)[1] == "exact" for v in b.vertices)
                   for u in a.vertices)

    answered = 0
    for _ in range(200):
        p, q = walk(), walk()
        if covered(p, q) and covered(q, p):
            assert hausdorff_distance(p, q, DEHN) == hausdorff_distance(p, q, dehn5)
            answered += 1
        else:
            with pytest.raises(BudgetExceeded):
                hausdorff_distance(p, q, DEHN)
    assert 0 < answered < 200


class _BudgetedTree(FreeBackend):
    """free:2 whose distances above 2 are only certified > 1, so a lower
    bound can tie an exact distance.  The budget sits in state_dist, which
    dist and length read too."""

    def state_dist(self, state):
        if len(state) > 2:
            raise BudgetExceeded("beyond the test budget", 2)
        return len(state)


def test_hausdorff_distance_exact_candidate_wins_tie():
    # d("abb", "") = 3 is certified only as >= 2, which ties the exact
    # d("abb", "a") = 2: the minimum is exact, and so is d("", "ab") = 2
    tree = _BudgetedTree(2)
    p = path_from_word(tree, "", "a")
    q = path_from_word(tree, "ab", "b")
    assert hausdorff_distance(p, q, tree) == hausdorff_distance(p, q, FREE) == 2


def _value_or_budget(f, *args):
    try:
        return f(*args)
    except BudgetExceeded as exc:
        return "BudgetExceeded", str(exc)


@pytest.mark.parametrize("backend", [FREE, FP, FP33, FP22, DEHN, _BudgetedTree(2)],
                         ids=["free", "zmzn23", "zmzn33", "zmzn22", "genus2", "budgeted-tree"])
def test_path_metrics_match_reference(backend):
    # random path pairs, a third of them sharing a start and part of a label;
    # each answer, or the BudgetExceeded message, equals the all-pairs one
    rng = random.Random(9)
    starts = sorted(backend.ball(2))
    params = [QuasiParams(Fraction(k), Fraction(e)) for k, e in
              [(1, 0), (1, 1), (Fraction(3, 2), Fraction(1, 2)), (2, 1), (3, 2)]]

    def word(n):
        return "".join(rng.choice(backend.letters) for _ in range(n))

    outcomes = set()
    for _ in range(150):
        x, w = rng.choice(starts), word(rng.randint(0, 8))
        p = path_from_word(backend, x, w)
        if rng.random() < 0.3:
            q = path_from_word(backend, x, w[:rng.randint(0, len(w))] + word(2))
        else:
            q = path_from_word(backend, rng.choice(starts), word(rng.randint(0, 8)))
        got = _value_or_budget(hausdorff_distance, p, q, backend)
        assert got == _value_or_budget(hausdorff_reference, p, q, backend), (p, q)
        outcomes.add(type(got))
        par = rng.choice(params)
        got = _value_or_budget(quasi_geodesic_check, p, par, backend)
        assert got == _value_or_budget(quasi_geodesic_reference, p, par, backend), (p, par)
        outcomes.add(type(got))
    # budgeted backends both answer and raise
    assert outcomes == ({int, list, tuple} if backend is DEHN or
                        isinstance(backend, _BudgetedTree) else {int, list})


def test_path_metrics_dist_calls():
    # An 8-period xyxY line is the geodesic between its ends.  The all-pairs
    # scans ask 2 * 33 * 33 = 2,178 distances for the Hausdorff distance and
    # 528 for the quasi-geodesic check; the sweep asks one per direction,
    # and the anchored states none.
    calls = []

    class Counting(FreeProductBackend):
        def dist(self, u, v):
            calls.append((u, v))
            return super().dist(u, v)

    fp = Counting((2, 3))
    line = periodic_line(fp, "Yxy", "xyxY", 0, 8)
    geodesic = path_from_word(fp, line.start,
                              fp.geodesic_word(fp.mul(fp.inv(line.start), line.end)))
    assert hausdorff_distance(line, geodesic, fp) == 0
    assert len(calls) == 2
    assert quasi_geodesic_check(line, QuasiParams(Fraction(3), Fraction(20)), fp) == []
    assert len(calls) == 2


def test_genus2_path_metrics_beyond_the_budget_ask_once():
    """Beyond the budget a path metric takes its bound from the backend's
    BudgetExceeded: quasi_geodesic_check and hausdorff_distance make no
    length call and reduce no word a second time (dehn_reduce), though
    many of their distances raise.  Vertex distances here stay below 10
    letters, so no lookup reaches the bucket scan, which reduces words.
    quasi_geodesic_check asks no pair with j - i <= kappa eps: none at
    eps = 1000 on a 40-edge line, and on (ab)^17 a at eps = 30 only the 15
    pairs with j - i > 30, each raising with a bound that meets its
    threshold."""
    d = DehnBackend(SURFACE_GENUS2)
    rng = random.Random(14)
    starts = sorted(d.ball(1))
    walks = [path_from_word(d, rng.choice(starts), "".join(rng.choice(d.letters) for _ in range(3)))
             for _ in range(40)]
    long_line = path_from_word(d, "", "ab" * 20)
    line = path_from_word(d, "", "ab" * 17 + "a")
    counts = {"length": 0, "dehn_reduce": 0, "state_dist": 0, "raised": 0}

    def counting(name):
        method = getattr(d, name)

        def wrapped(*args):
            counts[name] += 1
            return method(*args)

        setattr(d, name, wrapped)

    counting("length")
    counting("dehn_reduce")
    state_dist = d.state_dist

    def raising_state_dist(state):  # dist reads its distance off a state too
        counts["state_dist"] += 1
        try:
            return state_dist(state)
        except BudgetExceeded:
            counts["raised"] += 1
            raise

    d.state_dist = raising_state_dist
    assert quasi_geodesic_check(long_line, QuasiParams(Fraction(1), Fraction(1000)), d) == []
    assert counts["state_dist"] == 0, counts
    assert quasi_geodesic_check(line, QuasiParams(Fraction(1), Fraction(30)), d) == []
    assert counts["state_dist"] == counts["raised"] == 15, counts
    outcomes = set()
    for p, q in zip(walks, walks[1:]):
        got = _value_or_budget(hausdorff_distance, p, q, d)
        assert got == _value_or_budget(hausdorff_reference, p, q, DEHN), (p, q)
        outcomes.add(type(got))
    assert outcomes == {int, tuple}
    assert counts["length"] == counts["dehn_reduce"] == 0 and counts["raised"] > 300, counts


def test_neighborhood_sweep_dehn_exact_hit_after_bound():
    # d("AD", "CAC") = 5 is certified only > 4, which decides nothing at
    # r = 5 or 6; the next vertex "CA" is exactly 4 away, so the flag is
    # True, as on a backend whose budget reaches radius 6
    dehn6 = DehnBackend(SURFACE_GENUS2, max_radius=6)
    p = path_from_word(DEHN, "AD", "")
    q = path_from_word(DEHN, "CAC", "cb")
    for r in (5, 6):
        assert neighborhood_profile(p, q, r, DEHN) == [True]
        assert [any(dehn6.dist(u, v) <= r for v in q.vertices) for u in p.vertices] == [True]
    with pytest.raises(BudgetExceeded):
        hausdorff_distance(p, q, DEHN)
