"""Acceptance suite: each test covers one release criterion, prints a single
pass/fail line, and fails loudly on any violation.

Oracles are independent brute-force computations; expected constants are
frozen values derived by hand or by exhaustive search.
"""

import itertools
import random
import sys
import time
from fractions import Fraction
from math import gcd

from periodlines.backends import FreeBackend, FreeProductBackend
from periodlines.constants import ConstantsProfile, C_and_f, F_of_r, K_of_r, k_trim
from periodlines.freewords import (
    cyclic_reduce,
    free_reduce,
    inverse_word,
    is_cyclically_reduced,
    overlap_root,
    rotate,
)
from periodlines.fourgon import compose, side_elements
from periodlines.geometry import (
    _cached_dist,
    classify_element,
    estimate_delta,
    hausdorff_distance,
    injectivity_radius_estimate,
    path_from_word,
    periodic_line,
    quasi_geodesic_check,
    shortest_conjugate,
)
from periodlines.constants import kappa_eps_zero
from periodlines.harness import (
    TheoremInstance,
    empirical_period_threshold,
    lemma41_check,
    main_theorem_check,
    weak_theorem_check,
)
from periodlines.testutil import random_composable_pair
from periodlines.words import fine_wilf_root, is_period, primitive_root
from slimness_reference import point_dist_reference, side_points_reference

FREE = FreeBackend(2)
FP = FreeProductBackend((2, 3))


LINES: list[str] = []


def report(line):
    LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def brute_periods(z):
    return [p for p in range(1, len(z) + 1)
            if all(z[i] == z[i + p] for i in range(len(z) - p))]


def free_rank2_corpus(max_len=4):
    """All cyclically reduced rank-2 words of length 1..max_len."""
    out = []
    for n in range(1, max_len + 1):
        for tup in itertools.product("abAB", repeat=n):
            w = "".join(tup)
            if is_cyclically_reduced(w):
                out.append(w)
    return out


def conjugate_roots_oracle(a, b):
    """Cyclic words a, b have conjugate primitive roots, up to inversion."""
    pa, _ = primitive_root(a)
    pb, _ = primitive_root(b)
    if len(pa) != len(pb):
        return False
    return any(rotate(o, i) == pa
               for o in (pb, inverse_word(pb)) for i in range(len(pa)))


def test_acceptance_01_two_period_root_exhaustive():
    start = time.time()
    pairs = 0
    for n in range(1, 15):
        for tup in itertools.product("ab", repeat=n):
            z = "".join(tup)
            periods = brute_periods(z)
            for p in periods:
                for q in periods:
                    if p + q <= n:
                        root = fine_wilf_root(z, p, q)
                        g = gcd(p, q)
                        assert len(root) == g
                        assert is_period(z, g)
                        pairs += 1
    elapsed = time.time() - start
    assert elapsed < 60
    report(f"[PASS] acceptance 1: two-period common root exhaustive over "
           f"binary words |z|<=14 ({pairs} period pairs, {elapsed:.1f}s)")


def test_acceptance_02_sharpness_witness():
    found = None
    for p in range(1, 9):
        for q in range(p + 1, 9):
            g = gcd(p, q)
            n = p + q - g - 1
            if n < max(p, q):
                continue
            for tup in itertools.product("ab", repeat=n):
                z = "".join(tup)
                if is_period(z, p) and is_period(z, q) and not is_period(z, g):
                    found = (z, p, q)
                    break
            if found:
                break
        if found:
            break
    assert found is not None
    z, p, q = found
    assert len(z) == p + q - gcd(p, q) - 1
    assert is_period(z, p) and is_period(z, q) and not is_period(z, gcd(p, q))
    report(f"[PASS] acceptance 2: sharpness witness {z!r} has periods "
           f"({p},{q}) at length p+q-gcd-1 without period gcd")


def test_acceptance_03_line_overlap_exhaustive():
    start = time.time()
    corpus = free_rank2_corpus()
    checked = 0
    for a in corpus:
        for b in corpus:
            res = overlap_root(a, b)
            assert (res is not None) == conjugate_roots_oracle(a, b), (a, b)
            if res is not None:
                assert rotate(a, res.shift_a) == res.c * res.exp_a
                if res.exp_b > 0:
                    assert rotate(b, res.shift_b) == res.c * res.exp_b
                else:
                    assert rotate(b, res.shift_b) == \
                        inverse_word(res.c) * (-res.exp_b)
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 120
    report(f"[PASS] acceptance 3: line overlap roots exhaustive on rank-2 "
           f"words |a|,|b|<=4 ({checked} pairs, {elapsed:.1f}s)")


def test_acceptance_04_free_sharp_constant():
    start = time.time()
    corpus = free_rank2_corpus()
    pairs = [(a, b) for a in corpus for b in corpus if len(a) >= len(b)]
    n_comm = n_non = 0
    for a, b in pairs:
        res = overlap_root(a, b)
        if res is not None:
            # rotate both onto the common axis; two periods at r=0 suffice
            inst = TheoremInstance(FREE, rotate(a, res.shift_a),
                                   rotate(b, res.shift_b), "", "", 0)
            out = weak_theorem_check(inst, None, min_periods=2)
            assert out.status == "witness", (a, b, out)
            s, t = out.witness["s"], out.witness["t"]
            assert s and t and abs(s) <= 8 and abs(t) <= 8
            n_comm += 1
        else:
            m = empirical_period_threshold(FREE, a, b, "", "", 0, max_periods=8)
            assert m is None, (a, b, m)
            n_non += 1
    elapsed = time.time() - start
    report(f"[PASS] acceptance 4: sharp two-period witness for all {n_comm} "
           f"commensurable pairs; no threshold up to 8 for all {n_non} "
           f"non-commensurable pairs ({elapsed:.0f}s)")


def test_acceptance_05_stable_norm_laws():
    rng = random.Random(505)

    def rand_word(max_len):
        return "".join(rng.choice("abAB") for _ in range(rng.randint(1, max_len)))

    def core_len(w):
        return len(cyclic_reduce(free_reduce(w))[1])

    checked = 0
    while checked < 1000:
        g = rand_word(8)
        y = rand_word(4)
        k = rng.choice([n for n in range(-4, 5) if n])
        if not free_reduce(g):
            continue
        conj = free_reduce(inverse_word(y) + g + y)
        assert core_len(conj) == core_len(g)
        gk = g * k if k > 0 else inverse_word(g) * (-k)
        assert core_len(gk) == abs(k) * core_len(g)
        checked += 1
    report(f"[PASS] acceptance 5: stable-norm conjugation invariance and "
           f"power law via cyclic cores on {checked} random triples")


def test_acceptance_06_composition_identities():
    start = time.time()
    for backend, seed in ((FREE, 606), (FP, 607)):
        rng = random.Random(seed)
        for _ in range(500):
            P, Q = random_composable_pair(backend, rng)
            S = compose(P, Q, backend)
            S.validate(backend)
            LP, _, RP, BP = side_elements(P, backend)
            LQ, _, RQ, BQ = side_elements(Q, backend)
            LS, TS, RS, BS = side_elements(S, backend)
            assert backend.equal(LS, backend.mul(LP, backend.inv(LQ)))
            assert backend.equal(RS, backend.mul(RP, backend.inv(RQ)))
            assert BS == BP and TS == BQ
    elapsed = time.time() - start
    report(f"[PASS] acceptance 6: composition side identities on 500 random "
           f"composable 4-gon pairs per backend ({elapsed:.1f}s)")


def test_acceptance_07_geometry_lemma_suite():
    start = time.time()
    delta, delta_cert = estimate_delta(FP, 3)
    two_delta = 2 * delta

    # quadrangle slimness: each side within 2*delta of the other three
    rng = random.Random(707)
    elems = list(FP.ball(6))
    dist = _cached_dist(FP)
    worst_quad = Fraction(0)
    for _ in range(300):
        verts = [rng.choice(elems) for _ in range(4)]
        sides = [side_points_reference(FP, verts[i], verts[(i + 1) % 4]) for i in range(4)]
        for i in range(4):
            others = sides[(i + 1) % 4] + sides[(i + 2) % 4] + sides[(i + 3) % 4]
            for pt in sides[i]:
                best = min(point_dist_reference(dist, pt, other) for other in others)
                worst_quad = max(worst_quad, best)
    assert worst_quad <= two_delta, worst_quad

    # local geodesics at scale ceil(8*delta+1) are (3, 2*delta)-quasi-geodesic
    scale = int(8 * delta + 1) + (0 if (8 * delta + 1).denominator == 1 else 1)

    def is_local_geodesic(w):
        return all(FP.length(w[i:j])[0] == j - i
                   for i in range(len(w))
                   for j in range(i + 1, min(len(w), i + scale) + 1))

    from periodlines.geometry import QuasiParams
    params = QuasiParams(Fraction(3), two_delta)
    n_local = 0
    for n in range(1, 8):
        for tup in itertools.product(FP.letters, repeat=n):
            w = "".join(tup)
            if not is_local_geodesic(w):
                continue
            path = path_from_word(FP, "", w)
            assert quasi_geodesic_check(path, params, FP) == [], w
            n_local += 1

    # periodic lines of short conjugacy-shortest loxodromics
    corpus = []
    for g in elems:
        if g and len(g) <= 4 and classify_element(FP, g) == "loxodromic":
            _, core, _ = shortest_conjugate(FP, g)
            if len(core) == len(g):
                corpus.append(g)
    assert corpus
    lines = [periodic_line(FP, "", g, 0, 4) for g in corpus]

    # empirical mu: strict bound on line-to-geodesic Hausdorff distance
    mu_obs = max(Fraction(hausdorff_distance(
        line, path_from_word(FP, "", FP.geodesic_word(line.end)), FP))
        for line in lines)
    mu = mu_obs + Fraction(1, 2)

    # ordered triples on a quasi-geodesic: near-additivity within 2*mu
    for line in lines:
        verts = line.vertices
        for i in range(len(verts)):
            for j in range(i, len(verts)):
                for k in range(j, len(verts)):
                    lhs = FP.dist(verts[i], verts[k])
                    rhs = FP.dist(verts[i], verts[j]) + FP.dist(verts[j], verts[k])
                    assert abs(lhs - rhs) <= 2 * mu

    # the derived (kappa0, eps0) certify every line in the corpus
    tau, _ = injectivity_radius_estimate(FP, 4, n_max=8)
    profile = ConstantsProfile.create(delta, tau, mu, "estimated", {})
    params0 = kappa_eps_zero(profile)
    for line in lines:
        assert quasi_geodesic_check(line, params0, FP) == []
    elapsed = time.time() - start
    report(f"[PASS] acceptance 7: geometry lemma suite, delta={delta} "
           f"({delta_cert}), {n_local} local geodesics, {len(corpus)} periodic "
           f"lines at (kappa0,eps0)=({profile.kappa0},{profile.eps0}) "
           f"({elapsed:.1f}s)")


def test_acceptance_08_constant_pipeline_fixture():
    profile = ConstantsProfile.create(0, 2, 1, "user-supplied",
                                      {24: (10, 5), 48: (10, 5)})
    assert K_of_r(profile, 0) == 48
    assert F_of_r(profile, 0) == 163
    assert F_of_r(profile, 2) == 175
    C, f = C_and_f(profile)
    assert C == 180
    assert all(f(r) == r + 180 for r in range(6))
    assert k_trim(profile, 0) == 2
    report("[PASS] acceptance 8: constant pipeline fixture reproduces "
           "K(0)=48, F(0)=163, F(2)=175, C=180, f(r)=r+180, k(0)=2 bit-exact")


def test_acceptance_09_parallel_lines_harness():
    start = time.time()
    rng = random.Random(909)
    corpus = [w for w in free_rank2_corpus() if len(w) <= 4]
    n_witness = n_failed = 0
    for i in range(200):
        b = rng.choice(corpus)
        r = rng.randint(0, 2)
        x_p = free_reduce("".join(rng.choice("abAB")
                                  for _ in range(rng.randint(0, 3))))
        root, _ = primitive_root(b)
        if i % 2 == 0:
            # aligned instance: offset along the centralizer direction
            if len(root) <= r:
                shift = root if rng.random() < 0.5 else inverse_word(root)
            else:
                shift = ""
            x_q = free_reduce(x_p + shift)
        else:
            x_q = free_reduce(x_p + "".join(rng.choice("abAB")
                                            for _ in range(rng.randint(1, 2))))
        res = lemma41_check(FREE, b, x_p, x_q, window=6, r=r)
        if res.status == "hypothesis-failed":
            n_failed += 1
            continue
        # hypothesis held: the exact backend must produce a small witness
        assert res.status == "witness", (b, x_p, x_q, r, res)
        n = res.witness["n"]
        z = res.witness["element"]
        assert 1 <= n <= 4, (b, x_p, x_q, r, res)
        bn = FREE.normal_form(b * n)
        assert FREE.equal(FREE.mul(z, bn), FREE.mul(bn, z))
        n_witness += 1
    elapsed = time.time() - start
    assert n_witness >= 50  # the aligned half must actually fire
    report(f"[PASS] acceptance 9: parallel-line harness, {n_witness} verified "
           f"witnesses (n<=4) and {n_failed} hypothesis rejections out of 200 "
           f"instances ({elapsed:.1f}s)")


def test_acceptance_10_end_to_end_theorem():
    start = time.time()
    profile = ConstantsProfile.create(Fraction(1, 2), 2, 1, "user-supplied",
                                      {64: (70, 2)})
    rng = random.Random(1010)
    a = "xy"
    instances = [
        (a, "xy", "", "", 1),          # same line
        (a, "yx", "", "x", 1),         # conjugate by the order-2 generator
        (a, "yx", "y", "yx", 1),       # translated copy of the same pair
        ("xyxy", "xy", "", "", 1),     # square of the period element
    ]
    # conjugates of xy by random short elements
    ball3 = [h for h in FP.ball(3) if h]
    for h in rng.sample(ball3, 4):
        conj = FP.mul(FP.mul(FP.inv(h), a), h)
        inner, core, _ = shortest_conjugate(FP, conj)
        w = FP.mul(h, inner)
        if len(w) > 3:
            continue
        instances.append((a, core, "", w, max(1, len(w))))
    n_checked = 0
    for a_w, b_w, x_w, y_w, r in instances:
        inst = TheoremInstance(FP, a_w, b_w, x_w, y_w, r)
        res = main_theorem_check(inst, profile)
        assert res.status == "witness", (a_w, b_w, x_w, y_w, r, res)
        s, t = res.witness["s"], res.witness["t"]
        assert s and t and abs(s) <= 8 and abs(t) <= 8
        # independent verification of the emitted witness
        u = FP.mul(FP.inv(FP.normal_form(x_w)), FP.normal_form(y_w))
        bs = FP.normal_form(b_w * s if s > 0 else inverse_word(b_w) * (-s))
        at = FP.normal_form(a_w * t if t > 0 else inverse_word(a_w) * (-t))
        assert FP.equal(FP.mul(FP.mul(u, bs), FP.inv(u)), at)
        n_checked += 1
    elapsed = time.time() - start
    assert elapsed < 300
    assert n_checked >= 5
    report(f"[PASS] acceptance 10: end-to-end theorem run on {n_checked} "
           f"commensurable instances, all witnesses verified with "
           f"|s|,|t|<=8 ({elapsed:.1f}s)")
