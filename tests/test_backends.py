import itertools
import random
import re
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from periodlines.backends import (
    BackendError,
    BudgetExceeded,
    DehnBackend,
    FreeBackend,
    FreeProductBackend,
    Presentation,
    SURFACE_GENUS2,
    longest_pieces,
    make_backend,
    one_cell_bound,
    parse_presentation,
    shortlex_key,
    verify_small_cancellation,
)
from periodlines.freewords import free_reduce, inverse_word, is_cyclically_reduced
from periodlines.geometry import shortest_conjugate
from periodlines.words import primitive_root
from ball_reference import ball_reference
from dehn_scan_reference import ScanDehn, ScanLengths
from dist_reference import free_dist, zmzn_dist
from pieces_reference import longest_pieces_reference
from zmzn_reference import zmzn_normal_form


def test_make_backend_parses_specs():
    assert type(make_backend("free:2")) is FreeBackend
    assert type(make_backend("zmzn:2,3")) is FreeProductBackend
    with pytest.raises(BackendError):
        make_backend("nope:1")
    with pytest.raises(BackendError):
        make_backend("zmzn:2")


CONFORMANCE = [FreeBackend(2), FreeProductBackend((2, 3)), DehnBackend(SURFACE_GENUS2)]


@pytest.mark.parametrize("backend", CONFORMANCE, ids=["free", "zmzn", "dehn"])
def test_conjugacy_core_contract(backend):
    """conj^-1 g conj = core, conj is a prefix of g's normal form, empty
    iff the core is that normal form, no conjugate by ball(3) is shorter,
    and shortest_conjugate's core is the ShortLex-least of the core's
    rotations; None where the backend cannot decide (Dehn), with no
    oracle and every other capability at its default there.  The free
    product has the exact oracle but no centralizer note or sharp mode."""
    rng = random.Random(11)
    elems = list(backend.ball(3))
    conjugators = elems if len(elems) < 200 else rng.sample(elems, 200)
    for g in rng.sample(elems, min(60, len(elems))) + [""]:
        exact = backend.cyclic_core(g)
        if type(backend) is DehnBackend:
            assert exact is None
            continue
        conj, core = exact
        assert backend.normal_form(core) == core
        assert backend.equal(backend.mul(backend.mul(backend.inv(conj), g), conj), core)
        assert g.startswith(conj) and (conj == "") == (core == g)
        for h in conjugators:
            assert len(core) <= len(backend.mul(backend.mul(backend.inv(h), g), h))
        least = shortest_conjugate(backend, g)[1]
        rotations = [core[i:] + core[:i] for i in range(len(core))]
        assert least in rotations or least == core == ""
        assert all(shortlex_key(least) <= shortlex_key(w) for w in rotations)
    a = backend.letters[0]
    if type(backend) is FreeProductBackend:
        assert backend.commensurate("xy", "yx") == ({"g": "y", "s": 1, "t": 1}, "exact")
    if type(backend) is DehnBackend:
        assert backend.commensurate(a, a) is None
    if type(backend) is not FreeBackend:
        assert backend.centralizer_note(a, a) == {}
        assert backend.sharp_periods is None


def _conjugacy_core_reference(backend, g):
    """The conjugacy core as the mul fold took it, one mul per step, with
    one shortlex_key list per rotation."""
    core, conj = backend.normal_form(g), ""
    while len(core) >= 2 and len(backend.mul(core[-1], core[0])) < 2:
        conj = backend.mul(conj, core[0])
        core = backend.mul(backend.mul(backend.inv(core[0]), core), core[0])
    i = min(range(len(core)), key=lambda i: shortlex_key(core[i:] + core[:i]), default=0)
    return backend.mul(conj, core[:i]), core[i:] + core[:i]


@pytest.mark.parametrize("backend", [FreeBackend(2), FreeProductBackend((2, 3)),
                                     FreeProductBackend((3, 3))],
                         ids=["free", "zmzn23", "zmzn33"])
def test_conjugacy_core_rotation_matches_shortlex_loop(backend):
    """On every word of length <= 7, the one-pass cyclic core is the mul
    fold's core up to rotation, with conj^-1 g conj = core checked by
    equal, and shortest_conjugate, which rotates it by comparing rank
    strings, gives the fold's conjugator and the rotation its shortlex_key
    loop takes, cores with tied rotations (abab, xyxy) included: the first
    of the tied ones."""
    tied = 0
    for n in range(8):
        for g in map("".join, itertools.product(backend.letters, repeat=n)):
            conj, core = backend.cyclic_core(g)
            ref_conj, ref_core = _conjugacy_core_reference(backend, g)
            assert len(core) == len(ref_core) and core in ref_core * 2, g
            assert backend.equal(backend.mul(backend.mul(backend.inv(conj), g), conj), core), g
            assert shortest_conjugate(backend, g) == (ref_conj, ref_core, "exact"), g
            tied += len({core[i:] + core[:i] for i in range(len(core))}) < len(core)
    assert tied > 10
    period = "ab" if type(backend) is FreeBackend else "xy"
    assert shortest_conjugate(backend, period * 2) == ("", period * 2, "exact")


def _centralizer_note_reference(backend, z, b):
    """The note's first algorithm: multiply out powers of the primitive root
    of b and of its inverse and compare each with z."""
    if not z:
        return {}
    c, _ = primitive_root(backend.normal_form(b))
    for sign_c in (c, backend.inv(c)):
        w = ""
        for _ in range(len(z) // len(c) + 1):
            w = backend.mul(w, sign_c)
            if w == z:
                return {"centralizer_member": True, "primitive_root": c}
    return {"centralizer_member": False, "primitive_root": c}


def test_centralizer_note_matches_mul_loop():
    free = FreeBackend(2)
    rng = random.Random(4)
    cyclic = [w for w in free.ball(4) if w and is_cyclically_reduced(w)]
    members = 0
    for _ in range(3000):
        b = rng.choice(cyclic)
        c, _ = primitive_root(b)
        if rng.random() < 0.5:
            z = (c if rng.random() < 0.5 else inverse_word(c)) * rng.randint(1, 4)
        else:
            z = free.normal_form("".join(rng.choice("aAbB") for _ in range(rng.randint(0, 8))))
        note = free.centralizer_note(z, b)
        assert note == _centralizer_note_reference(free, z, b), (z, b)
        members += note.get("centralizer_member", False)
    assert members > 1000


class TestFree:
    b = FreeBackend(2)

    def test_normal_forms(self):
        assert self.b.normal_form("aBbA") == ""
        assert self.b.mul("ab", "BA") == ""
        assert self.b.inv("ab") == "BA"
        assert self.b.length("abAB") == (4, "exact")

    def test_rejects_foreign_letters(self):
        with pytest.raises(BackendError):
            self.b.normal_form("c")

    def test_ball_sizes(self):
        assert len(FreeBackend(2).ball(1)) == 5
        assert len(FreeBackend(2).ball(2)) == 17
        ball = self.b.ball(2)
        assert ball[""] == 0 and ball["ab"] == 2

    def test_ball_is_shortlex_sorted(self):
        words = list(self.b.ball(2))
        assert words == sorted(words, key=shortlex_key)

    def test_associativity_random(self):
        rng = random.Random(0)
        elems = list(self.b.ball(3))
        for _ in range(200):
            x, y, z = (rng.choice(elems) for _ in range(3))
            assert self.b.mul(self.b.mul(x, y), z) == self.b.mul(x, self.b.mul(y, z))


class TestFreeProduct:
    fp = FreeProductBackend((2, 3))

    def test_orders_restricted(self):
        with pytest.raises(BackendError):
            FreeProductBackend((2, 4))

    def test_letters(self):
        assert self.fp.letters == ["x", "y", "Y"]
        assert FreeProductBackend((2, 2)).letters == ["x", "y"]

    def test_torsion(self):
        assert self.fp.mul("x", "x") == ""
        assert self.fp.mul("y", "y") == "Y"
        assert self.fp.mul("Y", "y") == ""
        assert self.fp.normal_form("yyy") == ""
        assert self.fp.inv("xy") == "Yx"
        # uppercase alias for the order-2 generator
        assert self.fp.normal_form("X") == "x"

    def test_ball_sizes(self):
        assert len(self.fp.ball(1)) == 4
        assert set(self.fp.ball(1)) == {"", "x", "y", "Y"}

    def test_length_matches_bfs(self):
        # cross-oracle: syllable count against generic BFS distance
        ball = self.fp.ball(6)
        for w, d in ball.items():
            n, cert = self.fp.length(w)
            assert cert == "exact"
            assert n == d

    def test_associativity_random(self):
        rng = random.Random(1)
        elems = list(self.fp.ball(4))
        for _ in range(200):
            x, y, z = (rng.choice(elems) for _ in range(3))
            assert self.fp.mul(self.fp.mul(x, y), z) == self.fp.mul(x, self.fp.mul(y, z))


@pytest.mark.parametrize("orders", [(2, 3), (3, 3), (2, 2), (3, 2)])
def test_free_product_states_match_exponent_sums(orders):
    """Every word over xXyY up to length 6: normal_form, the state length
    and the rendered state after each append_letter agree with the oracle,
    and a letter outside the generating set is refused by name."""
    fp = FreeProductBackend(orders)
    for n in range(7):
        for letters in itertools.product("xXyY", repeat=n):
            w = "".join(letters)
            nf = zmzn_normal_form(orders, w)
            assert fp.normal_form(w) == nf, w
            assert len(fp.parse_state(w)) == len(nf), w
            state = fp.parse_state("")
            for i, c in enumerate(w):
                fp.append_letter(state, c)
                assert fp.render(state) == zmzn_normal_form(orders, w[:i + 1]), w[:i + 1]
    for call in (fp.normal_form, fp.parse_state, lambda w: fp.append_letter(["x"], w[-1])):
        with pytest.raises(BackendError, match="^letter 'a' not in generating set$"):
            call("yxa")


@pytest.mark.parametrize("spec", ["free:2", "free:3", "zmzn:2,3", "zmzn:3,3", "zmzn:2,2"])
def test_dist_matches_prefix_strip_reference(spec):
    """dist, the length of the normal form of u^-1 v, equals the prefix
    strip of the two normal forms on 20,000 seeded random pairs, about half
    of them raw words (aliases included on Z/m*Z/n), and on Z/m*Z/n
    normal_form equals the exponent-sum oracle's."""
    backend = make_backend(spec)
    rng = random.Random(2101)
    letters = "xXyY" if spec.startswith("zmzn") else "".join(backend.letters)
    orders = getattr(backend, "orders", None)
    normal_form = free_reduce if orders is None else \
        (lambda w: zmzn_normal_form(orders, w))

    def word():
        w = "".join(rng.choice(letters) for _ in range(rng.randint(0, 12)))
        return normal_form(w) if rng.random() < 0.5 else w

    for _ in range(20000):
        u, v = word(), word()
        d = backend.dist(u, v)
        if orders is None:
            assert d == free_dist(u, v) == len(free_reduce(inverse_word(u) + v)), (u, v)
        else:
            assert d == zmzn_dist(orders, u, v) == len(normal_form(inverse_word(u) + v)), (u, v)
            assert backend.normal_form(u) == normal_form(u), u


@pytest.mark.parametrize("spec,word", [("free:2", "aZ"), ("zmzn:2,3", "xQ")])
def test_dist_names_a_bad_letter_as_written(spec, word):
    # dist reads u^-1 v, yet names a bad letter of u as the caller wrote it
    backend = make_backend(spec)
    for u, v in ((word, ""), ("", word), (word, word)):
        with pytest.raises(BackendError, match=f"^letter '{word[-1]}' not in generating set$"):
            backend.dist(u, v)


@pytest.mark.parametrize("call,args", [("inv", ("QZ",)), ("equal", ("", "QZ")),
                                       ("equal", ("QZ", "W"))],
                         ids=["inv", "equal-v", "equal-u"])
@pytest.mark.parametrize("backend", CONFORMANCE, ids=["free", "zmzn", "dehn"])
def test_inv_and_equal_name_a_bad_letter_as_written(backend, call, args):
    # inv reads w^-1, and Dehn's equal u v^-1, yet the first bad letter is
    # named as the caller wrote it, u before v, as dist names it
    with pytest.raises(BackendError, match="^letter 'Q' not in generating set$"):
        getattr(backend, call)(*args)


def test_parse_presentation():
    p = parse_presentation("# surface\ngens: a,b,c,d\nrel: abABcdCD\n")
    assert p == SURFACE_GENUS2
    with pytest.raises(BackendError):
        parse_presentation("rel: ab")
    with pytest.raises(BackendError):
        parse_presentation("gens: a\nrel: aA")  # not cyclically reduced


def test_verify_small_cancellation():
    assert verify_small_cancellation(SURFACE_GENUS2, 6)
    assert not verify_small_cancellation(Presentation(("a", "b"), ("abab",)), 6)
    assert not verify_small_cancellation(Presentation(("a",), ("aaaaaaa",)), 6)


def _cyclically_reduced_word(rng, letters, max_len):
    while True:
        w = free_reduce("".join(rng.choice(letters) for _ in range(rng.randint(1, max_len))))
        if w and is_cyclically_reduced(w):
            return w


def test_small_cancellation_refuses_every_proper_power():
    """A relator s^k, k >= 2, equals its own rotation by |s|, so it is a
    piece of full length, with or without a second relator beside it.  No
    C'(1/6) presentation has one, and every accepted Dehn group is
    torsion-free (Lyndon-Schupp, Ch. V)."""
    rng = random.Random(41)
    checked = 0
    for n_gens in (1, 2, 3):
        gens = tuple("abc"[:n_gens])
        letters = "".join(g + g.upper() for g in gens)
        for _ in range(200):
            power = _cyclically_reduced_word(rng, letters, 6) * rng.randint(2, 5)
            for others in ((), (_cyclically_reduced_word(rng, letters, 12),)):
                relators = (power, *others)
                if rng.random() < 0.5:
                    relators = relators[::-1]
                assert not verify_small_cancellation(Presentation(gens, relators), 6), relators
                checked += 1
    assert checked == 1200


def test_longest_pieces_matches_pairwise_reference():
    """The sorted-neighbour pieces equal the loop over all pairs on fixed
    presentations, proper powers and self-overlaps among them, and on
    seeded random cyclically reduced ones of 1 to 3 relators."""
    fixed = [SURFACE_GENUS2, Presentation(("a", "b"), ("abab",)),
             Presentation(("a",), ("aaaaaaa",)),
             Presentation(("a", "b", "c"), ("aabaBBc", "bccbCaCA"))]
    assert [longest_pieces(p) for p in fixed] == [[1], [4], [7], [1, 1]]
    rng = random.Random(5)
    cases = list(fixed)
    for _ in range(3000):
        gens = tuple("abc"[:rng.randint(1, 3)])
        letters = "".join(g + g.upper() for g in gens)
        cases.append(Presentation(gens, tuple(_cyclically_reduced_word(rng, letters, 10)
                                              for _ in range(rng.randint(1, 3)))))
    for p in cases:
        assert longest_pieces(p) == longest_pieces_reference(p), p


class TestDehn:
    d = DehnBackend(SURFACE_GENUS2)

    def test_refuses_bad_presentation(self):
        with pytest.raises(BackendError, match="not C'"):
            DehnBackend(Presentation(("a", "b"), ("abab",)))

    def test_word_problem_exact(self):
        rel = SURFACE_GENUS2.relators[0]
        assert self.d.is_identity(rel)
        assert self.d.is_identity(rel * 2)
        assert self.d.equal("abAB", "dcDC")
        assert not self.d.is_identity("ab")

    def test_length_within_budget(self):
        assert self.d.length("abAB") == (4, "exact")
        assert self.d.length("ab") == (2, "exact")

    def test_length_beyond_budget(self):
        n, cert = self.d.length("ababab")
        assert cert.startswith("lower_bound")

    def test_ball_budget(self):
        with pytest.raises(BudgetExceeded):
            self.d.ball(99)

    def test_ball_counts_match_free_locally(self):
        # no relator of length 8 can shorten words below length 4, so small
        # balls agree with the free group of rank 4
        assert len(self.d.ball(1)) == len(FreeBackend(4).ball(1)) == 9
        assert len(self.d.ball(2)) == len(FreeBackend(4).ball(2))

    def test_normal_form_canonical_in_ball(self):
        assert self.d.normal_form("aA") == ""
        assert self.d.length("ab")[1] == "exact"
        w = self.d.normal_form("abAB")
        assert self.d.equal(w, "dcDC")


class ReferenceDehn:
    """The Dehn backend's first algorithm, kept as an oracle: Dehn reduction
    restarts str.find over every rule, longest first, after each
    replacement, and a ball lookup Dehn-reduces the difference with every
    member of its exponent-sum bucket.  The whole ball is built up front."""

    def __init__(self, presentation, max_radius=4):
        self.rules = []
        for rho in presentation.symmetrized():
            n = len(rho)
            for k in range(n, n // 2, -1):
                self.rules.append((rho[:k], inverse_word(rho[k:])))
        self.rules.sort(key=lambda r: -len(r[0]))
        self.gens = presentation.generators
        self.canon, self.reduced, self.buckets = [""], [""], {self.key(""): [0]}
        self.ball = {"": 0}
        frontier = [""]
        letters = sorted((c for g in self.gens for c in (g, g.upper())),
                         key=lambda c: (c.lower(), c.isupper()))
        for d in range(1, max_radius + 1):
            nxt = []
            for w in frontier:
                for c in letters:
                    cand = w + c
                    red = self.dehn_reduce(cand)
                    if self.scan(red) is None:
                        self.ball[cand] = d
                        self.buckets.setdefault(self.key(red), []).append(len(self.canon))
                        self.canon.append(cand)
                        self.reduced.append(red)
                        nxt.append(cand)
            frontier = nxt

    def key(self, w):
        return tuple(w.count(g) - w.count(g.upper()) for g in self.gens)

    def dehn_reduce(self, w):
        w = free_reduce(w)
        changed = True
        while changed:
            changed = False
            for s, repl in self.rules:
                i = w.find(s)
                if i >= 0:
                    w = free_reduce(w[:i] + repl + w[i + len(s):])
                    changed = True
                    break
        return w

    def is_identity(self, w):
        return self.dehn_reduce(w) == ""

    def equal(self, u, v):
        return self.is_identity(u + inverse_word(v))

    def scan(self, red):
        for idx in self.buckets.get(self.key(red), []):
            if self.is_identity(red + inverse_word(self.reduced[idx])):
                return idx
        return None

    def normal_form(self, w):
        idx = self.scan(self.dehn_reduce(w))
        return None if idx is None else self.canon[idx]


REF = ReferenceDehn(SURFACE_GENUS2)
GENUS2_LETTERS = "aAbBcCdD"
SYMMETRIZED = SURFACE_GENUS2.symmetrized()
BALL4 = sorted(REF.ball, key=shortlex_key)
# words equal to short elements more often than chance: ball words with
# symmetrized relators spliced in
GENUS2_WORDS = st.one_of(
    st.text(alphabet=GENUS2_LETTERS, max_size=16),
    st.builds(lambda u, rho, i, v: u[:i] + rho + u[i:] + v,
              st.sampled_from(BALL4), st.sampled_from(SYMMETRIZED),
              st.integers(0, 4), st.sampled_from(BALL4)),
    st.builds(lambda u, rho, k: u + inverse_word(rho[k:]),
              st.sampled_from(BALL4), st.sampled_from(SYMMETRIZED), st.integers(3, 5)),
)


@settings(max_examples=150, deadline=None)
@given(GENUS2_WORDS, GENUS2_WORDS)
def test_dehn_matches_reference(w, v):
    # a fresh backend grows its ball only as far as each call needs
    for d in (DehnBackend(SURFACE_GENUS2), TestDehn.d):
        canon = REF.normal_form(w)
        assert d.length(w) == ((len(canon), "exact") if canon is not None else (4, "lower_bound(4)"))
        assert (d.length(w)[1] == "exact") == (canon is not None)
        red = d.normal_form(w)
        if canon is not None:
            assert red == canon
        else:
            assert REF.equal(red, w) and REF.dehn_reduce(red) == red
        assert d.is_identity(w) == REF.is_identity(w)
        assert d.equal(w, v) == REF.equal(w, v)
        assert d.equal(w, w + v + inverse_word(v))


def test_dehn_ball_matches_reference():
    d = DehnBackend(SURFACE_GENUS2)
    assert list(d.ball(4).items()) == list(REF.ball.items())


@pytest.fixture(scope="module")
def genus2_r6():
    d = DehnBackend(SURFACE_GENUS2, max_radius=6)
    d.ball(6)
    return d


def _surface_spheres(genus, radius):
    """Sphere sizes of the genus-g surface group up to radius, from its
    growth series f (Cannon): with m = 2 g,
    (1 - (4 g - 2)(t + ... + t^(m - 1)) + t^m) f = 1 + 2 (t + ... + t^(m - 1)) + t^m."""
    m = 2 * genus
    numerator = [1] + [2] * (m - 1) + [1]
    denominator = [1] + [-(4 * genus - 2)] * (m - 1) + [1]
    f = []
    for n in range(radius + 1):
        f.append((numerator[n] if n <= m else 0)
                 - sum(denominator[k] * f[n - k] for k in range(1, min(n, m) + 1)))
    return f


def _surface(genus):
    gens = tuple(chr(ord("a") + i) for i in range(2 * genus))
    return Presentation(gens, ("".join(x + y + x.upper() + y.upper()
                                       for x, y in zip(gens[::2], gens[1::2])),))


def _spheres(ball, radius):
    return [sum(1 for d in ball.values() if d == n) for n in range(radius + 1)]


def test_genus2_sphere_sizes(genus2_r6):
    # (1 - 6t - 6t^2 - 6t^3 + t^4) f = 1 + 2t + 2t^2 + 2t^3 + t^4.  Radius 6
    # lies past the default budget and is built by one-cell rewrites alone
    # (L2 = 14 > 2 * 6).
    assert _surface(2) == SURFACE_GENUS2
    f = _surface_spheres(2, 6)
    assert f[:5] == [1, 8, 56, 392, 2736]  # the Fuchsian oracle's frozen sizes
    assert _spheres(genus2_r6.ball(6), 6) == f == [1, 8, 56, 392, 2736, 19096, 133288]


@pytest.mark.parametrize("genus, radius, sizes", [
    (3, 5, [1, 12, 132, 1452, 15972, 175692]),
    (4, 4, [1, 16, 240, 3600, 54000]),
], ids=["genus3", "genus4"])
def test_surface_sphere_sizes(genus, radius, sizes):
    # one-cell rewrites build these balls too: L2 = 2 (4 g - 1) > 2 radius
    assert _surface_spheres(genus, radius) == sizes
    d = DehnBackend(_surface(genus), max_radius=radius)
    assert _spheres(d.ball(radius), radius) == sizes


@pytest.mark.parametrize("spec,radius", [
    ("free:2", 7), ("free:3", 5), ("zmzn:2,3", 12), ("zmzn:3,3", 9), ("zmzn:2,2", 12),
])
def test_ball_matches_mul_reference(spec, radius):
    backend = make_backend(spec)
    normal_form = free_reduce
    if spec.startswith("zmzn:"):
        normal_form = partial(zmzn_normal_form, tuple(map(int, spec[len("zmzn:"):].split(","))))
    ball = backend.ball(radius)
    assert list(ball.items()) == list(ball_reference(backend.letters, normal_form, radius).items())


@pytest.mark.parametrize("make,radius", [
    (lambda: FreeBackend(2), 7),
    (lambda: FreeProductBackend((2, 3)), 12),
    (lambda: DehnBackend(SURFACE_GENUS2), 4),
], ids=["free2", "zmzn23", "genus2"])
def test_ball_grows_on_demand(make, radius):
    # one instance grows its ball once and answers every radius after it
    # as a fresh instance does; a fresh one builds only the layers it needs
    one = make()
    for r in (radius, 1, radius - 2, 0, radius):
        assert list(one.ball(r).items()) == list(make().ball(r).items())
    fresh = make()
    small = fresh.ball(2)
    assert len(fresh._layer_start) == 4
    full = make().ball(radius)
    assert list(small.items()) == [(w, n) for w, n in full.items() if n <= 2]


def _freely_reduced(n):
    for tup in itertools.product(GENUS2_LETTERS, repeat=n):
        w = "".join(tup)
        if free_reduce(w) == w:
            yield w


def test_greendlinger_certificate():
    """Greendlinger's lemma under C'(1/6), checked against Dehn reduction:
    a nonempty freely reduced word whose cyclic reduction is shorter than
    the relator (8) is nontrivial, and one of length 8 that is cyclically
    reduced is trivial exactly when it is a symmetrized relator."""
    sym = set(SYMMETRIZED)
    words = [w for n in range(1, 6) for w in _freely_reduced(n)]
    rng = random.Random(3)
    for rho in SYMMETRIZED:  # relators and their one-letter mutants
        for i in range(8):
            for c in GENUS2_LETTERS:
                words.append(free_reduce(rho[:i] + c + rho[i + 1:]))
    words += ["".join(rng.choice(GENUS2_LETTERS) for _ in range(rng.randint(6, 10)))
              for _ in range(5000)]
    for w in map(free_reduce, words):
        if not w:
            continue
        k = 0
        while len(w) - 2 * k >= 2 and w[k] == w[-1 - k].swapcase():
            k += 1
        core = w[k:len(w) - k]
        if len(core) < 8:
            assert not REF.is_identity(w), w
        elif len(core) == 8:
            assert REF.is_identity(w) == (core in sym), w


class HomReference(ReferenceDehn):
    """ReferenceDehn for relators whose exponent sums are not zero: it
    buckets words by homomorphisms to Z instead, each given as a functional
    on exponent-sum vectors that vanishes on every relator."""

    def __init__(self, presentation, functionals):
        self.functionals = functionals
        super().__init__(presentation)

    def key(self, w):
        v = super().key(w)
        return tuple(sum(f * x for f, x in zip(phi, v)) for phi in self.functionals)


# Relator lengths 7 (and 8): at radius 4 the last layer meets the shortest
# relator both through completions (layer 3) and through the bucket scan
# (layer 4); the length-8 relator gives same-length duplicates that only
# the scan finds.
SCAN_PATH_CASES = [
    (Presentation(("a", "b", "c"), ("aabaBBc",)), [(1, 3, 0), (0, 1, 1)]),
    (Presentation(("a", "b", "c"), ("aabaBBc", "bccbCaCA")), [(1, 0, -3)]),
]


@pytest.mark.parametrize("presentation, functionals", SCAN_PATH_CASES, ids=["one-relator", "two-relator"])
def test_dehn_scan_path_matches_reference(presentation, functionals):
    assert verify_small_cancellation(presentation, 6)
    ref = HomReference(presentation, functionals)
    for rel in presentation.relators:
        assert ref.key(rel) == (0,) * len(functionals)
    warm, fresh = DehnBackend(presentation), DehnBackend(presentation)
    assert list(warm.ball(4).items()) == list(ref.ball.items())
    letters = "".join(warm.letters)
    ball = sorted(ref.ball, key=shortlex_key)
    sym = presentation.symmetrized()
    rng = random.Random(8)
    for i in range(90):
        if i % 3 == 0:
            w = "".join(rng.choice(letters) for _ in range(rng.randint(0, 12)))
        elif i % 3 == 1:
            u, j = rng.choice(ball), rng.randint(0, 4)
            w = u[:j] + rng.choice(sym) + u[j:] + rng.choice(ball)
        else:
            w = rng.choice(ball) + inverse_word(rng.choice(sym)[rng.randint(3, 5):])
        canon = ref.normal_form(w)
        for d in (fresh, warm):
            assert d.length(w) == ((len(canon), "exact") if canon is not None else (4, "lower_bound(4)")), w
            assert (d.length(w)[1] == "exact") == (canon is not None), w
            red = d.normal_form(w)
            assert red == canon if canon is not None else ref.equal(red, w), w


def test_dehn_ball5_matches_scan_reference():
    # past half the relator length, where same-length duplicates appear
    # (48 in layer 5), the one-cell rewrites build the scan's ball
    fast = DehnBackend(SURFACE_GENUS2, max_radius=5).ball(5)
    assert list(fast.items()) == list(ScanDehn(SURFACE_GENUS2, max_radius=5).ball(5).items())


def _two_cells(presentation):
    """Trivial words of two cells glued along one letter: rho1 = p x and
    rho2 = x^-1 q give p q, where that is cyclically reduced."""
    sym = presentation.symmetrized()
    for r1 in sym:
        for r2 in sym:
            w = r1[:-1] + r2[1:]
            if r2[0] == r1[-1].swapcase() and free_reduce(w) == w and is_cyclically_reduced(w):
                yield w


@pytest.mark.parametrize("presentation, l2", [
    (SURFACE_GENUS2, 14),
    (SCAN_PATH_CASES[0][0], 12),
    (SCAN_PATH_CASES[1][0], 12),
], ids=["genus2", "one-relator", "two-relator"])
def test_one_cell_bound(presentation, l2):
    # every piece is one letter, so L2 = 2 (n_min - 1); two shortest cells
    # glued along a piece make a trivial word of length L2 that is no
    # relator, so no larger bound holds
    assert longest_pieces(presentation) == [1] * len(presentation.relators)
    assert one_cell_bound(presentation) == l2
    d = DehnBackend(presentation)
    sym = set(presentation.symmetrized())
    glued = [w for w in _two_cells(presentation) if w not in sym]
    assert all(d.is_identity(w) for w in glued)
    assert min(map(len, glued)) == l2


def _surface(genus):
    gens = "abcdefgh"[:2 * genus]
    return Presentation(tuple(gens), ("".join(gens[i] + gens[i + 1] + gens[i].upper()
                                              + gens[i + 1].upper()
                                              for i in range(0, 2 * genus, 2)),))


@pytest.mark.parametrize("genus, l2", [(2, 14), (3, 22), (4, 30)])
def test_dehn_construction_makes_one_pieces_pass(genus, l2, monkeypatch):
    """One longest_pieces pass decides C'(1/6) and L2, and the rules and
    halves are those read off symmetrized(), as a relator-by-relator
    loop builds them; a refused presentation is refused with the same
    message after one pass too."""
    import periodlines.backends as backends

    passes = []
    full = backends.longest_pieces
    monkeypatch.setattr(backends, "longest_pieces",
                        lambda *args: passes.append(args[0]) or full(*args))
    presentation = _surface(genus)
    assert genus > 2 or presentation == SURFACE_GENUS2
    d = DehnBackend(presentation)
    assert len(passes) == 1
    rules, halves = {}, {}
    for rho in presentation.symmetrized():
        h = len(rho) // 2
        rules[rho[:h + 1]] = inverse_word(rho[h + 1:])
        halves[rho[:h]] = inverse_word(rho[h:])
    assert d._l2 == l2 == one_cell_bound(presentation)
    assert list(d._rules.items()) == list(rules.items()) and len(rules) == 8 * genus
    assert list(d._halves.items()) == list(halves.items())
    passes.clear()
    with pytest.raises(BackendError) as exc:
        DehnBackend(Presentation(("a", "b"), ("abab",)))
    assert str(exc.value) == "presentation is not C'(1/6); Dehn backend refused"
    assert len(passes) == 1


def test_genus2_two_cell_lookup_at_the_bound(genus2_r6):
    # Around two octagons sharing an edge, u takes 4 letters of each and
    # v the other 6: u is Dehn-reduced, and |u| + |v| = 14 = L2, so only the
    # scan of layer 6 finds u's element
    d = genus2_r6
    cases = 0
    for w in _two_cells(SURFACE_GENUS2):
        u, v = w[3:11], inverse_word(w[11:] + w[:3])
        assert d.dehn_reduce(u) == u
        # a Dehn-reduced word of L2 / 2 + 1 letters that is no geodesic: the
        # lemma that 2 |u| <= L2 makes u a geodesic is sharp
        assert len(u) == 14 // 2 + 1
        assert d.length(u) == (6, "exact") and d.length(v)[1] == "exact"
        assert d.normal_form(u) == d.normal_form(v)
        cases += 1
    assert cases == 16


@pytest.mark.parametrize("presentation, functionals, radius", [
    (SURFACE_GENUS2, None, 6),
    (*SCAN_PATH_CASES[0], 5),
    (*SCAN_PATH_CASES[1], 5),
], ids=["genus2", "one-relator", "two-relator"])
def test_one_cell_lookup_matches_dehn_reduction(presentation, functionals, radius):
    """For every layer d and Dehn-reduced word u with |u| + d < L2, the
    element _member finds (or None) is the one Dehn reduction finds among
    the ball elements of length <= d that take u's values under the
    homomorphisms to Z (the exponent sums on genus 2)."""
    d = DehnBackend(presentation, max_radius=radius)
    l2 = one_cell_bound(presentation)
    ball = list(d.ball(radius))

    def key(w):
        v = [w.count(g) - w.count(g.upper()) for g in presentation.generators]
        return tuple(v) if functionals is None else \
            tuple(sum(f * x for f, x in zip(phi, v)) for phi in functionals)

    buckets = {}
    for w in ball:
        buckets.setdefault(key(w), []).append(w)
    sym = presentation.symmetrized()
    halves = [(rho[:len(rho) // 2], inverse_word(rho[len(rho) // 2:]))
              for rho in sym if len(rho) % 2 == 0]
    letters = "".join(d.letters)
    rng = random.Random(12)
    checked = found = 0
    for i in range(1500):
        v = rng.choice(ball)
        if i % 3 == 0:
            w = "".join(rng.choice(letters) for _ in range(rng.randint(1, l2)))
        elif i % 3 == 1:
            j = rng.randint(0, len(v))
            w = v[:j] + rng.choice(sym) + v[j:]
        elif halves:
            # a ball word with one half of an even relator traded for the
            # other half: another word of its length for the same element
            s, t = rng.choice(halves)
            v = rng.choice([c for c in ball[:5000] if s in c] or [s])
            j = v.index(s)
            w = v[:j] + t + v[j + len(s):]
        else:
            w = v + rng.choice(letters)
        u = d.dehn_reduce(w)
        for layer in range(min(radius, l2 - 1 - len(u)) + 1):
            expected = next((c for c in buckets.get(key(u), ()) if len(c) <= layer
                             and d.is_identity(u + inverse_word(c))), None)
            idx = d._member(u, layer)
            assert (None if idx is None else d._canon[idx]) == expected, (u, layer)
            checked += 1
            found += expected is not None and expected != u
    # an odd relator has no halves: there, equal Dehn-reduced words this
    # short are identical
    assert checked > 3000
    assert found > 100 if halves else found == 0


DEHN_STATE_BACKENDS = {"genus2": DehnBackend(SURFACE_GENUS2),
                       "one-relator": DehnBackend(SCAN_PATH_CASES[0][0]),
                       "two-relator": DehnBackend(SCAN_PATH_CASES[1][0])}


@pytest.mark.parametrize("d", DEHN_STATE_BACKENDS.values(), ids=DEHN_STATE_BACKENDS.keys())
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_dehn_state_matches_reduction(d, data):
    """A word pushed onto a state in pieces, the first by parse_state and
    the others letter by letter, renders after each piece as the Dehn
    reduction of the word so far.  state_dist is then the prefix's length
    where that is exact and raises dist's BudgetExceeded where it is not."""
    sym = d.presentation.symmetrized()
    arcs = [rho[:k] for rho in sym for k in range(len(rho) // 2, len(rho) + 1)]
    chunks = st.one_of(st.text(alphabet="".join(d.letters), max_size=5),
                       st.sampled_from(arcs), st.sampled_from(arcs).map(inverse_word))
    word = "".join(data.draw(st.lists(chunks, max_size=6)))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(word)), min_size=1, max_size=4)))
    state = d.parse_state(word[:cuts[0]])
    for lo, hi in zip(cuts, cuts[1:] + [len(word)]):
        for c in word[lo:hi]:
            d.append_letter(state, c)
        prefix = word[:hi]
        assert d.render(state) == d.dehn_reduce(prefix), (word, cuts)
        n, cert = d.length(prefix)
        if cert == "exact":
            assert d.state_dist(state) == n
        else:
            with pytest.raises(BudgetExceeded) as expected:
                d.dist("", prefix)
            with pytest.raises(BudgetExceeded, match=f"^{re.escape(str(expected.value))}$"):
                d.state_dist(state)


# A scan-built ball(6) takes minutes on genus 2, so at budget 6 the lengths
# are scanned over the one-cell ball (ScanLengths), which
# dehn_scan_reference.main checks against the scan-built one.
SHORT_LENGTH_REFERENCES = {
    f"{name}-r{budget}": (d.presentation, budget, (ScanDehn if budget == 4 else ScanLengths)(
        d.presentation, max_radius=budget))
    for name, d in DEHN_STATE_BACKENDS.items() for budget in (4, 6)}


def _outcome(f, *args):
    try:
        return f(*args)
    except BudgetExceeded as exc:
        return f"BudgetExceeded: {exc}"


@pytest.mark.parametrize("presentation, budget, ref", SHORT_LENGTH_REFERENCES.values(),
                         ids=SHORT_LENGTH_REFERENCES.keys())
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_dehn_short_reduced_lengths_match_scan(presentation, budget, ref, data):
    """A Dehn-reduced word u with 2 |u| <= L2 is a geodesic, and beyond
    the budget no ball element equals it: on a fresh backend, length, dist
    and state_dist read these answers off u and agree with the scan
    reference, BudgetExceeded messages included, without growing the
    ball."""
    d = DehnBackend(presentation, max_radius=budget)
    sym = presentation.symmetrized()
    arcs = [rho[:k] for rho in sym for k in range(len(rho) // 2, len(rho) + 1)]
    chunks = st.one_of(st.text(alphabet="".join(d.letters), max_size=5),
                       st.sampled_from(arcs), st.sampled_from(arcs).map(inverse_word))
    word = "".join(data.draw(st.lists(chunks, max_size=6)))
    # a prefix of a Dehn-reduced word is Dehn-reduced
    u = d.dehn_reduce(word)[:one_cell_bound(presentation) // 2]
    k = data.draw(st.integers(0, len(u)))
    state = d.parse_state(u[:k])
    for c in u[k:]:
        d.append_letter(state, c)
    got = (d.length(u), _outcome(d.dist, inverse_word(u[:k]), u[k:]), _outcome(d.state_dist, state))
    assert len(d._layer_start) == 2, u
    expected = (ref.length(u), _outcome(ref.dist, "", u), _outcome(ref.state_dist, list(u)))
    assert got == expected, u


# Presentations on which the lookups that need no ball are compared with a
# fully grown ball, each with the radius of the ball whose elements are
# inputs: 5, or 4 where ball(5) is large (193,261 elements on genus 3) or
# slow to build (9 s on abcd).  <a, b, c, d | abcd> has no pieces, so
# L2 = 8 = 2 * 4 meets the default budget: there a Dehn-reduced word of 4
# letters can differ from its ShortLex form in two cells (bcbc = ADAD),
# which only the grown ball finds.
LOOKUP_PRESENTATIONS = {
    "genus2": (SURFACE_GENUS2, 5),
    "genus3": (Presentation(tuple("abcdef"), ("abABcdCDefEF",)), 4),
    "one-relator": (SCAN_PATH_CASES[0][0], 5),
    "two-relator": (SCAN_PATH_CASES[1][0], 5),
    "abcd": (Presentation(tuple("abcd"), ("abcd",)), 4),
}


@pytest.mark.parametrize("presentation, radius", LOOKUP_PRESENTATIONS.values(),
                         ids=LOOKUP_PRESENTATIONS.keys())
def test_dehn_lookups_match_the_grown_ball(presentation, radius):
    """normal_form, geodesic_word (or its BudgetExceeded), length and dist
    on a fresh backend at the default budget equal what _member finds in
    a backend whose ball is grown to the budget.  Inputs: every element of
    ball(radius), the words one and two trades of a half-relator for the
    other half away from each, and seeded random Dehn-reduced words of 1 to
    12 letters."""
    d, ref = DehnBackend(presentation), DehnBackend(presentation)
    budget = ref.max_radius
    ref.ball(budget)
    ball = list(DehnBackend(presentation, max_radius=radius).ball(radius))
    rng = random.Random(17)
    sym = presentation.symmetrized()
    halves = [(rho[:len(rho) // 2], inverse_word(rho[len(rho) // 2:]))
              for rho in sym if len(rho) % 2 == 0]
    words = list(ball)
    for w in ball:
        # up to two trades: two take ADAD to bcbc on abcd
        for _ in range(2):
            traded = [w[:i] + t + w[i + len(s):] for s, t in halves
                      for i in range(len(w)) if w.startswith(s, i)]
            if traded:
                w = rng.choice(traded)
                words.append(w)
    letters = "".join(d.letters)
    while len(words) < len(ball) + 3000:
        red = d.dehn_reduce("".join(rng.choice(letters) for _ in range(rng.randint(1, 16))))
        if 1 <= len(red) <= 12:
            words.append(red)

    def expected(w):
        red = ref.dehn_reduce(w)
        idx = ref._member(red, budget)
        canon = None if idx is None else ref._canon[idx]
        geodesic = canon if canon is not None else \
            f"BudgetExceeded: geodesic unavailable at budget; largest completed radius is {budget}"
        length = (len(canon), "exact") if canon is not None else \
            (budget, f"lower_bound({budget})")
        return (red if canon is None else canon), geodesic, length

    moved = 0
    for w in words:
        got = d.normal_form(w), _outcome(d.geodesic_word, w), d.length(w)
        assert got == expected(w), w
        moved += got[0] != d.dehn_reduce(w)
    for u, v in zip(words[::7], words[3::7]):
        n, cert = expected(inverse_word(u) + v)[2]
        want = n if cert == "exact" else \
            f"BudgetExceeded: distance not certified within radius {budget}"
        assert _outcome(d.dist, u, v) == want, (u, v)
    # the normal form differs from the Dehn reduction on some inputs, if a
    # half-relator fits in the budget
    assert moved > 0 if any(len(s) <= budget for s, _ in halves) else moved == 0


# Budgets at which BudgetExceeded.bound is checked, each with a backend of a
# larger budget that checks the bound is sound, where one is cheap to build.
# The scan presentations stop at budget 5: their ball(6) takes 8 s and 76 s.
BOUND_CASES = {
    "genus2-r4": (SURFACE_GENUS2, 4, 6),
    "genus2-r6": (SURFACE_GENUS2, 6, None),
    "one-relator-r4": (SCAN_PATH_CASES[0][0], 4, 5),
    "one-relator-r5": (SCAN_PATH_CASES[0][0], 5, None),
    "two-relator-r4": (SCAN_PATH_CASES[1][0], 4, 5),
    "two-relator-r5": (SCAN_PATH_CASES[1][0], 5, None),
}


@pytest.mark.parametrize("presentation, budget, wider", BOUND_CASES.values(), ids=BOUND_CASES.keys())
def test_budget_exceeded_carries_the_certified_bound(presentation, budget, wider):
    """dist and state_dist raise the same BudgetExceeded for g = u^-1 v, and
    its bound is length(g)[0] + 1: the certificate lower_bound(n) of length
    and the exception's bound n + 1 say the same.  The bound is sound: a
    backend with a larger budget never finds g shorter."""
    d = DehnBackend(presentation, max_radius=budget)
    check = DehnBackend(presentation, max_radius=wider) if wider else None
    letters = "".join(d.letters)
    sym = presentation.symmetrized()
    rng = random.Random(budget)
    raised = 0
    for i in range(300):
        if i % 2:
            w = "".join(rng.choice(letters) for _ in range(rng.randint(0, 14)))
        else:
            rho = rng.choice(sym)
            w = (inverse_word(rho[rng.randint(1, len(rho) // 2):])
                 + "".join(rng.choice(letters) for _ in range(rng.randint(0, 8))))
        k = rng.randint(0, len(w))
        state = d.parse_state(w[:k])
        for c in w[k:]:
            d.append_letter(state, c)
        n, cert = d.length(w)
        try:
            assert d.dist(inverse_word(w[:k]), w[k:]) == n and cert == "exact", w
        except BudgetExceeded as exc:
            assert cert == f"lower_bound({n})" and exc.bound == n + 1 == budget + 1, w
            with pytest.raises(BudgetExceeded) as by_state:
                d.state_dist(state)
            assert (str(by_state.value), by_state.value.bound) == (str(exc), exc.bound), w
            if check is not None:
                assert check.length(w)[0] >= exc.bound, w
            raised += 1
        else:
            assert d.state_dist(state) == n, w
    assert 20 < raised < 280


def test_budget_exceeded_bound_and_message():
    # the message is the first argument alone, as before the bound was added
    exc = BudgetExceeded("distance not certified within radius 4", 5)
    assert (str(exc), exc.bound) == ("distance not certified within radius 4", 5)
    d = DehnBackend(SURFACE_GENUS2)
    with pytest.raises(BudgetExceeded, match="^geodesic unavailable at budget; "
                       "largest completed radius is 4$") as info:
        d.geodesic_word("aaaaa")
    assert info.value.bound == 5
    with pytest.raises(BudgetExceeded, match="^ball radius 5 exceeds budget") as info:
        d.ball(5)
    assert info.value.bound is None


@pytest.mark.parametrize("backend", CONFORMANCE, ids=["free", "zmzn", "dehn"])
def test_negative_ball_radius_is_refused(backend):
    with pytest.raises(BackendError, match="radius must be >= 0"):
        backend.ball(-1)
