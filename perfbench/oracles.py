"""Oracles that check the library's outputs without calling the library.

Each group gets its own arithmetic here, written from the definitions:

- free groups: free reduction on strings;
- Z/2*Z/3 = <x | x^2> * <y | y^3>: syllable normal forms;
- the genus-2 surface group <a,b,c,d | abABcdCD>: exact 2x2 matrices of the
  Fuchsian group that pairs the sides of the regular hyperbolic octagon.

Frozen values carry a note saying how they were derived.
"""

from fractions import Fraction

# Letter order shared with the library's ShortLex convention: a < A < b < ...


def letter_rank(c):
    return 2 * (ord(c.lower()) - ord("a")) + (0 if c.islower() else 1)


def inverse(w):
    return w[::-1].swapcase()


# ---------------------------------------------------------------- free groups

def free_reduce(w):
    out = []
    for c in w:
        if out and out[-1] == c.swapcase():
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def primitive_root(w):
    """(root, k) with w == root * k and k maximal."""
    n = len(w)
    for p in range(1, n + 1):
        if n % p == 0 and w[:p] * (n // p) == w:
            return w[:p], n // p
    return w, 1


def _rotations(w):
    return {w[i:] + w[:i] for i in range(len(w))}


def free_commensurable(a, b):
    """Cyclically reduced a, b: some powers are conjugate iff their primitive
    roots are cyclic rotations of each other, up to inversion (centralizers
    in a free group are cyclic)."""
    ra, _ = primitive_root(a)
    rb, _ = primitive_root(b)
    return len(ra) == len(rb) and (ra in _rotations(rb) or ra in _rotations(inverse(rb)))


def free_power(w, n):
    return free_reduce(w * n if n >= 0 else inverse(w) * -n)


# --------------------------------------------------------------- Z/2 * Z/3

# Syllables are (factor, exponent): factor 0 is x (order 2), factor 1 is y
# (order 3).  Letters: x (X is an alias), y, Y = y^-1 = y^2.
_FP_ORDER = (2, 3)


def _fp_syllables(w):
    out = []
    for c in w:
        if c in "xX":
            f, e = 0, 1
        elif c == "y":
            f, e = 1, 1
        elif c == "Y":
            f, e = 1, 2
        else:
            raise ValueError(f"letter {c!r} not in Z/2*Z/3")
        if out and out[-1][0] == f:
            e = (out.pop()[1] + e) % _FP_ORDER[f]
            if e == 0:
                continue
        out.append((f, e))
    return out


def fp_reduce(w):
    """Canonical alternating word; its length is the word length."""
    return "".join("x" if f == 0 else ("y" if e == 1 else "Y")
                   for f, e in _fp_syllables(w))


def fp_inverse(w):
    return fp_reduce("".join({"x": "x", "X": "x", "y": "Y", "Y": "y"}[c]
                             for c in reversed(w)))


def fp_mul(*words):
    return fp_reduce("".join(words))


def fp_power(w, n):
    return fp_reduce((w if n >= 0 else fp_inverse(w)) * abs(n))


def fp_cyclic_core(w):
    """Shortest conjugate, up to rotation: strip conjugate end syllables and
    fold equal-factor ends until the word alternates cyclically."""
    w = fp_reduce(w)
    while len(w) >= 2 and _fp_syllables(w[0])[0][0] == _fp_syllables(w[-1])[0][0]:
        w = fp_mul(w[-1], w[:-1])
    return w


def fp_commensurable(a, b):
    """Loxodromic a, b: some powers are conjugate iff the primitive roots of
    their cyclic cores are rotations of each other up to inversion, because
    conjugate cyclically reduced elements of a free product are cyclic
    permutations of each other (Magnus-Karrass-Solitar, Thm 4.2) and powers
    of a cyclically alternating word never cancel."""
    ra, _ = primitive_root(fp_cyclic_core(a))
    rb, _ = primitive_root(fp_cyclic_core(b))
    return len(ra) == len(rb) and (ra in _rotations(rb) or ra in _rotations(fp_inverse(rb)))


def fp_ball(radius):
    """{element: length} for every element of length <= radius."""
    out = {"": 0}
    frontier = [""]
    for d in range(1, radius + 1):
        nxt = []
        for w in frontier:
            for c in "xyY":
                v = fp_mul(w, c)
                if v not in out:
                    out[v] = d
                    nxt.append(v)
        frontier = nxt
    return out


def fp_loxodromic_corpus(max_len):
    """Every cyclically alternating word of even length 2..max_len: exactly
    the conjugacy-shortest loxodromics up to that length."""
    out = []
    for w in fp_ball(max_len):
        if len(w) >= 2 and fp_cyclic_core(w) == w:
            out.append(w)
    return sorted(out, key=lambda w: (len(w), [letter_rank(c) for c in w]))


def fp_acylindricity(eps, radius):
    """(R, N) observed on ball(radius), from the definition: N(R) is the max
    over |g| >= R of #{f : |f| <= eps, |g^-1 f g| <= eps}; R is the least
    threshold whose max equals the value at the largest threshold."""
    ball = fp_ball(radius)
    small = [f for f, d in ball.items() if d <= eps]
    counts = []
    for g, d in ball.items():
        if d >= 1:
            gi = fp_inverse(g)
            counts.append((d, sum(1 for f in small if len(fp_mul(gi, f, g)) <= eps)))
    top = {t: max((c for d, c in counts if d >= t), default=0) for t in range(1, radius + 1)}
    n = top[radius]
    return min(t for t in top if top[t] == n), n


# Frozen: Z/2*Z/3 over {x, y, Y} has a Cayley graph that is a tree of
# triangles (one triangle per coset of <y>, joined by the x edges).  A
# triangle 1, y, Y has the midpoint of its side y--Y at distance 1/2 from the
# side 1--y, and in a tree of triangles no point is farther than 1/2 from the
# other two sides, so the exhaustive estimate is 1/2 on every ball of radius
# >= 2.  The free group's Cayley graph is a tree, where every geodesic triangle
# is a tripod: 0.
FP_DELTA = Fraction(1, 2)
FREE_DELTA = Fraction(0)

# Frozen: a loxodromic of Z/2*Z/3 is conjugate to a cyclically alternating
# word of even length 2m, whose powers never cancel, so its stable norm is
# exactly 2m; the least is 2 (xy).
FP_INJECTIVITY = Fraction(2)


# ---------------------------------------------------- genus-2 Fuchsian group
#
# Exact arithmetic in Z[z][s] with z = exp(i pi/4) (z^4 = -1) and
# s = sqrt(2 + 2 sqrt2) (s^2 = 2 + 2z - 2z^3, since sqrt2 = z - z^3).  A number
# is a pair (p, q) meaning p + q s, with p, q 4-tuples of integer coordinates
# over 1, z, z^2, z^3.  An element of SU(1,1) [[al, be], [conj be, conj al]] is
# the pair (al, be).  The regular octagon with interior angles pi/4 has
# centre-to-side distance h with cosh h = cot(pi/8) = 1 + sqrt2 and
# sinh h = s.  The side pairing that carries side j onto side k (side j
# centred at angle j pi/4) is R(k pi/4) T(2h) R(pi - j pi/4), rotation R and
# translation T along the real axis, which gives al = cosh h * z^(2+(k-j)/2)
# and be = sinh h * z^(-2+(k+j)/2).  By Poincare's polygon theorem the
# pairings generate a discrete group with the octagon as fundamental domain
# and the cycle relation as the only relation, i.e. a faithful image of the
# surface group.


def _zmul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0)


def _zadd(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def _zconj(a):
    # conj z = z^-1 = -z^3
    return (a[0], -a[3], -a[2], -a[1])


_ZERO = (0, 0, 0, 0)
_ONE = (1, 0, 0, 0)
_S2 = (2, 2, 0, -2)
_COSH = (1, 1, 0, -1)


def _zpow(k):
    k %= 8
    sign = -1 if k >= 4 else 1
    out = [0, 0, 0, 0]
    out[k % 4] = sign
    return tuple(out)


def _nmul(u, v):
    (p1, q1), (p2, q2) = u, v
    return (_zadd(_zmul(p1, p2), _zmul(_zmul(q1, q2), _S2)),
            _zadd(_zmul(p1, q2), _zmul(q1, p2)))


def _nadd(u, v):
    return (_zadd(u[0], v[0]), _zadd(u[1], v[1]))


def _nconj(u):
    return (_zconj(u[0]), _zconj(u[1]))


def _mmul(g, h):
    (a1, b1), (a2, b2) = g, h
    return (_nadd(_nmul(a1, a2), _nmul(b1, _nconj(b2))),
            _nadd(_nmul(a1, b2), _nmul(b1, _nconj(a2))))


def _minv(g):
    al, be = g
    neg = tuple(-c for c in be[0]), tuple(-c for c in be[1])
    return (_nconj(al), neg)


def _key(g):
    """Matrices up to sign, since the surface group lives in PSU(1,1)."""
    flat = g[0][0] + g[0][1] + g[1][0] + g[1][1]
    for c in flat:
        if c:
            return flat if c > 0 else tuple(-x for x in flat)
    return flat


def _pairing(j, k):
    return (((_zmul(_COSH, _zpow(2 + (k - j) // 2))), _ZERO),
            (_ZERO, _zpow(-2 + (k + j) // 2)))


_IDENTITY = ((_ONE, _ZERO), (_ZERO, _ZERO))

# The boundary word abABcdCD, read counterclockwise from side 0, labels sides
# 0..7 with a, b, A, B, c, d, C, D.  Generator a carries side 2 onto side 0
# and b carries side 1 onto side 3 (c and d likewise); of the 16 choices of
# direction, this is the only one whose cycle relation is abABcdCD (checked
# in the tests).
_SIDES = {"a": (2, 0), "b": (1, 3), "c": (6, 4), "d": (5, 7)}


class Genus2Fuchsian:
    """Exact faithful representation of <a,b,c,d | abABcdCD> and the balls
    of its Cayley graph, built by breadth-first search on matrices."""

    # Frozen at the radius-4 budget of the library's Dehn backend.  Derived by
    # the breadth-first search below on exact matrices; they agree with the
    # free group of rank 4 (1, 8, 56, 392) until radius 4, where the 8
    # antipodal pairs of octagon vertices meet (8 * 7^3 - 8 = 2736), as the
    # girth of the Cayley graph is the relator length 8.
    SPHERES = (1, 8, 56, 392, 2736)

    def __init__(self, radius=4):
        self.gens = {}
        for low, (j, k) in _SIDES.items():
            g = _pairing(j, k)
            self.gens[low] = g
            self.gens[low.upper()] = _minv(g)
        self.radius = radius
        self.length = {_key(_IDENTITY): 0}
        self.spheres = [1]
        frontier = [_IDENTITY]
        letters = sorted(self.gens, key=letter_rank)
        for d in range(1, radius + 1):
            nxt = []
            for m in frontier:
                for c in letters:
                    v = _mmul(m, self.gens[c])
                    k = _key(v)
                    if k not in self.length:
                        self.length[k] = d
                        nxt.append(v)
            self.spheres.append(len(nxt))
            frontier = nxt

    def matrix(self, w):
        m = _IDENTITY
        for c in w:
            m = _mmul(m, self.gens[c])
        return m

    def equal(self, u, v):
        return _key(self.matrix(u)) == _key(self.matrix(v))

    def is_identity(self, w):
        return _key(self.matrix(w)) == _key(_IDENTITY)

    def word_length(self, w):
        """Exact length if w lies in the ball, else None."""
        return self.length.get(_key(self.matrix(w)))
