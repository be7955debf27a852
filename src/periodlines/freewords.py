"""Free-group words and the free-group periodicity lemma.

Convention: lowercase letter = generator, matching uppercase = its inverse.
At most 26 generators.

overlap_root is the periodicity lemma for two periodic lines, read off the
words' primitive roots by match_roots.  The library's commensurability
oracle, backends._Backend.commensurate (FreeBackend(rank).commensurate on a
free group), makes the same root comparison over normal forms.
"""

from dataclasses import dataclass
from math import gcd

from .words import primitive_root


class FreeWordError(ValueError):
    pass


def check_letters(w: str) -> None:
    for c in w:
        if not c.isascii() or not c.isalpha():
            raise FreeWordError(f"bad letter {c!r}")


def inverse_word(w: str) -> str:
    return w[::-1].swapcase()


def power_word(w: str, n: int) -> str:
    """A word for w^n: n copies of w, or |n| of inverse_word(w) for n < 0."""
    return w * n if n >= 0 else inverse_word(w) * -n


def free_reduce(w: str) -> str:
    """Unique reduced word equal to w in the free group."""
    check_letters(w)
    return _reduce(w)


def _reduce(w: str) -> str:
    """free_reduce for a word whose letters are checked."""
    out: list[str] = []
    for c in w:
        if out and out[-1] == c.swapcase():
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def is_reduced(w: str) -> bool:
    return all(w[i] != w[i + 1].swapcase() for i in range(len(w) - 1))


def is_cyclically_reduced(w: str) -> bool:
    return is_reduced(w) and (len(w) < 2 or w[0] != w[-1].swapcase())


def cyclic_reduce(w: str) -> tuple[str, str]:
    """Return (u, core) with free_reduce(w) = u * core * u^-1 and core
    cyclically reduced."""
    r = free_reduce(w)
    k = 0
    while len(r) - 2 * k >= 2 and r[k] == r[-1 - k].swapcase():
        k += 1
    return r[:k], r[k:len(r) - k]


def rotate(w: str, i: int) -> str:
    """Cyclic permutation: rotate(w, i) = w[i:] + w[:i] = s^-1 w s for
    s = w[:i]."""
    i %= len(w)
    return w[i:] + w[:i]


def line_window(a: str, n_min: int, n_max: int) -> str:
    """Window of the bi-infinite word ...aaa... spanning exponents
    [n_min, n_max]; the concatenation never reduces across boundaries."""
    if not a or not is_cyclically_reduced(a):
        raise FreeWordError("period word must be nonempty and cyclically reduced")
    if n_min >= n_max:
        raise FreeWordError("need n_min < n_max")
    return a * (n_max - n_min)


@dataclass(frozen=True)
class OverlapRoot:
    """Common primitive root of the lines of a and b.

    rotate(a, shift_a) == c ** exp_a, and rotate(b, shift_b) equals
    c ** exp_b for exp_b > 0, or inverse_word(c) ** -exp_b for exp_b < 0.
    """

    c: str
    shift_a: int
    shift_b: int
    exp_a: int
    exp_b: int


def overlap_root(a: str, b: str) -> OverlapRoot | None:
    """Common primitive root of the lines ...aaa... and ...bbb..., or None
    when they share no subword of length |a|+|b|.

    In a free group the lines share such a subword exactly when a and b are
    commensurable (Fine-Wilf; Lyndon-Schupp, Ch. I), that is, when the
    primitive root c of a is a rotation of b's root or of its inverse.
    a and b are their own cyclic cores, so match_roots compares the words
    as given, and its g is the prefix of b's root, or of its inverse when
    t < 0, whose rotation is c.  The root is checked by rotating a and b
    onto powers of c before it is returned.
    """
    for w, name in ((a, "a"), (b, "b")):
        if not w or not is_cyclically_reduced(w):
            raise FreeWordError(f"{name} must be nonempty and cyclically reduced")
    check_letters(a + b)
    res = match_roots(("", a), ("", b), inverse_word)
    if res is None:
        return None
    g, _, t = res
    c, exp_a = primitive_root(a)
    n = len(b) // len(c)
    # for t < 0, rotate(b^-1, |g|) = c^n, so rotate(b, -|g|) = (c^-1)^n
    shift_b, c_b = (len(g), c) if t > 0 else (-len(g) % len(c), inverse_word(c))
    root = OverlapRoot(c, 0, shift_b, exp_a, n if t > 0 else -n)
    if rotate(a, root.shift_a) != c * exp_a or rotate(b, root.shift_b) != c_b * n:
        raise RuntimeError("overlap root failed to verify")
    return root


def match_roots(split_a: tuple[str, str], split_b: tuple[str, str], inverse):
    """(g, s, t) with g^-1 b^t g = a^s, s > 0 and t != 0, g not reduced, or
    None where a and b are not commensurable.  split_a = (u, c) and
    split_b = (v, d) give a = u c u^-1 and b = v d v^-1 with cyclically
    reduced cores c and d, loxodromic ones on a free product, and inverse
    maps a normal form to the normal form of its inverse.

    Write c = p^k and d = q^l with p and q primitive.  A loxodromic core
    begins and ends in letters that do not fold together (on a free
    product, in different factors: a core of two or more syllables
    alternates cyclically), and so do p and q.  So no power of them
    cancels or merges: c^n is the normal form p^(k n), cyclically reduced,
    and so is inverse(q).  Two cyclically reduced words are conjugate iff
    one is a cyclic permutation of the other, letters being syllables on a
    free product (Magnus-Karrass-Solitar, Thm 4.2; Lyndon-Schupp, Ch. IV,
    Sec. 1), and a rotation of a power of a primitive word is that power
    of a rotation of it.  So a^s and b^t are conjugate, s, t != 0, iff p
    is a rotation q'[i:] + q'[:i] of q' = q or inverse(q) and k s = l |t|.
    The first such rotation, in that order, gives the least witness:
    s = l / gcd(k, l), |t| = k / gcd(k, l), and g = v sigma u^-1, as
    p = sigma^-1 q' sigma for sigma = q'[:i]."""
    (u, c), (v, d) = split_a, split_b
    (p, k), (q, l) = primitive_root(c), primitive_root(d)
    if len(p) == len(q):
        for sign, q_signed in ((1, q), (-1, inverse(q))):
            i = (q_signed * 2).find(p)
            if i >= 0:
                n = gcd(k, l)
                return v + q_signed[:i] + inverse_word(u), l // n, sign * (k // n)
    return None
