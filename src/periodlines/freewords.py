"""Free-group words and the free-group periodicity lemma.

Convention: lowercase letter = generator, matching uppercase = its inverse.
At most 26 generators.

free_commensurate is the exact commensurability oracle; overlap_root, the
periodicity lemma for two periodic lines, is read off its witness.
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
    if not is_reduced(w):
        return False
    return len(w) < 2 or w[0] != w[-1].swapcase()


def cyclic_reduce(w: str) -> tuple[str, str]:
    """Return (u, core) with free_reduce(w) = u * core * u^-1 and core
    cyclically reduced."""
    return _cyclic_split(free_reduce(w))


def _cyclic_split(r: str) -> tuple[str, str]:
    """cyclic_reduce for a reduced word r."""
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
    commensurable (Fine-Wilf; Lyndon-Schupp, Ch. I), so the root is read off
    the witness (g, s, t) of free_commensurate.  For cyclically reduced
    words g is the prefix of b's root, or of its inverse when t < 0, whose
    rotation is a's root c.
    """
    for w, name in ((a, "a"), (b, "b")):
        if not w or not is_cyclically_reduced(w):
            raise FreeWordError(f"{name} must be nonempty and cyclically reduced")
    res = free_commensurate(a, b)
    if res is None:
        return None
    g, _, t = res
    c, exp_a = primitive_root(a)
    exp_b = len(b) // len(c)
    if t > 0:
        return OverlapRoot(c, 0, len(g), exp_a, exp_b)
    # rotate(b^-1, |g|) = c^exp_b, so rotate(b, -|g|) = (c^-1)^exp_b
    return OverlapRoot(c, 0, -len(g) % len(c), exp_a, -exp_b)


def free_commensurate(a: str, b: str) -> tuple[str, int, int] | None:
    """Decide commensurability in the free group.

    Returns (g, s, t) with s, t != 0 and g^-1 b^t g = a^s (as reduced words),
    or None exactly when a and b are not commensurable: that is, when the
    primitive root of a's cyclic core is no rotation of the root of b's, or
    of its inverse.  The first such rotation gives g.

    Each input is checked and reduced once; the witness is verified by
    reducing both sides of its equation.
    """
    ra, rb = free_reduce(a), free_reduce(b)
    if not ra or not rb:
        raise FreeWordError("torsion-free group: trivial element excluded")
    ua, core_a = _cyclic_split(ra)
    ub, core_b = _cyclic_split(rb)
    pa, ka = primitive_root(core_a)
    pb, kb = primitive_root(core_b)
    for sign in (1, -1):
        pb_oriented = pb if sign == 1 else inverse_word(pb)
        if len(pb_oriented) != len(pa):
            continue
        # the first i with rotate(pb_oriented, i) == pa
        i = (pb_oriented * 2).find(pa)
        if i < 0:
            continue
        # pa = sigma^-1 pb_oriented sigma for sigma = pb_oriented[:i]
        sigma = pb_oriented[:i]
        g = _reduce(ub + sigma + inverse_word(ua))
        d = gcd(ka, kb)
        s, t = kb // d, sign * (ka // d)
        check = _reduce(inverse_word(g) + rb * t + g) if t > 0 else \
            _reduce(inverse_word(g) + inverse_word(rb) * (-t) + g)
        if check != _reduce(ra * s):
            raise RuntimeError("witness failed to verify")
        return g, s, t
    return None
