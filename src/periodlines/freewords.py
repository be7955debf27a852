"""Free-group words and the free-group periodicity lemma.

Convention: lowercase letter = generator, matching uppercase = its inverse.
At most 26 generators.
"""

from dataclasses import dataclass
from math import gcd

from .words import primitive_root


class FreeWordError(ValueError):
    pass


def check_letters(w: str, rank: int | None = None) -> None:
    if rank is not None and not 1 <= rank <= 26:
        raise FreeWordError(f"rank must be between 1 and 26, got {rank}")
    for c in w:
        if not c.isascii() or not c.isalpha():
            raise FreeWordError(f"bad letter {c!r}")
        if rank is not None and ord(c.lower()) - ord("a") >= rank:
            raise FreeWordError(f"letter {c!r} outside rank {rank}")


def inverse_word(w: str) -> str:
    return w[::-1].swapcase()


def free_reduce(w: str, rank: int | None = None) -> str:
    """Unique reduced word equal to w in the free group."""
    check_letters(w, rank)
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


def _powers_match(u: str, v: str, length: int) -> bool:
    return (u * (length // len(u) + 1))[:length] == (v * (length // len(v) + 1))[:length]


def overlap_root(a: str, b: str) -> OverlapRoot | None:
    """Search the lines ...aaa... and ...bbb... for a common subword of
    length |a|+|b|; on success some cyclic permutations of a and b are powers
    of a common primitive word c.

    Scanning all |a| x |b| relative offsets is exhaustive: the letter at
    offset k of either line depends on k modulo the word length, so the
    pattern of agreements repeats with period lcm(|a|,|b|) <= |a|*|b|.
    The reversed orientation of b is scanned as well (exp_b < 0).
    """
    for w, name in ((a, "a"), (b, "b")):
        if not w or not is_cyclically_reduced(w):
            raise FreeWordError(f"{name} must be nonempty and cyclically reduced")
    length = len(a) + len(b)
    for oriented in (b, inverse_word(b)):
        for i in range(len(a)):
            ra = rotate(a, i)
            for j in range(len(b)):
                rb = rotate(oriented, j)
                if _powers_match(ra, rb, length):
                    # Both rotations share a (|a|+|b|)-prefix, so by the
                    # periodicity lemma they are powers of the gcd-prefix.
                    c, exp_a = primitive_root(ra)
                    exp_b = len(b) // len(c)
                    if oriented is b:
                        return OverlapRoot(c, i, j, exp_a, exp_b)
                    # rb is a rotation of b^-1; express the shift on b itself.
                    target = inverse_word(c) * exp_b
                    for sb in range(len(b)):
                        if rotate(b, sb) == target:
                            return OverlapRoot(c, i, sb, exp_a, -exp_b)
                    raise AssertionError("unreachable: shift on b must exist")
    return None


def free_commensurate(a: str, b: str) -> tuple[str, int, int] | None:
    """Decide commensurability in the free group.

    Returns (g, s, t) with s, t != 0 and g^-1 b^t g = a^s (as reduced words),
    or None exactly when a and b are not commensurable.
    """
    ra, rb = free_reduce(a), free_reduce(b)
    if not ra or not rb:
        raise FreeWordError("torsion-free group: trivial element excluded")
    ua, core_a = cyclic_reduce(ra)
    ub, core_b = cyclic_reduce(rb)
    pa, ka = primitive_root(core_a)
    pb, kb = primitive_root(core_b)
    for sign in (1, -1):
        pb_oriented = pb if sign == 1 else inverse_word(pb)
        if len(pb_oriented) != len(pa):
            continue
        for i in range(len(pb_oriented)):
            if rotate(pb_oriented, i) == pa:
                # pa = sigma^-1 pb_oriented sigma for sigma = pb_oriented[:i]
                sigma = pb_oriented[:i]
                g = free_reduce(ub + sigma + inverse_word(ua))
                d = gcd(ka, kb)
                s, t = kb // d, sign * (ka // d)
                check = free_reduce(inverse_word(g) + rb * t + g) if t > 0 else \
                    free_reduce(inverse_word(g) + inverse_word(rb) * (-t) + g)
                if check != free_reduce(ra * s):
                    raise RuntimeError("witness failed to verify")
                return g, s, t
    return None
