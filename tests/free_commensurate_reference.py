"""Free-group commensurability by a loop over every rotation of one
primitive root: the reference that FreeBackend.commensurate, the library's
exact oracle, is checked against on free groups."""

from math import gcd

from periodlines.freewords import cyclic_reduce, free_reduce, inverse_word, rotate
from periodlines.words import primitive_root


def reference_free_commensurate(a, b):
    """(g, s, t) with g^-1 b^t g = a^s, s > 0 and t != 0, the least such
    in the oracle's order, or None where a and b are not commensurable;
    a and b nontrivial."""
    ra, rb = free_reduce(a), free_reduce(b)
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
                g = free_reduce(ub + pb_oriented[:i] + inverse_word(ua))
                d = gcd(ka, kb)
                return g, kb // d, sign * (ka // d)
    return None


def reference_free_oracle(a, b):
    """The reference in the oracle's form: (witness, certificate)."""
    res = reference_free_commensurate(a, b)
    if res is None:
        return None, "exact: non-commensurable"
    return {"g": res[0], "s": res[1], "t": res[2]}, "exact"
