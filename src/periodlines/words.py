"""Periodicity algorithms on words over a free monoid.

Words are plain Python strings.  A period is identified by its length p:
p is a period length of z iff z[i] == z[i+p] for every valid i, equivalently
the prefix of length p repeats (possibly with a partial last copy) through z.
The full length |z| always counts as a (trivial) period length.
"""

from math import gcd


class PeriodError(ValueError):
    pass


def border_array(z: str) -> list[int]:
    """Failure function: entry i is the length of the longest proper border
    of the prefix z[:i+1]."""
    n = len(z)
    b = [0] * n
    k = 0
    for i in range(1, n):
        while k and z[i] != z[k]:
            k = b[k - 1]
        if z[i] == z[k]:
            k += 1
        b[i] = k
    return b


def period_lengths(z: str) -> list[int]:
    """All period lengths of z, ascending.  |z| is always included."""
    if not z:
        raise PeriodError("empty word has no periods")
    n = len(z)
    b = border_array(z)
    # p is a period length iff n - p is a border length of z (0 included).
    borders = {0}
    k = b[-1]
    while k > 0:
        borders.add(k)
        k = b[k - 1]
    return sorted(n - length for length in borders)


def is_period(z: str, p: int) -> bool:
    """Direct shift check, independent of border_array."""
    if not 1 <= p <= len(z):
        return False
    return all(z[i] == z[i + p] for i in range(len(z) - p))


def fine_wilf_root(z: str, p: int, q: int) -> str:
    """Common root guaranteed by the periodicity lemma.

    Given period lengths p and q of z with |z| >= p + q, returns the prefix w
    of length gcd(p, q); w is then itself a period word of z and the length-p
    and length-q period words are powers of w.
    """
    if not z:
        raise PeriodError("empty word has no periods")
    for r in (p, q):
        if not is_period(z, r):
            raise PeriodError(f"not a period: {r}")
    if len(z) < p + q:
        raise PeriodError(f"overlap too short: |z|={len(z)} < {p}+{q}")
    g = gcd(p, q)
    w = z[:g]
    if not (is_period(z, g) and z[:p] == w * (p // g) and z[:q] == w * (q // g)):
        raise RuntimeError("periodicity lemma violated (internal error)")
    return w


def primitive_root(w: str) -> tuple[str, int]:
    """Decompose w = c**k with k maximal; c is then not a proper power.
    |c| is the least i > 0 with w[i:] + w[:i] == w, the first index past 0
    at which w occurs in w + w (a search in C).  A rotation by i that fixes
    w gives w[j] = w[(j + i) mod n], so w is a power of w[:d] for
    d = gcd(i, n), and the rotation by d <= i fixes w too: d = i by
    minimality.  A root shorter than i would give a smaller rotation."""
    n = len(w)
    if n == 0:
        raise PeriodError("empty word has no primitive root")
    i = (w + w).find(w, 1)
    return w[:i], n // i
