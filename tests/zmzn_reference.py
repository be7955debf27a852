"""Normal forms in Z/m*Z/n from exponent sums: the reference that the free
product backend and the witnesses it emits are checked against."""


def zmzn_normal_form(orders, w):
    """Consecutive letters of one factor add up modulo its order, an
    uppercase letter counting -1; factor 0 is 'x' and factor 1 is 'y'."""
    syllables = []  # [factor, exponent mod order]
    for c in w:
        f = "xy".index(c.lower())
        e = 1 if c.islower() else -1
        if syllables and syllables[-1][0] == f:
            syllables[-1][1] = (syllables[-1][1] + e) % orders[f]
            if syllables[-1][1] == 0:
                syllables.pop()
        else:
            syllables.append([f, e % orders[f]])
    return "".join("xy"[f] if e == 1 else "xy"[f].upper() for f, e in syllables)
