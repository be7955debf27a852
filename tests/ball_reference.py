"""Balls by a breadth-first search that multiplies every element of the
last layer by every letter and keeps the products not met before: the
ball builder that the free and free product backends used before all
backends grew one layered ball, kept as the reference ball is checked
against."""

from periodlines.backends import letter_rank


def ball_reference(letters, normal_form, radius):
    """{word: distance} for every element at distance <= radius, in
    ShortLex BFS order, with products w c read off normal_form(w + c)."""
    out = {"": 0}
    frontier = [""]
    letters = sorted(letters, key=letter_rank)
    for d in range(1, radius + 1):
        nxt = []
        for w in frontier:
            for c in letters:
                v = normal_form(w + c)
                if v not in out:
                    out[v] = d
                    nxt.append(v)
        frontier = nxt
    return out
