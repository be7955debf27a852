"""Seeded random generators used by the self-check command and the tests."""

import random

from .fourgon import FourGon
from .geometry import path_from_word


def random_word(backend, rng: random.Random, max_len: int) -> str:
    n = rng.randint(0, max_len)
    return "".join(rng.choice(backend.letters) for _ in range(n))


def random_fourgon(backend, rng: random.Random, top_label: str,
                   max_len: int = 4) -> FourGon:
    """Random 4-gon with the given top label: three random sides, the fourth
    closing the loop with a normal-form word, so closure holds by
    construction.  Sides need not be geodesic, and normal_form answers
    beyond a Dehn backend's budget, where geodesic_word raises."""
    start = backend.normal_form(random_word(backend, rng, max_len))
    p1 = path_from_word(backend, start, random_word(backend, rng, max_len))
    p2 = path_from_word(backend, p1.end, top_label)
    p3 = path_from_word(backend, p2.end, random_word(backend, rng, max_len))
    back = backend.mul(backend.inv(p3.end), start)
    p4 = path_from_word(backend, p3.end, backend.normal_form(back))
    gon = FourGon(p1, p2, p3, p4)
    gon.validate(backend)
    return gon


def random_composable_pair(backend, rng: random.Random, max_len: int = 4):
    top = random_word(backend, rng, max(1, max_len - 1))
    return (random_fourgon(backend, rng, top, max_len),
            random_fourgon(backend, rng, top, max_len))
