"""Distances by a prefix strip of normal forms: the reference that dist on
the free and free product backends is checked against."""

from os.path import commonprefix

from periodlines.freewords import free_reduce
from zmzn_reference import zmzn_normal_form


def free_dist(u, v):
    """Reduced words live in a tree: strip the common prefix."""
    u, v = free_reduce(u), free_reduce(v)
    k = len(commonprefix([u, v]))
    return (len(u) - k) + (len(v) - k)


def zmzn_dist(orders, u, v):
    """Strip the common syllable prefix of the normal forms; at the split
    the two first syllables merge (without cancelling) exactly when they
    lie in the same factor."""
    u, v = zmzn_normal_form(orders, u), zmzn_normal_form(orders, v)
    k = len(commonprefix([u, v]))
    nu, nv = len(u) - k, len(v) - k
    if nu and nv and u[k].lower() == v[k].lower():
        return nu + nv - 1
    return nu + nv
