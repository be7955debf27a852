"""The loop over all pairs of occurrences that backends.longest_pieces
replaced with one sort: the reference the sorted version is tested against."""

from periodlines.backends import _common_prefix_len


def longest_pieces_reference(p):
    occ = p.symmetrized_occurrences()
    owner = [i for i, rel in enumerate(p.relators) for _ in range(2 * len(rel))]
    longest = [0] * len(p.relators)
    for i in range(len(occ)):
        for j in range(i + 1, len(occ)):
            u, v = occ[i], occ[j]
            piece = len(u) if u == v else _common_prefix_len(u, v)
            for r in (owner[i], owner[j]):
                longest[r] = max(longest[r], piece)
    return longest
