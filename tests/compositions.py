"""Enumeration oracle for the layer-profile tests: every feasible profile
summing to D, scored one by one."""

from itertools import combinations

from graphpower import layer_entropy


def feasible_compositions(total, r):
    """Yield feasible layer vectors summing to ``total``: k positive parts
    padded with trailing zeros, k = 0..r."""
    if total == 0:
        yield (0,) * r
        return
    for k in range(1, r + 1):
        for cuts in combinations(range(1, total), k - 1):
            parts = tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))
            yield parts + (0,) * (r - k)


def entropy_min_enumerated(big_d, r):
    """(value, argmin) of the layer entropy over every feasible profile:
    the smallest value, and on a tie the lexicographically smallest profile."""
    return min((layer_entropy(ell), ell) for ell in feasible_compositions(big_d, r))
