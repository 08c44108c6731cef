"""The weak hypercollecting family by plain Kleene iteration of its set
functional X -> P | {x ; step | x in X} from the empty set: the reference
that `transformers.weak_while_iterates` is held to."""

from hyperlab import rel_domain as rd


def kleene_weak_family(pre_rels, step):
    """(family, stabilization): the least fixpoint, and the number of Kleene
    rounds that grew it less one (0 without antecedents)."""
    pre = frozenset(pre_rels)
    x, grew = frozenset(), 0
    while True:
        y = pre | {rd.compose_rel(r, step) for r in x}
        if y == x:
            return x, max(grew - 1, 0)
        x, grew = y, grew + 1
