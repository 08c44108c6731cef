"""The weak hypercollecting family by plain Kleene iteration of its set
functional X -> P | {t ; step | t in X} from the empty set: the reference
that `transformers.weak_while_iterates` is held to."""

from hyperlab import interpreter as it
from hyperlab import rel_domain as rd
from hyperlab.lang import BoolTest, If, Not, Skip


def kleene_weak_family(pre, step):
    """(family, stabilization): the least fixpoint, and the number of Kleene
    rounds that grew it less one (0 without antecedents)."""
    pre = frozenset(pre)
    x, grew = frozenset(), 0
    while True:
        y = pre | {rd.compose(t, step) for t in x}
        if y == x:
            return x, max(grew - 1, 0)
        x, grew = y, grew + 1


def weak_step_by_if(cond, body, space):
    """The weak step built without `weak_step`: the conditional
    if (cond) body else skip, whose br holds the body's breaks, with its
    divergence dropped."""
    t = it.sem(If(cond, body, Skip()), space)
    return rd.SemTriple(t.e, 0, t.br)


def exit_image(t, cond, space):
    """The exit image of a weak iterate, by definition: the pairs of t.e
    that leave through !cond, and those that left by a break."""
    not_b = rd.prim(BoolTest(Not(cond)), space).e
    return rd.pure_e(rd.union(rd.compose_rel(t.e, not_b), t.br))


# a loop whose body breaks: over x in [0, 2] from init, 2 exits at once, 1
# breaks in the first round and 0 in the second
BREAK_LOOP = "while (x < 2) { if (x == 1) break; else x = x + 1; }"


def break_loop_images(space):
    """BREAK_LOOP's weak set from init over x in [0, 2], by round: the
    last image is the exact post."""
    return [rd.pure_e(rd.rel((((a,), (b,)) for a, b in pairs), space))
            for pairs in (((2, 2),), ((1, 1), (2, 2)),
                          ((0, 1), (1, 1), (2, 2)))]
