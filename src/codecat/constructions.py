"""Products, coproducts, and intersection completeness.

The product of codes on n and m neurons lives on n+m neurons and takes all
unions c | shift(d); the coproduct tags the two sides with two fresh neurons
so the images stay disjoint, with an option to adjoin the empty word.
"""

from __future__ import annotations

from .codes import Code
from .trunks import _trunk_family_masksets


def _shift(mask: int, by: int) -> int:
    return mask << by


def product(a: Code, b: Code) -> Code:
    """{c union shift(d)} on n+m neurons.  Both codes must have words."""
    if not a.masks or not b.masks:
        raise ValueError("product requires both codes to be nonempty")
    words = {ca | _shift(cb, a.n) for ca in a.mask_set for cb in b.mask_set}
    return Code(a.n + b.n, words)


def coproduct(a: Code, b: Code, with_empty: bool = False) -> Code:
    """Tagged disjoint union on n+m+2 neurons; words of a pick up neuron
    n+m+1, words of b shift by n and pick up neuron n+m+2.  with_empty also
    adjoins the empty word."""
    if not a.masks or not b.masks:
        raise ValueError("coproduct requires both codes to be nonempty")
    n, m = a.n, b.n
    tag_a = 1 << (n + m)
    tag_b = 1 << (n + m + 1)
    words = {ca | tag_a for ca in a.mask_set}
    words |= {_shift(cb, n) | tag_b for cb in b.mask_set}
    if with_empty:
        words.add(0)
    return Code(n + m + 2, words)


def is_intersection_complete(code: Code) -> bool:
    """Closed under pairwise intersections of codewords."""
    masks = code.masks
    for i, x in enumerate(masks):
        for y in masks[i + 1:]:
            if x & y not in code.mask_set:
                return False
    return True


def all_trunks_have_unique_minimum(code: Code) -> bool:
    """Trunk-side formulation of intersection completeness: every nonempty
    trunk has a unique minimal member.  The generator of a trunk lies inside
    every member, so that member exists iff the generator is a codeword."""
    return _trunk_family_masksets(code).keys() <= code.mask_set


def is_max_intersection_complete(code: Code) -> bool:
    """Contains every intersection of a nonempty set of maximal codewords.

    The maximal words are closed in one at a time, and the first
    intersection that is not a codeword answers no, so the closure never
    holds more than the code's words."""
    masks = code.mask_set
    maximal = [m for m in masks if not any(o != m and o & m == m for o in masks)]
    closed: set[int] = set()
    for w in maximal:
        met = {g & w for g in closed}
        if not met <= masks:
            return False
        closed |= met
        closed.add(w)
    return True
