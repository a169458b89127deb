"""Products, coproducts, and intersection completeness.

The product of codes on n and m neurons lives on n+m neurons and takes all
unions of c and d shifted by n; the coproduct tags the two sides with two
fresh neurons so the images stay disjoint, with an option to adjoin the
empty word.
"""

from __future__ import annotations

from .codes import Code, _maximal
from .exceptions import ResourceCapError
# _trunk_family_masksets is not called here; perfbench/spans.py wraps it here.
from .trunks import _intersection_closure, _trunk_family_masksets  # noqa: F401


def product(a: Code, b: Code) -> Code:
    """{c union (d shifted by n)} on n+m neurons.  Both codes must have words."""
    if not a.masks or not b.masks:
        raise ValueError("product requires both codes to be nonempty")
    words = {ca | cb << a.n for ca in a.mask_set for cb in b.mask_set}
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
    words |= {cb << n | tag_b for cb in b.mask_set}
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
    every member, so that member exists iff the generator is a codeword.
    The generators are exactly the intersections of nonempty sets of
    codewords, and a code closed under pairwise intersections is closed
    under all of them, so no trunk needs to be built."""
    return is_intersection_complete(code)


def is_max_intersection_complete(code: Code) -> bool:
    """Contains every intersection of a nonempty set of maximal codewords.

    The maximal words' intersection closure is capped at |C| + 1 members,
    the empty set counted, which a closure inside the code never exceeds:
    one that does answers no before it grows any further."""
    try:
        return _intersection_closure(_maximal(code.mask_set), len(code) + 1) <= code.mask_set
    except ResourceCapError:
        return False
