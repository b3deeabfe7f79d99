"""Reference exhaustive search: the relation rows evaluated once per prefix.

The engine's search evaluates all prefixes at once on truth tables; this
is the plain loop it replaced, kept as an oracle.  It takes rows as
(exponents, monomial masks) with plain int masks (bit i for a_(i+1)) and
uses no engine name.
"""

import itertools


def prefix_search(rows, degree):
    """(witness, failures) of the candidates a1 = 1, a_i in {0, 1} against ``rows``.

    A row is 1 at a candidate with bitmask c when an odd number of its
    masks m satisfy m & ~c == 0.  Candidates are taken with the last
    coefficient varying fastest, and a candidate fails at the first row, in
    the given order, that is 1 at it.  The rows read only a1..a_w, w the
    highest bit of any mask, so each prefix a1..a_w is evaluated once and
    its verdict given to every candidate extending it.  The witness is the
    first passing candidate (its prefix followed by zeros) and failures is
    None then; otherwise the witness is None and failures lists every
    candidate with its failing row's exponents.
    """
    width = max([1] + [m.bit_length() for _, masks in rows for m in masks])
    failures = []
    for head in itertools.product((0, 1), repeat=width - 1):
        prefix = (1, *head)
        off = ~sum(bit << i for i, bit in enumerate(prefix))
        first_fail = next(
            (exps for exps, masks in rows if sum(not m & off for m in masks) % 2), None
        )
        if first_fail is None:
            return prefix + (0,) * (degree - width), None
        for tail in itertools.product((0, 1), repeat=degree - width):
            failures.append(((*prefix, *tail), first_fail))
    return None, tuple(failures)
