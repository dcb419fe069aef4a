"""Verdicts must not depend on element names.

A metamorphic oracle (Chen, Cheung and Yiu, 1998): a copy of an algebra with
its elements renamed by a permutation is the same algebra, so every statement
must give it the same status and the same number of witnesses.  Much of the
code reads label order (bit y of every mask, the reversed byte lines, cosets
numbered by smallest member), and the other test algebras are all built in
ascending order by ``make_lukasiewicz_chain`` and ``make_product``.  The
comparison runs unmutated and again with ⊸'s arguments swapped in
``calculus.sqto``: that mutant reads no label, so the failures it causes
must carry over to the copy as well.
"""

import pytest

from mvfilters import run_finite

import mutants
from conftest import ALL_ALGEBRAS, chain, product, shuffled

ALGEBRAS = ALL_ALGEBRAS | {
    "L16": chain(16), "L4xL4": product(4, 4), "2^5": product(2, 2, 2, 2, 2),
}


def verdicts(a):
    return [(r.id, r.status, len(r.witnesses)) for r in run_finite(a).results]


@pytest.mark.parametrize("mutant", ["none", "sqto-swap"])
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_relabelling_changes_no_verdict(name, mutant):
    a = ALGEBRAS[name]
    with mutants.mutated(mutant):
        seen = verdicts(a)
        assert verdicts(shuffled(a, a.size)) == seen
    assert any(status == "fail" for _, status, _ in seen) == (mutant != "none")
