"""Finite reports under fixed mutants, pinned byte for byte.

Each mutant corrupts one primitive, so several statements fail and their
reports carry witnesses.  The sha256 of ``run_finite(a).to_json()`` is
pinned for every (algebra, mutant) pair, so a change to the statement
bodies that moves an id, a verdict, a witness or the order of witnesses
fails here, even where every unmutated run still passes.  Two digests equal
the unmutated report's: ``phi-swap``, which swaps the arguments of
``verify.Ctx.phi``, the Φ a run reads (Φ commutes on every pair of lattice
filters of the test algebras, and no statement applies it elsewhere), and
``is_convex-not`` on Ł2×Ł3 (the convex lemmas skip on products).  Under
``kernel-drop`` the "kernel" of a prime filter is no implication filter, so
``fact:d``, ``lem:Jd-lower`` and ``thm:reduction``, which read the quotient
by it, end in ``error``.

The dense reports are pinned the same way in ``DENSE_DIGESTS``: the sha256
of ``run_dense(seed=s).to_json()`` unmutated for three seeds, and at seed 0
under each flip of a ``cut_sqto`` kind branch and under a kind flip of
``cut_plus``.  ``run_dense`` ignores its seed, so the digests are keyed by
mutant alone and the three seeds share one.  A change to the cut
representation or arithmetic that moves a grid cut, a verdict or a printed
cut fails here.

``LARGE_DIGESTS`` pins the unmutated reports of Ł32, Ł64, Ł8×Ł8 and 2⁶,
the sizes at which the reads of table rows and columns into masks carry most
of a run; on Ł64, the largest chain, the →-column tables of ⊸ and K do.

Every mutant names one function.  ⊸, K, K_F(X) and F_x have one body
each, which ``verify.Ctx`` calls on a view of the algebra that reads its
cached →-column tables, and the second sides of ``fact:a``, ``fact:b`` and
``fact:e`` call on the algebra itself, so one mutant reaches both.
``kernel`` and ``sqto`` call ``kernel_rel``, so ``kernel_rel-drop``
corrupts them too.

When a change of witnesses is intended, re-pin: run
``PYTHONPATH=src python tests/test_report_digests.py``, which prints the
current tables in the form of ``DIGESTS``, ``LARGE_DIGESTS`` and
``DENSE_DIGESTS``, and paste them over the old ones.  Say in the change's
notes which digests moved and why.
"""

import hashlib

import pytest

import mvfilters as mv
from mvfilters import calculus, densechain as dc, filters, verify

from conftest import (
    ALL_ALGEBRAS, KIND_BRANCHES, branch_flipped, chain, drop_lowest,
    plus_flipped, product, swap_arguments,
)


def negate(real):
    """The predicate real, negated."""
    def corrupted(*args):
        return not real(*args)

    return corrupted


# mutant name -> (owner, the name it corrupts, the corruption)
MUTANTS = {
    f"{name}-drop": (owner, name, drop_lowest)
    for owner, name in [
        (calculus, "kernel"), (calculus, "kernel_rel"),
        (calculus, "subordinate"), (calculus, "set_plus"),
        (calculus, "j_up"), (calculus, "sqto_full"),
        (calculus, "boundary_coset"), (filters, "down_closure_joins"),
        (calculus, "phi"), (calculus, "tensor_up"),
    ]
} | {
    "sqto-drop": (calculus, "sqto", drop_lowest),
    "sqto-swap": (calculus, "sqto", swap_arguments),
    "phi-swap": (verify.Ctx, "phi", swap_arguments),
    "is_convex-not": (calculus, "is_convex", negate),
}

ALGEBRAS = ["L5", "L2xL3"]

DIGESTS = {
    ("L5", "boundary_coset-drop"):
        "d588451b4276f703207990105085e3be5336377a8d269239bf43ae1f98dc1a72",
    ("L5", "down_closure_joins-drop"):
        "9b43cb53ff02763a3875d1bcaa70bc751247e123ae7f1139ba147584a2f72c0b",
    ("L5", "is_convex-not"):
        "135a56f065e12f97182fc564b342d900c71afd6992102d2492d31926b2f845ae",
    ("L5", "j_up-drop"):
        "0f2c252f5a237b8fd7051898af4ce7a934c0308fa8fc979994d12f7b04769a7c",
    ("L5", "kernel-drop"):
        "8281005e357028cb5c21016b4e838a9e6027b8f715b500ff9ed09e6b6891875f",
    ("L5", "kernel_rel-drop"):
        "ef7148e502dcb4fe3b171e663fc92fa8429ac160b600df9c1c4c73d0b9f28c07",
    ("L5", "phi-drop"):
        "d3a174f2422fc55d864f89a1d73f29fa0ba2a4c07deacbd8508e9a9fa149dc66",
    ("L5", "phi-swap"):
        "fa192375b27526ec26e9bad87fd0e515a3b4bc3a3b2a28f888213be2c52bfbf0",
    ("L5", "set_plus-drop"):
        "4e0dc7bcb690ee47c36e1480c09becacb5452c22cb970449e7cb210d3a0867fb",
    ("L5", "sqto-drop"):
        "5333ba1a4683a7cbe8103a4dd3e78f09cd92b91412db2aec8841f9e18bb06b9f",
    ("L5", "sqto-swap"):
        "a8249f2a23c2b6520eb03f90153b11717e010f43dcb52710d6d5a5117ef30119",
    ("L5", "sqto_full-drop"):
        "7c8fd4ab8d6d623910920e2d3d053a252a33cf293db429a6fac92ae9aa0b9b07",
    ("L5", "subordinate-drop"):
        "84222c5070807756561ac53aa9e4e5513792e9cebb526ef0c86e3031b56916c3",
    ("L5", "tensor_up-drop"):
        "33936da6420de66434bcf4700ba594bb2c18124159d1003907b60ae8501d8a2b",
    ("L2xL3", "boundary_coset-drop"):
        "81e6776b4c043f4e9c68e504d1d9a1bc706b62fa4af329b1561fa92b2b58c46c",
    ("L2xL3", "down_closure_joins-drop"):
        "e7de3bdce7f802e76085ad4d684a692e1544682983e9b58f3afe1b42e90c75f1",
    ("L2xL3", "is_convex-not"):
        "c2230092e4d5474d7c2989baf85af9e608f8735770be626d3a1563ba107c96c3",
    ("L2xL3", "j_up-drop"):
        "adbc573cf22b0b82073c1e9882029740736b5020c4f0f01f014d0079e921d45d",
    ("L2xL3", "kernel-drop"):
        "22274c8de47c19f181c97a36d801994bac5f4eab3be6850d8c4bd478a19b6990",
    ("L2xL3", "kernel_rel-drop"):
        "9459801d7a8a1636ea0e2e2e5fb6fcd436314b30d173c1ba100d3c2886a47112",
    ("L2xL3", "phi-drop"):
        "1c4e7aff4f217a5df1755c2a75f463090bd47469e24215cc42c73d890af1b427",
    ("L2xL3", "phi-swap"):
        "c2230092e4d5474d7c2989baf85af9e608f8735770be626d3a1563ba107c96c3",
    ("L2xL3", "set_plus-drop"):
        "5c0581dfa13b547eea8a327931335df8fa97bc9947c1aa4e4f1ff3d939cd8ecf",
    ("L2xL3", "sqto-drop"):
        "dc5ad7fe86d92b30c74677affa2ca0d12e83ca88226086e96d21872f4aa96f78",
    ("L2xL3", "sqto-swap"):
        "0852585478676a4ff0490fa24520889591ab44755b54f3421390bc5b3e775a93",
    ("L2xL3", "sqto_full-drop"):
        "88c0ac8db884f0a059db052559daf7a850e5c87adfcc1aa14088cd98c1930c40",
    ("L2xL3", "subordinate-drop"):
        "a345a27fd1059d718cd7c9a7dd5e412d7e840e64a56f6a213c310c050827f3f9",
    ("L2xL3", "tensor_up-drop"):
        "dc65db5a9a1863cfaae363207bf65121a4569f56f17d08b35ca153f5f402ccd9",
}


def report_digest(monkeypatch, algebra_id, mutant):
    owner, name, corrupt = MUTANTS[mutant]
    with monkeypatch.context() as m:
        m.setattr(owner, name, corrupt(getattr(owner, name)))
        report = mv.run_finite(ALL_ALGEBRAS[algebra_id]).to_json()
    return hashlib.sha256(report.encode()).hexdigest()


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
@pytest.mark.parametrize("algebra_id", ALGEBRAS)
def test_mutant_report_is_pinned(monkeypatch, algebra_id, mutant):
    assert report_digest(monkeypatch, algebra_id, mutant) == (
        DIGESTS[algebra_id, mutant]
    )


LARGE = {
    "L32": lambda: chain(32),
    "L64": lambda: chain(64),
    "L8xL8": lambda: product(8, 8),
    "2^6": lambda: product(2, 2, 2, 2, 2, 2),
}

LARGE_DIGESTS = {
    "L32": "1b0d6e1a4cf0f3c44a514ef2660006534644cfa0221611add74ceb689580b298",
    "L64": "a34a77358834a677ff91ab00733322fab152496d9b074b94f22525cd504aac1f",
    "L8xL8": "f33a5934835b834bcfc55f2bababf9fab01e3426efd4a8f57cbad893a3fd1b74",
    "2^6": "948b8b785f292a072a6dad8e8e5aaa670372fd001973d434563c7f6628ddf37a",
}


def large_digest(name):
    report = mv.run_finite(LARGE[name]()).to_json()
    return hashlib.sha256(report.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(LARGE))
def test_large_report_is_pinned(name):
    assert large_digest(name) == LARGE_DIGESTS[name]


# mutant name -> (densechain attribute, factory of its corrupted version)
DENSE_MUTANTS = {
    f"cut_sqto-{branch}": ("cut_sqto", lambda branch=branch: branch_flipped(branch))
    for branch in KIND_BRANCHES
} | {
    "cut_plus-flip": ("cut_plus", plus_flipped),
}

DENSE_CASES = [(seed, "none") for seed in (0, 1, 41)] + [
    (0, mutant) for mutant in sorted(DENSE_MUTANTS)
]

DENSE_DIGESTS = {
    "none":
        "c95be1afd9b05cdf19aa37b6be1b8cae0ff4616488de6ded0d92012bf1a20e21",
    "cut_plus-flip":
        "d464ca2fbbbfe74d7511e2a86e920cfefc8e787b56d483f1da0dc7b83f911e1a",
    "cut_sqto-closed-meet":
        "4f2241b3d648168b97c63c61490281dbf3f893566b0e3a9516b2df76fc4e08d2",
    "cut_sqto-closed-target":
        "b438ce4f4170ce52db3a2d2f93215f03c0dce6e3182e66883a38d062a13f11f1",
    "cut_sqto-open-meet":
        "e876319ee3092a022035daa6e72d80ac7eb8bbf32fa099a259013fa1c572c2d0",
}


def dense_digest(monkeypatch, mutant, seed=None):
    with monkeypatch.context() as m:
        if mutant != "none":
            name, corrupt = DENSE_MUTANTS[mutant]
            m.setattr(dc, name, corrupt())
        report = mv.run_dense(seed=seed).to_json()
    return hashlib.sha256(report.encode()).hexdigest()


@pytest.mark.parametrize("seed, mutant", DENSE_CASES)
def test_dense_report_is_pinned(monkeypatch, seed, mutant):
    assert dense_digest(monkeypatch, mutant, seed) == DENSE_DIGESTS[mutant]


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        print("DIGESTS = {")
        for algebra_id in ALGEBRAS:
            for mutant in sorted(MUTANTS):
                digest = report_digest(mp, algebra_id, mutant)
                print(f'    ("{algebra_id}", "{mutant}"):\n        "{digest}",')
        print("}")
        print("LARGE_DIGESTS = {")
        for name in LARGE:
            print(f'    "{name}": "{large_digest(name)}",')
        print("}")
        print("DENSE_DIGESTS = {")
        for mutant in ["none", *sorted(DENSE_MUTANTS)]:
            print(f'    "{mutant}":\n        "{dense_digest(mp, mutant)}",')
        print("}")
