"""Finite reports under fixed mutants, pinned byte for byte.

Each mutant corrupts one primitive, so several statements fail and their
reports carry witnesses.  The sha256 of ``run_finite(a).to_json()`` is
pinned for every (algebra, mutant) pair, so a change to the statement
bodies that moves an id, a verdict, a witness or the order of witnesses
fails here, even where every unmutated run still passes.  Two digests equal
the unmutated report's: ``phi-swap`` (no statement applies Φ to a pair on
which it does not commute) and ``is_convex-not`` on Ł2×Ł3 (the convex
lemmas skip on products).  Under ``kernel-drop`` the "kernel" of a prime
filter is no implication filter, so ``fact:d``, ``lem:Jd-lower`` and
``thm:reduction``, which read the quotient by it, end in ``error``.

The dense reports are pinned the same way in ``DENSE_DIGESTS``: the sha256
of ``run_dense(seed=s).to_json()`` for three seeds, and at seed 0 under each
flip of a ``cut_sqto`` kind branch and under a kind flip of ``cut_plus``.
No dense statement samples, so the three seeds differ only in the report's
seed field.  A change to the cut representation or arithmetic that moves a
grid cut, a verdict or a printed cut fails here.

``LARGE_DIGESTS`` pins the unmutated reports of Ł32, Ł8×Ł8 and 2⁶, the
sizes at which the reads of table rows and columns into masks carry most of
a run.

When a change of witnesses is intended, re-pin: run
``PYTHONPATH=src python tests/test_report_digests.py``, which prints the
current tables in the form of ``DIGESTS``, ``LARGE_DIGESTS`` and
``DENSE_DIGESTS``, and paste them over the old ones.  Say in the change's
notes which digests moved and why.
"""

import hashlib

import pytest

import mvfilters as mv
from mvfilters import calculus, densechain as dc, filters

from conftest import (
    ALL_ALGEBRAS, KIND_BRANCHES, branch_flipped, chain, drop_lowest,
    plus_flipped, product, swap_arguments,
)


def negate(real):
    """The predicate real, negated."""
    def corrupted(*args):
        return not real(*args)

    return corrupted


# The sqto mutants corrupt ``calculus.sqto``, which ``verify.Ctx.sqto``
# memoises, so cold and memoised ⊸ carry the same corruption.
MUTANTS = {
    f"{name}-drop": (owner, name, drop_lowest)
    for owner, name in [
        (calculus, "kernel"), (calculus, "kernel_rel"),
        (calculus, "subordinate"), (calculus, "set_plus"),
        (calculus, "j_up_cosets"), (calculus, "sqto_full_rows"),
        (calculus, "boundary_coset"), (filters, "down_closure_joins"),
        (calculus, "phi_rows"), (calculus, "tensor_up"),
    ]
} | {
    "sqto-drop": (calculus, "sqto", drop_lowest),
    "sqto-swap": (calculus, "sqto", swap_arguments),
    "phi-swap": (calculus, "phi", swap_arguments),
    "is_convex-not": (calculus, "is_convex", negate),
}

ALGEBRAS = ["L5", "L2xL3"]

DIGESTS = {
    ("L5", "boundary_coset-drop"):
        "24feb5467ec206e83ec8baed9d406b1425b19341ae363ff19686e45fe9eb0cc0",
    ("L5", "down_closure_joins-drop"):
        "7d99536f4324b878de60a520f8321cd449143d6c7abad767a4dda14076d46775",
    ("L5", "is_convex-not"):
        "f3e7c5a4946f8cfb8580009ed81ca99cc6e45d9d6f49814d7e56ab7b44bbea83",
    ("L5", "j_up_cosets-drop"):
        "e54834019ee49af10d8d058d468826796e3cda881c24b9a74371cb82b9fe76d5",
    ("L5", "kernel-drop"):
        "20abe134dd5a1fd067b2cdde43481cc6a1aaa0dc55b67b9360a98f1ef3171605",
    ("L5", "kernel_rel-drop"):
        "819c9ad03c4929fda3173949f28ac0f920741166206bd4e82d3cae1bf1a82b86",
    ("L5", "phi-swap"):
        "babff1a20d218d087ff0029da05efdb2cd5c0636da15266a7fcd1512ab226792",
    ("L5", "phi_rows-drop"):
        "e34b70a1ad7b31f94615f44a5bee5b830f509676b5bc3b1afd24c345efd4e09e",
    ("L5", "set_plus-drop"):
        "c93758b5a8e5022c940062baa431ec9d564aa583e88e279c0c84fd66885378af",
    ("L5", "sqto-drop"):
        "83aa3a02e6087d77b42aa6bff2a781bb722aa707d7d88772be502f8889fab88c",
    ("L5", "sqto-swap"):
        "4d8ecc8c14f24e3680b66fcf10dd6db869db7772c7b1e3b524a674c5a72f8f9f",
    ("L5", "sqto_full_rows-drop"):
        "f97d43bc1d39c166599d2918e4ee8fb449d971bb83bc3967297611bc14b10c2d",
    ("L5", "subordinate-drop"):
        "047fb32f5eefc3f05758478008479e0a480102b2b9f2bae93979639c1bccc6c0",
    ("L5", "tensor_up-drop"):
        "6e860fd8dc6b8518aab4d794a2a489406382ce26c9058ef4960cabd6c7348f68",
    ("L2xL3", "boundary_coset-drop"):
        "550df12a56512046f335f0b72d37a4a6a3359cf45016bd8c71a7fe1f251ce259",
    ("L2xL3", "down_closure_joins-drop"):
        "e70e1e031a4f03ced70799fe615ddbff04fa830275f4dbbfb927e0154fdcdf3b",
    ("L2xL3", "is_convex-not"):
        "9753fb33304b9bc5c916e2cdff717834f5c81f81330bbaf26f58effd0764a0ec",
    ("L2xL3", "j_up_cosets-drop"):
        "5699966f2ef9fc788e52a135f24d2f09255a2e2e67c56dba33edcc8106e0ca0d",
    ("L2xL3", "kernel-drop"):
        "a3a0715d86e37cd1dda6b725717bda32d7c37e30c780ee5d0d609aec0bdc6b02",
    ("L2xL3", "kernel_rel-drop"):
        "e5d9210d34feef9d760ffa3bbce99f529c6bd15bb509470cf64ded67b1e304be",
    ("L2xL3", "phi-swap"):
        "9753fb33304b9bc5c916e2cdff717834f5c81f81330bbaf26f58effd0764a0ec",
    ("L2xL3", "phi_rows-drop"):
        "1f2b225c9d36afc36e77b04a9779477f3fc02b09aa25f32d35b4933db5a9a986",
    ("L2xL3", "set_plus-drop"):
        "8b25101cf923db17f7508d4ff9bd25dfeb5a866517d4a064feeec924fb2b590c",
    ("L2xL3", "sqto-drop"):
        "5caa92ebb4dca45d32916d1616f8658c92787c43380a3e9c6d36d414746cff90",
    ("L2xL3", "sqto-swap"):
        "da8446be1648b6503644a1e888afc5f2d5162fdba8cb8869811936c54f2feeeb",
    ("L2xL3", "sqto_full_rows-drop"):
        "a402326648ff87daf8ae29eb47504b7463e1708ddfd8c44ac8fa7b58c7b7a4d7",
    ("L2xL3", "subordinate-drop"):
        "057155c5dbf6f66b3a133ed341cd763b062b5cdf1d72d849d36ef72492aef2bf",
    ("L2xL3", "tensor_up-drop"):
        "3f0bc81677fdbe4adb952657097a37fa90312d8ed8e96d8514a05040ac84d75e",
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
    "L8xL8": lambda: product(8, 8),
    "2^6": lambda: product(2, 2, 2, 2, 2, 2),
}

LARGE_DIGESTS = {
    "L32": "10ae2a74c29b381dbe96efc0132c4d47e9ec0bf3efe9dbb6ce4584a657914704",
    "L8xL8": "0208673a983050df6012cbbcbe99579bcb58cbd8fd168420ecd24f37a91df7a1",
    "2^6": "2c121b70ce47e75644162db7f8c5e0598e69219143a245c0c7eabfe220fb2d8d",
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
    (0, "none"):
        "880a642d54aaf8172781b4ffe5a793f92ac4ad37983be0160af8ad8ef35fc64e",
    (1, "none"):
        "30ae5a42f9f060d08c928a116bf05960389eb62f21164b41420b3903a333d4c4",
    (41, "none"):
        "af6690ec1f58adc71421346a6b3a4841e3083114d73d42d3499cdd5a23b2117b",
    (0, "cut_plus-flip"):
        "d3afc352522cb7d14d035d4518f37cbafa133eea0720f00b1230863037a40404",
    (0, "cut_sqto-closed-meet"):
        "8fb02163edd61b4c79322c98d6237022a04e2c242ae879a00c9d888c3e535939",
    (0, "cut_sqto-closed-target"):
        "d0aff7fb109c97e616347bd434818895ac9c57846c39388685c2fa366bdc6c2f",
    (0, "cut_sqto-open-meet"):
        "e8cf70d827247cf2563f5b37cda287f732d02a79803c2bb1ba7b8bc0b2de0b9f",
}


def dense_digest(monkeypatch, seed, mutant):
    with monkeypatch.context() as m:
        if mutant != "none":
            name, corrupt = DENSE_MUTANTS[mutant]
            m.setattr(dc, name, corrupt())
        report = mv.run_dense(seed=seed).to_json()
    return hashlib.sha256(report.encode()).hexdigest()


@pytest.mark.parametrize("seed, mutant", DENSE_CASES)
def test_dense_report_is_pinned(monkeypatch, seed, mutant):
    assert dense_digest(monkeypatch, seed, mutant) == DENSE_DIGESTS[seed, mutant]


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
        for seed, mutant in DENSE_CASES:
            digest = dense_digest(mp, seed, mutant)
            print(f'    ({seed}, "{mutant}"):\n        "{digest}",')
        print("}")
