"""Finite reports under fixed mutants, pinned byte for byte.

Each mutant corrupts one primitive, so several statements fail and their
reports carry witnesses.  The sha256 of ``run_finite(a).to_json()`` is
pinned for every (algebra, mutant) pair, so a change to the statement
bodies that moves an id, a verdict, a witness or the order of witnesses
fails here, even where every unmutated run still passes.

When a change of witnesses is intended, re-pin: run
``PYTHONPATH=src python tests/test_report_digests.py``, which prints the
current table in the form of ``DIGESTS``, and paste it over the old one.
Say in the change's notes which digests moved and why.
"""

import hashlib

import pytest

import mvfilters as mv
from mvfilters import calculus, filters

from conftest import ALL_ALGEBRAS, drop_lowest


def swap_arguments(real):
    """real(a, f, g) with its two mask arguments exchanged."""
    def corrupted(a, f, g):
        return real(a, g, f)

    return corrupted


MUTANTS = {
    f"{name}-drop": (owner, name, drop_lowest)
    for owner, name in [
        (calculus, "sqto"), (calculus, "kernel"), (calculus, "kernel_rel"),
        (calculus, "subordinate"), (calculus, "set_plus"),
        (calculus, "j_up_cosets"), (calculus, "sqto_full_rows"),
        (calculus, "boundary_coset"), (filters, "down_closure_joins"),
    ]
} | {
    f"{name}-swap": (calculus, name, swap_arguments) for name in ("sqto", "phi")
}

ALGEBRAS = ["L5", "L2xL3"]

DIGESTS = {
    ("L5", "boundary_coset-drop"):
        "24feb5467ec206e83ec8baed9d406b1425b19341ae363ff19686e45fe9eb0cc0",
    ("L5", "down_closure_joins-drop"):
        "7d99536f4324b878de60a520f8321cd449143d6c7abad767a4dda14076d46775",
    ("L5", "j_up_cosets-drop"):
        "e54834019ee49af10d8d058d468826796e3cda881c24b9a74371cb82b9fe76d5",
    ("L5", "kernel-drop"):
        "95ee8a1c5357d7dcc4710da3d229272a096de37d9092a4181ba3cba6538f3b58",
    ("L5", "kernel_rel-drop"):
        "aa8ace74506b71a8a69671c297c2a445dc33750c2405fd8032a9bb48e2996262",
    ("L5", "phi-swap"):
        "babff1a20d218d087ff0029da05efdb2cd5c0636da15266a7fcd1512ab226792",
    ("L5", "set_plus-drop"):
        "c93758b5a8e5022c940062baa431ec9d564aa583e88e279c0c84fd66885378af",
    ("L5", "sqto-drop"):
        "83aa3a02e6087d77b42aa6bff2a781bb722aa707d7d88772be502f8889fab88c",
    ("L5", "sqto-swap"):
        "4d8ecc8c14f24e3680b66fcf10dd6db869db7772c7b1e3b524a674c5a72f8f9f",
    ("L5", "sqto_full_rows-drop"):
        "bedccb36138dd89b77a025e3fcc21da6a562206448e42ba6c7347558833fdaef",
    ("L5", "subordinate-drop"):
        "f5911ffe82bc5a5df51aef518d75869768ccd693e836bff3d0f8fa1be5e88f71",
    ("L2xL3", "boundary_coset-drop"):
        "550df12a56512046f335f0b72d37a4a6a3359cf45016bd8c71a7fe1f251ce259",
    ("L2xL3", "down_closure_joins-drop"):
        "e70e1e031a4f03ced70799fe615ddbff04fa830275f4dbbfb927e0154fdcdf3b",
    ("L2xL3", "j_up_cosets-drop"):
        "5699966f2ef9fc788e52a135f24d2f09255a2e2e67c56dba33edcc8106e0ca0d",
    ("L2xL3", "kernel-drop"):
        "4cf9774892d2d7974518f2908b46de4e74fe73ce70a9eb470d3408112fab83bc",
    ("L2xL3", "kernel_rel-drop"):
        "4dffa7085276493afb953259494005fd7fff08bf3febbab7c1b82c6e30e0f255",
    ("L2xL3", "phi-swap"):
        "9753fb33304b9bc5c916e2cdff717834f5c81f81330bbaf26f58effd0764a0ec",
    ("L2xL3", "set_plus-drop"):
        "8b25101cf923db17f7508d4ff9bd25dfeb5a866517d4a064feeec924fb2b590c",
    ("L2xL3", "sqto-drop"):
        "5caa92ebb4dca45d32916d1616f8658c92787c43380a3e9c6d36d414746cff90",
    ("L2xL3", "sqto-swap"):
        "da8446be1648b6503644a1e888afc5f2d5162fdba8cb8869811936c54f2feeeb",
    ("L2xL3", "sqto_full_rows-drop"):
        "46932e1dcfcbadb816d616516e27edc6f72bd42c5aebdf830684fda4ec6007df",
    ("L2xL3", "subordinate-drop"):
        "7884437f35018f67719e8edb970ab4b68e4fbb51461a9f29114917b8bc2653c0",
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


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        print("DIGESTS = {")
        for algebra_id in ALGEBRAS:
            for mutant in sorted(MUTANTS):
                digest = report_digest(mp, algebra_id, mutant)
                print(f'    ("{algebra_id}", "{mutant}"):\n        "{digest}",')
        print("}")
