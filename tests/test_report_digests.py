"""Reports under the mutants of ``tests/mutants.py``, pinned byte for byte,
and the kill table.

A mutant corrupts one function or one table entry, so several statements
fail and their reports carry witnesses.  The sha256 of
``run_finite(a).to_json()`` is pinned for Ł5 and Ł2×Ł3 under every finite
mutant, so a change to the statement bodies that moves an id, a verdict, a
witness or the order of witnesses fails here, even where every unmutated
run still passes; so do the per-algebra witness lists, such as
``prop:adjunction``'s 12 on Ł5 and 2 on Ł2×Ł3 under ``sqto-swap``.  Some
digests equal the unmutated report's: ``phi-swap``'s, the equivalent
mutant (``tests/mutants.py``); on Ł5 ``enumerate_implication_filters-minimal``'s,
as a chain's one proper implication filter {1} is minimal and maximal; and
on Ł2×Ł3 those of the mutants that only chain statements read
(``is_convex-not``, ``successor_structure-*``, ``principal_generator-no-top``),
which skip on products.  Under ``kernel-drop`` the "kernel" of a prime filter
is no implication filter, so ``fact:d``, ``lem:Jd-lower`` and
``thm:reduction``, which read the quotient by it, end in ``error``.

The dense reports are pinned the same way in ``DENSE_DIGESTS``: the sha256
of ``run_dense(seed=s).to_json()`` unmutated for three seeds, and at seed 0
under each dense mutant.  ``run_dense`` ignores its seed, so the digests
are keyed by mutant alone and the three seeds share one.  A change to the
cut representation or arithmetic that moves a grid cut, a verdict or a
printed cut fails here.

``LARGE_DIGESTS`` pins the unmutated reports of Ł32, Ł64, Ł8×Ł8 and 2⁶,
the sizes at which the reads of table rows and columns into masks carry most
of a run; on Ł64, the largest chain, the →-column tables of ⊸ and K do.

⊸, K, K_F(X) and F_x have one body each, which ``verify.Ctx`` calls on a
view of the algebra that reads its cached →-column tables, and the second
side of ``fact:b`` calls on the algebra itself, so one mutant reaches both.
``fact:a`` and ``fact:e`` read their second side off ⊗-rows, through
``sqto_full``.  ``kernel`` and ``sqto`` call ``kernel_rel``, so
``kernel_rel-drop`` corrupts them too.

``test_kill_table`` checks ``mutants.KILLS``, which reads the same finite
runs over every test algebra.

When a change of witnesses is intended, re-pin: run
``PYTHONPATH=src python tests/test_report_digests.py``, which prints the
current tables in the form of ``DIGESTS``, ``LARGE_DIGESTS`` and
``DENSE_DIGESTS``, and paste them over the old ones.  Say in the change's
notes which digests moved and why.
"""

import hashlib

import pytest

import mvfilters as mv

import mutants
from conftest import chain, product

ALGEBRAS = ["L5", "L2xL3"]

DIGESTS = {
    ("L5", "boundary_coset-drop"):
        "d588451b4276f703207990105085e3be5336377a8d269239bf43ae1f98dc1a72",
    ("L5", "down_closure_joins-add-top"):
        "4f9e345f25b0b11caf0e001e0016f3b2c10668808200cc9f649543b49b4e7daf",
    ("L5", "down_closure_joins-drop"):
        "c0d5cfa2bfbe29bec309baafd68a87c424394095ae13fc545b351f79e46f541e",
    ("L5", "enumerate_implication_filters-minimal"):
        "fa192375b27526ec26e9bad87fd0e515a3b4bc3a3b2a28f888213be2c52bfbf0",
    ("L5", "enumerate_lattice_filters-first-prime-lost"):
        "a1e462344cff1ac9d7804aac5ed793ef5d095ee265d5b5b0ea43905922271fd6",
    ("L5", "hat_eta-shift"):
        "b0174a2bfd630342b59d8f96923ab35d98a10f93ec2c9b4dd2fce2bbc636c3af",
    ("L5", "hat_otimes-next-class"):
        "494f84c2bb5e9885905cb44e4f26c3b054325a2d90debeb2874aed28607b428b",
    ("L5", "iota-constant"):
        "cf80959b895a5a207b6093b1f1358bf3ae7a13a83831cf6093c5bf1e69f26d57",
    ("L5", "is_convex-not"):
        "135a56f065e12f97182fc564b342d900c71afd6992102d2492d31926b2f845ae",
    ("L5", "j_down-drop"):
        "4fc06387d1c42bbaf264f625c8075ad0add3ecd097e5b41df4b5a53d8edeaba5",
    ("L5", "j_up-drop"):
        "0f2c252f5a237b8fd7051898af4ce7a934c0308fa8fc979994d12f7b04769a7c",
    ("L5", "j_up-full"):
        "bd62faca67ec75350005f0d2c6097f3692c879e2355e59e0e4a2024a397201ff",
    ("L5", "kernel-drop"):
        "8281005e357028cb5c21016b4e838a9e6027b8f715b500ff9ed09e6b6891875f",
    ("L5", "kernel_rel-drop"):
        "56d0e29c9b81ca76c5c5f77db0a923892972238f474ae9428af10aae695b6f33",
    ("L5", "meet-one-one"):
        "9bfb122e8d6c4a257ca84d9023960c8d43b0926f8e67135125a17fa1a0c79abc",
    ("L5", "neg-entry"):
        "8c4a013815a1ecf7473789526b7a54e65a29a4daae805ea27a8f01e832626252",
    ("L5", "order-dual"):
        "1f53018747b2d1381f656ed2e039c7c969911b067cd09c20a58222225df2d781",
    ("L5", "otimes-entry"):
        "66f126bd5043f04fca676b8dc9bcc537888247b6cec0bcb6477d6a21cf0f42d0",
    ("L5", "phi-drop"):
        "d3a174f2422fc55d864f89a1d73f29fa0ba2a4c07deacbd8508e9a9fa149dc66",
    ("L5", "phi-swap"):
        "fa192375b27526ec26e9bad87fd0e515a3b4bc3a3b2a28f888213be2c52bfbf0",
    ("L5", "preimage_mask-drop"):
        "3b4784d96824eb20cf8e4173ca29b116ff67e0a7dd24a379eb2b20a90aef35d0",
    ("L5", "principal_generator-no-top"):
        "c29719eb976f7fe89f2539ac14dd9f52e754bf290e146ef5d6293da3d2b5922e",
    ("L5", "quotient_sqto-drop-at-one"):
        "d9c82529dafe40cc77f5219f101f6ca9fbbb4253d771b8d6cdacafe9ff32590a",
    ("L5", "set_plus-drop"):
        "4e0dc7bcb690ee47c36e1480c09becacb5452c22cb970449e7cb210d3a0867fb",
    ("L5", "sqto-drop"):
        "5333ba1a4683a7cbe8103a4dd3e78f09cd92b91412db2aec8841f9e18bb06b9f",
    ("L5", "sqto-plus-after"):
        "e23337599d11cd53fd21ae8c245826267abdc7cf2234aa0ec06b55f79d6ca0f8",
    ("L5", "sqto-swap"):
        "a8249f2a23c2b6520eb03f90153b11717e010f43dcb52710d6d5a5117ef30119",
    ("L5", "sqto-swap-drop"):
        "0a954112ff26daccd5dbe5a42bb15f59b43b01ef19e4c39bfa393256330cb0c3",
    ("L5", "sqto_full-drop"):
        "e63840254723233d5bc715ff36725bf2ca98b9ec101be9a561a389caf7cf6d36",
    ("L5", "subordinate-drop"):
        "84222c5070807756561ac53aa9e4e5513792e9cebb526ef0c86e3031b56916c3",
    ("L5", "subordinate-own-element"):
        "cbb630b7f02b9fb3b5631da67ddd61a5764e0ce5620c94ef06ab1b4972f40fb2",
    ("L5", "successor_structure-absent"):
        "a5ca71612eb75bb5808890b84bdf4f726974f01426ad21c7d419775bddc3f2bc",
    ("L5", "successor_structure-pred-fixed"):
        "06d82ef208d98abfde0d1417bcddb8cd1b767458897186bb16aa0e48a79be2f6",
    ("L5", "tensor_up-drop"):
        "33936da6420de66434bcf4700ba594bb2c18124159d1003907b60ae8501d8a2b",
    ("L2xL3", "boundary_coset-drop"):
        "81e6776b4c043f4e9c68e504d1d9a1bc706b62fa4af329b1561fa92b2b58c46c",
    ("L2xL3", "down_closure_joins-add-top"):
        "695952b7bc964d4d20936a2a46cb1c95af69c3bb3ae674bb069a428fb83dc1f2",
    ("L2xL3", "down_closure_joins-drop"):
        "76c6cb03052506621871f2dd19635ea748e3a9914d357d0015fac6d3ce674f20",
    ("L2xL3", "enumerate_implication_filters-minimal"):
        "e6c8142d578bba341a92645045d28d2af5c340a0a4aee61a1ba068032855023f",
    ("L2xL3", "enumerate_lattice_filters-first-prime-lost"):
        "3a0cd89e4e82454ff4c0130d87d7504bd657d8e1601719356b47b600b6e0296e",
    ("L2xL3", "hat_eta-shift"):
        "e917ec1d2b4f7901108826559752b11106869a168dd0d7303d3a5aed48ff6e67",
    ("L2xL3", "hat_otimes-next-class"):
        "a6b26a96e1ce1ab5fdb5ef3eac450bf78a52babbc771a333e9e7a9b8e0b0eaa9",
    ("L2xL3", "iota-constant"):
        "3c290d192e8865e24c9aea23df35fa9d26a433d16aa680019ad3555d5fe5a5df",
    ("L2xL3", "is_convex-not"):
        "c2230092e4d5474d7c2989baf85af9e608f8735770be626d3a1563ba107c96c3",
    ("L2xL3", "j_down-drop"):
        "06f0ee55a6088f28ebfe5ae442d4819d6da0b4570781cb2fb2d1ce9d26cba237",
    ("L2xL3", "j_up-drop"):
        "adbc573cf22b0b82073c1e9882029740736b5020c4f0f01f014d0079e921d45d",
    ("L2xL3", "j_up-full"):
        "34c1c1c6927b4e4132dcdb3f36eea73a4784290fb598f537663adf187aa0b328",
    ("L2xL3", "kernel-drop"):
        "22274c8de47c19f181c97a36d801994bac5f4eab3be6850d8c4bd478a19b6990",
    ("L2xL3", "kernel_rel-drop"):
        "2be352af16cd296393337b69082d59a38359447a9d0576063b959cf710031204",
    ("L2xL3", "meet-one-one"):
        "b2c3978bacd41fc801b84a3e6e7b760a32cd7611bf9f0aacb4c2f2d358a75a89",
    ("L2xL3", "neg-entry"):
        "0ad7c91b5598ce374fc2bc93e51046dbfbaa9bd96e672911a119e5804f73dc66",
    ("L2xL3", "order-dual"):
        "2d9803e2f324701a45c1abb89823e82110de11bb7992193130dcc1ace0556ea1",
    ("L2xL3", "otimes-entry"):
        "41eea2ef2e37a51e148aa971a24a9d6ef4ebe62fd9cad85c0a3289b6ae7649a0",
    ("L2xL3", "phi-drop"):
        "1c4e7aff4f217a5df1755c2a75f463090bd47469e24215cc42c73d890af1b427",
    ("L2xL3", "phi-swap"):
        "c2230092e4d5474d7c2989baf85af9e608f8735770be626d3a1563ba107c96c3",
    ("L2xL3", "preimage_mask-drop"):
        "d0586afaadfb3814c71e9508fed4fc52f4640d1e42a34217e32803cf1ade17f9",
    ("L2xL3", "principal_generator-no-top"):
        "c2230092e4d5474d7c2989baf85af9e608f8735770be626d3a1563ba107c96c3",
    ("L2xL3", "quotient_sqto-drop-at-one"):
        "9a2935cbf07322e518d5194c0151c2e90e856c58d7e8565de77a594cd39ba8e9",
    ("L2xL3", "set_plus-drop"):
        "5c0581dfa13b547eea8a327931335df8fa97bc9947c1aa4e4f1ff3d939cd8ecf",
    ("L2xL3", "sqto-drop"):
        "dc5ad7fe86d92b30c74677affa2ca0d12e83ca88226086e96d21872f4aa96f78",
    ("L2xL3", "sqto-plus-after"):
        "832f198e5d9fef82cb2e7679b1296fd05273ca46017bc09f1a32352e150c720b",
    ("L2xL3", "sqto-swap"):
        "0852585478676a4ff0490fa24520889591ab44755b54f3421390bc5b3e775a93",
    ("L2xL3", "sqto-swap-drop"):
        "d46859219426ed17d5fb079cfab4eaec92ba79ebf52ef5b9cc9b19639f230a3a",
    ("L2xL3", "sqto_full-drop"):
        "f48314d695aaf17c9e218f862b68ee7a9907ea1511de8603525d2fa7f393bfdd",
    ("L2xL3", "subordinate-drop"):
        "929ea9ded8299c96ee5ace8f3650fba3c264205a54f3ed6c66f30c0ffc34d4db",
    ("L2xL3", "subordinate-own-element"):
        "992f48ccae9d1134bf20c86520e328c1d199584869426c46d073254b1020bd2b",
    ("L2xL3", "successor_structure-absent"):
        "c2230092e4d5474d7c2989baf85af9e608f8735770be626d3a1563ba107c96c3",
    ("L2xL3", "successor_structure-pred-fixed"):
        "c2230092e4d5474d7c2989baf85af9e608f8735770be626d3a1563ba107c96c3",
    ("L2xL3", "tensor_up-drop"):
        "dc65db5a9a1863cfaae363207bf65121a4569f56f17d08b35ca153f5f402ccd9",
}


def report_digest(algebra_id, mutant):
    report = mutants.report(mutant, algebra_id).to_json()
    return hashlib.sha256(report.encode()).hexdigest()


@pytest.mark.parametrize("mutant", mutants.FINITE)
@pytest.mark.parametrize("algebra_id", ALGEBRAS)
def test_mutant_report_is_pinned(algebra_id, mutant):
    assert report_digest(algebra_id, mutant) == DIGESTS[algebra_id, mutant]


def test_kill_table():
    computed = mutants.kill_table()
    moved = {
        pair: (mutants.KILLS.get(pair), computed.get(pair))
        for pair in sorted(computed.keys() | mutants.KILLS.keys())
        if computed.get(pair) != mutants.KILLS.get(pair)
    }
    # None where the pair passes
    assert not moved, f"(statement, mutant): (recorded, computed) {moved}"


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


DENSE_CASES = [(seed, "none") for seed in (0, 1, 41)] + [
    (0, mutant) for mutant in mutants.DENSE
]

DENSE_DIGESTS = {
    "none":
        "c95be1afd9b05cdf19aa37b6be1b8cae0ff4616488de6ded0d92012bf1a20e21",
    "closed-meet":
        "4f2241b3d648168b97c63c61490281dbf3f893566b0e3a9516b2df76fc4e08d2",
    "closed-target":
        "b438ce4f4170ce52db3a2d2f93215f03c0dce6e3182e66883a38d062a13f11f1",
    "collapse-closed-pairs":
        "8cb2eb44c1e9f6fdf1c41c1dc98b6ca0bec0b69024b45ab0452ce84645b937ee",
    "open-meet":
        "e876319ee3092a022035daa6e72d80ac7eb8bbf32fa099a259013fa1c572c2d0",
    "plus-flipped":
        "d464ca2fbbbfe74d7511e2a86e920cfefc8e787b56d483f1da0dc7b83f911e1a",
    "plus-off-grid":
        "4e6c471217b33778e6b371bf9342fc99e35d5d0ba399d3480072db0b4fb1f110",
    "plus-one-step":
        "a0aad080d18256c19c3c19ebe863e730f7d77a9b03de3c620956c6aeaecf598f",
    "sqto-off-grid":
        "843738a23a597195bef590a37570371dc68b64f4108d48429ef13322266900d3",
    "sqto-one-step":
        "08180cfab75a36f60e5507186b66e0f4e53b04832faeb6aa44dc90d2c265274f",
    "sqto-swapped":
        "30c1b1f991563e0672eb718c5d717136d62d2aa05f78ed668e263a80286fd082",
}


def dense_digest(mutant, seed=None):
    with mutants.mutated(mutant):
        report = mv.run_dense(seed=seed).to_json()
    return hashlib.sha256(report.encode()).hexdigest()


@pytest.mark.parametrize("seed, mutant", DENSE_CASES)
def test_dense_report_is_pinned(seed, mutant):
    assert dense_digest(mutant, seed) == DENSE_DIGESTS[mutant]


if __name__ == "__main__":
    print("DIGESTS = {")
    for algebra_id in ALGEBRAS:
        for mutant in mutants.FINITE:
            digest = report_digest(algebra_id, mutant)
            print(f'    ("{algebra_id}", "{mutant}"):\n        "{digest}",')
    print("}")
    print("LARGE_DIGESTS = {")
    for name in LARGE:
        print(f'    "{name}": "{large_digest(name)}",')
    print("}")
    print("DENSE_DIGESTS = {")
    for mutant in ["none", *mutants.DENSE]:
        print(f'    "{mutant}":\n        "{dense_digest(mutant)}",')
    print("}")
