"""Acceptance gate: the pinned desk-scale checks, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines
as they complete.  The exhaustive searches (criteria 7-12) dominate the
runtime; every budget below is asserted, not aspirational.
"""

from __future__ import annotations

import hashlib
import time

import pytest

from srlab import (
    GF2,
    QQ,
    Complex,
    SearchSpace,
    alexander_dual,
    complex_info,
    cone,
    hochster_betti,
    homological_invariants,
    is_buchsbaum,
    is_cycle_graph,
    min_cm_t,
    minimal_nonfaces,
    reduced_homology,
    reisner_cm,
    satisfies_serre,
    skeleton_graph,
    verify_theorem,
)
from srlab import cli
from srlab.fixtures import fixture_complex, fixture_graph

from conftest import all_pure_complexes, gamma_complex


def _report(num: int, elapsed: float, budget: float, detail: str) -> None:
    print(f"ACCEPTANCE {num}: PASS in {elapsed:.2f}s (budget {budget:.0f}s) - {detail}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


#: sha256 of ``verify_theorem(id).to_json()`` on the default spaces; a
#: change to the default spaces or to the JSON updates these on purpose
DEFAULT_RUN_SHA256 = {
    "cor-bk": "a6bc364d33a4a6fde366fc79601ef95a85379fc4d78b3a15daa5723fddb9ebea",
    "cor-linear": "6f38a9c9cc30a8b479f5ff645de62faec248c352ed89a4d520ae240b2a154443",
    "cor-yan": "e823d79cc52013541ef561b39d689c9701c5ad51de880c6ce5b587429f647c41",
    "ext-profile": "7edc462a0f9a93daac3a3417351374ac95e9084da20ad525dada9243f86d584e",
    "froberg": "5b161d4ce46c4675414fba336167c619459730b5a6b83a16a619d496d119d264",
    "prop-chardepth": "16e8705d7e55017711d71df59a73e5684a64e9a9ac5c8dadb803c98429b17f2d",
    "remark-serre": "a8ae8b1a52cb83eef47b3d8986b0a2f9742f9279b645a0cac23e2cb679242a0e",
    "sd-invariance": "76df62ddf6cfe2bad469ddf53cd566ef861381534454f4f792c4b815593e5eec",
    "subadd": "5004d76adaec6630f52bb41e31e02186f22844f60f48547f4fb5a821677027a7",
    "thm-er": "aab000883743befc16b8a684687c6d586cdc4a3a786d73f0aa5fcef9d03af770",
    "thm-main": "4e1d16336b5b27b6afaf8fdf92d7b188c17264370e9df413ad8847893a7ce97a",
    "thm-main2": "4f7c8d65288012df214eddac6601a59537c30e774bdff978411cfed546cd7797",
    "thm-topin": "9124e34fbf1ad3ea3e4a438d9d91e151a027e660e30432209131e14edadb9289",
    "yanagawa-bridge": "c3e82a57133a4c347c8991404082c0f4657e41bb771de5283ab8e09ecc71d61a",
}


def _verify_ok(theorem_id: str, **kw):
    result = verify_theorem(theorem_id, **kw)
    assert result.ok(), (
        f"{theorem_id}: {len(result.counterexamples)} counterexample(s), "
        f"first: {result.counterexamples[:1]}"
    )
    if not kw:
        digest = hashlib.sha256(result.to_json().encode()).hexdigest()
        assert digest == DEFAULT_RUN_SHA256[theorem_id], f"{theorem_id}: output bytes changed"
    return result


def test_criterion_01_murai_terai_fixture():
    t0 = time.perf_counter()
    mt6 = fixture_complex("MT6")
    for field in (GF2, QQ):
        assert satisfies_serre(mt6, 3, field) is True
        assert reisner_cm(mt6, field) is False
        assert is_buchsbaum(mt6, field) is True
    _report(1, time.perf_counter() - t0, 1.0,
            "MT6 satisfies S_3, is Buchsbaum, is not CM over GF(2) and QQ")


def test_criterion_02_coned_murai_terai():
    t0 = time.perf_counter()
    c = cone(fixture_complex("MT6"), 7)
    assert min_cm_t(c) == 2
    assert is_buchsbaum(c) is False
    _report(2, time.perf_counter() - t0, 5.0, "cone(MT6) is CM_2 but not Buchsbaum")


def test_criterion_03_pentagon_dual():
    t0 = time.perf_counter()
    c = fixture_complex("DUALC5")
    inv = homological_invariants(hochster_betti(c, GF2, "ring"))
    assert inv.depth == 2 == inv.dim_ring - 1
    assert inv.cm is False
    assert is_buchsbaum(c) is True
    assert is_cycle_graph(skeleton_graph(alexander_dual(c))) is True
    assert skeleton_graph(alexander_dual(c)) == fixture_graph("C5.graph")
    _report(3, time.perf_counter() - t0, 1.0,
            "DUALC5: depth 2 = d-1, Buchsbaum, not CM, dual skeleton is the 5-cycle")


def test_criterion_04_pendant_cycle_dual():
    t0 = time.perf_counter()
    r6 = fixture_complex("R6")
    d6 = alexander_dual(r6)
    assert d6 == fixture_complex("D6")
    reading_direct = min_cm_t(r6)     # the listed 1-dimensional complex
    reading_dual = min_cm_t(d6)       # its Alexander dual
    assert reading_dual == 2          # the dual realizes "CM_2 but not CM_1"
    assert reading_direct == 0        # the listed complex is already CM
    inv = homological_invariants(hochster_betti(d6, GF2, "ring"))
    assert inv.projdim_ring == 3
    _report(4, time.perf_counter() - t0, 1.0,
            f"D6: min CM_t = 2, projdim K[D6] = 3; ambiguity readings logged "
            f"(direct complex: {reading_direct}, dual: {reading_dual})")


def test_criterion_05_gamma_h_vector():
    t0 = time.perf_counter()
    for r in (4, 5, 6):
        g = gamma_complex(r)
        info = complex_info(g)
        assert info.h_vector[r - 2] == -1
        assert reisner_cm(g) is False
    _report(5, time.perf_counter() - t0, 1.0,
            "cycle-complement complexes for r=4,5,6 have h_(r-2) = -1 and are not CM")


def test_criterion_06_square_betti_oracle():
    t0 = time.perf_counter()
    c4 = fixture_complex("C4")
    t = hochster_betti(c4, GF2, "ideal")
    assert t.entries == {(0, 2): 2, (1, 4): 1}
    inv = homological_invariants(hochster_betti(c4, GF2, "ring"))
    assert inv.depth == 2 == inv.dim_ring
    _report(6, time.perf_counter() - t0, 1.0,
            "C4 ideal table is exactly beta(0,2)=2, beta(1,4)=1; depth = dim = 2")


@pytest.mark.slow
@pytest.mark.parametrize("theorem_id", [
    "thm-er", "thm-main", "cor-yan", "yanagawa-bridge",
    "remark-serre", "subadd", "ext-profile",
])
def test_criterion_07_ring_theorems_exhaustive(theorem_id):
    t0 = time.perf_counter()
    result = _verify_ok(theorem_id)
    elapsed = time.perf_counter() - t0
    _report(7, elapsed, 600.0,
            f"{theorem_id}: {result.instances_checked} pure complexes (n<=5), "
            f"0 counterexamples")


@pytest.mark.slow
def test_criterion_08_codim2_theorems_exhaustive():
    t0 = time.perf_counter()
    r1 = _verify_ok("thm-topin")
    r2 = _verify_ok("prop-chardepth")
    elapsed = time.perf_counter() - t0
    _report(8, elapsed, 1800.0,
            f"thm-topin ({r1.instances_checked}) and prop-chardepth "
            f"({r2.instances_checked}) exhaustive over codim-2, n<=7, 0 counterexamples")


@pytest.mark.slow
def test_criterion_09_graph_theorems():
    t0 = time.perf_counter()
    rs = [_verify_ok(tid) for tid in ("thm-main2", "cor-linear", "froberg")]
    elapsed = time.perf_counter() - t0
    counts = ", ".join(f"{r.theorem_id}={r.instances_checked}" for r in rs)
    _report(9, elapsed, 900.0,
            f"graph equivalences on <=6 vertices exhaustive plus 500 sampled "
            f"7-vertex graphs: {counts}, 0 counterexamples")


@pytest.mark.slow
def test_criterion_10_buchsbaum_homology_bound():
    t0 = time.perf_counter()
    r = _verify_ok("cor-bk")
    mt6 = fixture_complex("MT6")
    hv = reduced_homology(mt6, GF2)
    witnesses = [i for i in hv.nonzero_degrees() if i >= 1]
    assert witnesses and all(6 >= 2 * 4 - i for i in witnesses)
    elapsed = time.perf_counter() - t0
    _report(10, elapsed, 600.0,
            f"cor-bk: {r.instances_checked} instances (n<=6, incl. MT6 with "
            f"H_{witnesses} nonzero), 0 counterexamples")


@pytest.mark.slow
def test_criterion_11_subdivision_invariance():
    t0 = time.perf_counter()
    r = _verify_ok("sd-invariance")
    assert r.instances_checked == 20
    elapsed = time.perf_counter() - t0
    _report(11, elapsed, 600.0,
            "min CM_t / max Serre / singularity bound agree with the barycentric "
            "subdivision on 20 seeded complexes")


@pytest.mark.slow
def test_criterion_12_cross_oracle_suite():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 6):
        for d in range(1, n + 1):
            for c in all_pure_complexes(n, d):
                checked += 1
                dual = alexander_dual(c)
                assert alexander_dual(dual) == c
                nf_counts: dict[int, int] = {}
                for nf in minimal_nonfaces(c):
                    nf_counts[len(nf)] = nf_counts.get(len(nf), 0) + 1
                for field in (GF2, QQ):
                    hv = reduced_homology(c, field)
                    hom_euler = sum((-1) ** i * v for i, v in hv.as_dict().items())
                    face_euler = sum((-1) ** (i - 1) * f
                                     for i, f in enumerate(c.f_vector()))
                    assert hom_euler == face_euler
                    ring = hochster_betti(c, field, "ring")
                    inv = homological_invariants(ring)
                    assert inv.cm == reisner_cm(c, field)
                    gens = {j: v for (i, j), v in ring.entries.items() if i == 1}
                    assert gens == nf_counts
    elapsed = time.perf_counter() - t0
    _report(12, elapsed, 600.0,
            f"CM-vs-depth, generator-vs-nonface, dual involution and Euler "
            f"identities over {checked} complexes, GF(2) and QQ")


@pytest.mark.slow
def test_criterion_13_determinism():
    t0 = time.perf_counter()
    pairs = [
        dict(theorem_id="sd-invariance"),
        dict(theorem_id="thm-er", max_n=4),
        dict(theorem_id="thm-main2", max_n=5, sample=40, seed=77),
    ]
    for kw in pairs:
        a = verify_theorem(**kw)
        b = verify_theorem(**kw)
        assert a.to_json() == b.to_json()
    elapsed = time.perf_counter() - t0
    _report(13, elapsed, 600.0,
            "repeated verify runs serialize to byte-identical JSON")


#: sha256 of the stdout of ``srlab verify ID --json --field K`` on the
#: default spaces for the odd-characteristic and rational fields, which
#: take the generic route on every space
ODD_FIELD_RUN_SHA256 = {
    "3": {
        "cor-bk": "beb2f0911e94650999397a8569f1f821d5fc11c44665c561330165e7fa78bd8e",
        "cor-linear": "02f1b1c5b0530e40960e17367bfa0bdcb7e185a0bab3c45710f6605c71a9cbd8",
        "cor-yan": "c2aaafee28f5a5a7f1d35b7f907a96ccc401c6228e7ffcfa7d5228411036f6bf",
        "ext-profile": "094602de4e3f995f124e2fd8a64d3cb0f006730479392d6d29a46deed6e47bb2",
        "froberg": "842724a600d3b5b9dfd43f3cf6fadae689db639e26ea101a4fbc6c363c76ebf2",
        "prop-chardepth": "2702917ca90377fe30b9226c4f6e70d43cff1c69844b65e07ef6eabdf40c1f6a",
        "remark-serre": "0ed080d2c6ac75853304b508ff9365f2cbcaa9c5ca95a6abbd5a737b24347b71",
        "sd-invariance": "d1e8eed3405acff6b8a8040c5ab149d3c02cbaf81897d0869356c2534e3013a1",
        "subadd": "7423d57e989b4552d476bfddfc84fb68236fe8f0111b3c98e6546fefb2b122f8",
        "thm-er": "740e518e3dd9e9b6af0c6a3302167e1738e2b31e9c302f67393dd2b0eb996ef8",
        "thm-main": "15f31567a90a417c73bf5fbdc8f6de8e574a349f6f7e0ed42f8c1b950e3b4b11",
        "thm-main2": "e597b9623195006ea966f8fe29b2816e90674b386ba5769f469ab808b7715221",
        "thm-topin": "3330f85c652ed4b08dbd0f50983e30bddcce44d1ae0e02e27df8b7b9fc2c7282",
        "yanagawa-bridge": "caa8272782057e814c71d0258ecf816dbec067c1a36b2d45d4051448718a2649",
    },
    "q": {
        "cor-bk": "f53fd798db7f44884d58891deb3077d8043c3e609a79306937125a584ffde15e",
        "cor-linear": "53cfacd1099dbf7d7654b29edbf56bf5cd0086859f3c688f106d84d83c67d8ab",
        "cor-yan": "3e80ed9a72e4d2d8b0258548ffb91987f435d12e97dacfaeace502af3a654669",
        "ext-profile": "45bb322f09119de0c51d0be42eaf4fce4f697d406fcdfb827089ffa990299d1b",
        "froberg": "140b80f78bfd0135f2960e5a4cc0bb72754f5389084260d07ebdc3099560446b",
        "prop-chardepth": "ba68f6698fd66c227179658e67dc365b5663752f84e6041a61e9ed21bd12f2dd",
        "remark-serre": "67ccafadc520839ed81b69a74d1439ed2aefc645aee247fe6a050c7819d98884",
        "sd-invariance": "d5a08bb9a03234eea763e70af3f743aa19b6ea5da5611e0636a7ed4f64f18311",
        "subadd": "0c5728b9df46136cbdd2683eaf4dcd293580c6f8a166e62c66c5d461b90a00d9",
        "thm-er": "e2114330c6073b4258a2b99536c9a80d3baeb4edc7c67968cc7d38bd23b99c6e",
        "thm-main": "1eafca4c5be34d0a38d75e28e386518c40cac0ed9104fa8b29f64265d10ebb8f",
        "thm-main2": "83dd48e01f8432c3281c3c55905f756c920396436d29c6a6f2ab58b285390705",
        "thm-topin": "ab487928a269d5b386d92f12555a57e3a93ed71ff1454e4418adad2b2ad7a1e4",
        "yanagawa-bridge": "92d006062645fb0fa3bd99527d8b5d5f25ce032a7aa4d376b2818750fec76854",
    },
}


@pytest.mark.slow
@pytest.mark.parametrize("field", sorted(ODD_FIELD_RUN_SHA256))
@pytest.mark.parametrize("theorem_id", sorted(DEFAULT_RUN_SHA256))
def test_odd_field_run_bytes(theorem_id, field, capsys):
    assert cli.main(["verify", theorem_id, "--json", "--field", field]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == ODD_FIELD_RUN_SHA256[field][theorem_id], \
        f"{theorem_id} over field {field}: output bytes changed"
