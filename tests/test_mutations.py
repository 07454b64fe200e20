"""Mutation smoke: each listed source mutation must make a quick test fail.

A case copies ``src/srlab`` to a temporary directory, replaces one
snippet of one file there (the snippet must occur exactly once, so a
case that no longer matches the source fails instead of passing
vacuously), and runs the named quick test against the copy in a fresh
interpreter.  That run must end with failing tests (pytest exit code
1); a copy that does not import, or a test id that does not resolve,
ends otherwise and fails the case.  Slow: each case is a pytest run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
KERNELS = "tests/test_engine_kernels.py"
HARNESS = "tests/test_harness.py"

# (case id, file under srlab/, old snippet, its replacement, the quick test that must fail)
MUTATIONS = [
    ("flag-table-card-term-dropped", "_engine.py",
     "lambda e: min(cards(e), _own_step(flag_dims(e, w), w))",
     "lambda e: _own_step(flag_dims(e, w), w)",
     f"{KERNELS}::test_flag_tables_match_clique_homology[5]"),
    ("flag-table-own-term-dropped", "_engine.py",
     "lambda e: min(cards(e), _own_step(flag_dims(e, w), w))",
     "lambda e: cards(e)",
     f"{KERNELS}::test_flag_tables_match_clique_homology[5]"),
    ("ndp-own-term-dropped", "_engine.py",
     "istar = min(self.card_step(gmask), _own_step(dims_dual, self.n))",
     "istar = self.card_step(gmask)",
     f"{KERNELS}::test_ndp_threshold_matches_dual_ideal_betti[5]"),
    ("linearity-card-term-dropped", "_engine.py",
     "return (self.card_step(e) == NO_VIOLATION\n                and ",
     "return (",
     f"{KERNELS}::test_linearity_data_matches_clique_ideal_betti[5]"),
    ("cards-read-at-a-wrong-offset", "_engine.py",
     "offsets = range(0, n * width, width)",
     "offsets = range(width, (n + 1) * width, width)",
     f"{KERNELS}::test_linearity_data_matches_clique_ideal_betti[5]"),
    ("complement-fold-not-reversed", "_engine.py",
     "contrib = contrib[::-1]",
     "contrib = contrib",
     f"{KERNELS}::test_complement_fold[5]"),
    ("dual-table-degree-shifted", "betti.py",
     "ideal = {(i + 1, c.n - size): value",
     "ideal = {(i + 2, c.n - size): value",
     "tests/test_betti.py::TestDualIdealTable::test_fixtures"),
    ("lattice-drops-last-generator", "betti.py",
     "for g in sorted(_minimal_nonface_masks(c)):",
     "for g in sorted(_minimal_nonface_masks(c))[:-1]:",
     "tests/test_betti.py::TestLatticeWalk::test_square_needs_both_generators"),
    ("restriction-keeps-faces-outside-w", "betti.py",
     "[f & w for f in facet_masks]",
     "[f & ~w for f in facet_masks]",
     "tests/test_betti.py::TestLatticeWalk::test_seeded[6-GF(2)]"),
    ("core-eliminated-over-gf2", "homology.py",
     "dims_over_field(core_key[1], field)",
     "dims_over_field(core_key[1], GF2)",
     "tests/test_betti.py::TestLatticeWalk::test_moore_space[GF(3)]"),
    ("collapse-drops-both-twins", "homology.py",
     "if others > u:",
     "if others:",
     "tests/test_betti.py::TestDimsCachedFamilies::test_examples"),
    ("collapsed-dims-not-padded", "homology.py",
     "dims += (0,) * (length - len(dims))",
     "dims = dims",
     "tests/test_criteria.py::TestLinkCensus::test_matches_face_scan[GF(2)]"),
    ("clearing-marks-wrong-columns", "homology.py",
     "cleared = pivot_rows(columns(s, cleared))",
     "cleared = pivot_rows(columns(s, cleared)) << 1",
     "tests/test_homology.py::TestExactKernel::test_matches_elimination_on_five_vertices[GF(3)]"),
    ("gf2-column-drops-a-face", "homology.py",
     "col |= 1 << idx[f ^ b]",
     "col |= 1 << idx[f ^ b] if m else 0",
     "tests/test_homology.py::TestRankExact::test_gf2_matches_bit_packed_kernel"),
    ("unclean-link-size-short-by-one", "criteria.py",
     "max_unclean = max(unclean) >> 16 if",
     "max_unclean = (max(unclean) >> 16) - 1 if",
     "tests/test_criteria.py::TestCmT::test_d6_is_cm2_not_cm1"),
    ("ext-profile-index-shifted", "criteria.py",
     "dimext[size + 1 + i] = max(size, dimext[size + 1 + i]",
     "dimext[size + i] = max(size, dimext[size + i]",
     "tests/test_criteria.py::TestExtProfile::test_dual_table_matches_face_scan[GF(2)]"),
    ("depth-own-term-short-by-one", "criteria.py",
     "depth = min([(k >> 16) + (k & 255) for",
     "depth = min([(k >> 16) + (k & 255) - 1 for",
     "tests/test_criteria.py::TestPropertyReport::test_dualc5_report"),
    ("census-divided-by-face-size-off-by-one", "criteria.py",
     "h // ((k >> 16) + 1)",
     "h // ((k >> 16) + 2)",
     "tests/test_criteria.py::TestLinkCensus::test_matches_face_scan[GF(2)]"),
    ("engine-depth-own-term-short-by-one", "_engine.py",
     "self.link_digest(s, mb, sv, sv + 1)",
     "self.link_digest(s, mb, sv, sv)",
     f"{HARNESS}::test_engine_depth_of_the_non_cm_buchsbaum_class[5]"),
    ("orbit-counted-once", "harness.py",
     "checked += size",
     "checked += 1",
     f"{HARNESS}::TestOrbitMemo::test_checks_fall_to_orbit_count"),
    ("serre-threshold-off-by-one", "harness.py",
     "dg.d - 1 - dg.serre_viol",
     "dg.d - dg.serre_viol",
     f"{HARNESS}::test_serre_threshold_matches_the_loop[GF(2)]"),
]


@pytest.mark.slow
@pytest.mark.parametrize("path, old, new, test", [case[1:] for case in MUTATIONS],
                         ids=[case[0] for case in MUTATIONS])
def test_mutation_is_caught(tmp_path, path, old, new, test):
    shutil.copytree(ROOT / "src" / "srlab", tmp_path / "srlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    target = tmp_path / "srlab" / path
    text = target.read_text()
    assert text.count(old) == 1, f"{path}: the snippet occurs {text.count(old)} times"
    target.write_text(text.replace(old, new))

    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    imported = subprocess.run([sys.executable, "-c", "import srlab; print(srlab.__file__)"],
                              env=env, capture_output=True, text=True, timeout=60)
    assert imported.stdout.startswith(str(tmp_path)), imported.stdout + imported.stderr
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                          test], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, f"{test} did not fail:\n{run.stdout[-2000:]}{run.stderr[-2000:]}"
