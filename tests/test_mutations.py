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
     "key = (off, j)",
     "key = (off + 1, j)",
     "tests/test_betti.py::TestDualIdealTable::test_fixtures"),
    ("cone-test-on-every-family", "homology.py",
     "if apex > 0:",
     "if apex >= 0:",
     "tests/test_betti.py::TestDimsCachedFamilies::test_examples"),
    ("unclean-link-size-short-by-one", "criteria.py",
     "max_unclean = mb + 1",
     "max_unclean = mb",
     "tests/test_criteria.py::TestCmT::test_d6_is_cm2_not_cm1"),
    ("ext-profile-index-shifted", "criteria.py",
     "dimext[i + size] = max(",
     "dimext[i + size - 1] = max(",
     "tests/test_criteria.py::TestExtProfile::test_dual_table_matches_face_scan[GF(2)]"),
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
