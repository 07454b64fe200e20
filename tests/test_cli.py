"""Exit codes, payload formats, JSON round-trip idempotence."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import srlab
from srlab import harness
from srlab.cli import build_parser, main
from srlab.fixtures import COMPLEXES, GRAPHS, fixture_text


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in {**COMPLEXES, **GRAPHS}.items():
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    bad = tmp_path / "bad"
    bad.write_text("1 2\nx y\n")
    paths["bad"] = str(bad)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_true_predicate_is_zero(self, files, capsys):
        code, out, _ = run(capsys, "check", files["MT6"], "--serre", "3")
        assert code == 0 and "S_3: true" in out

    def test_false_predicate_is_one(self, files, capsys):
        code, out, _ = run(capsys, "check", files["MT6"], "--cm")
        assert code == 1 and "CM: false" in out

    def test_parse_error_is_two(self, files, capsys):
        code, _, err = run(capsys, "info", files["bad"])
        assert code == 2 and "error" in err

    def test_missing_file_is_two(self, capsys):
        code, _, err = run(capsys, "info", "/nonexistent/path")
        assert code == 2

    def test_field_of_characteristic_past_two_to_the_64_is_two(self, files, capsys):
        # 2^64 + 13 is prime; primality is decided only below 2^64
        code, _, err = run(capsys, "homology", files["C4"], "--field", str(2**64 + 13))
        assert code == 2 and "2^64" in err

    def test_unknown_verify_id_is_two(self, capsys):
        code, _, err = run(capsys, "verify", "not-a-theorem")
        assert code == 2 and "unknown theorem id" in err

    @pytest.mark.parametrize("max_len", ["0", "3"])
    def test_cycle_bound_below_four_is_two(self, files, capsys, max_len):
        # 0 is a bound like any other, not "unset"
        code, out, err = run(capsys, "graph", "cycles", files["C5.graph"], "--max-len", max_len)
        assert code == 2 and out == "" and "max_len must be >= 4" in err

    def test_usage_error_exits_two(self, files):
        with pytest.raises(SystemExit) as exc:
            main(["check", files["C4"]])  # no predicate flag
        assert exc.value.code == 2


class TestPayloads:
    def test_info_human(self, files, capsys):
        code, out, _ = run(capsys, "info", files["C4"])
        assert code == 0
        assert "f-vector (f_-1..f_dim): [1, 4, 4]" in out
        assert "h-vector (h_0..h_d): [1, 2, 1]" in out

    def test_betti_table(self, files, capsys):
        code, out, _ = run(capsys, "betti", files["C4"], "--ideal")
        assert code == 0
        assert "2:  2  ." in out and "3:  .  1" in out

    def test_betti_json_entries(self, files, capsys):
        code, out, _ = run(capsys, "betti", files["C4"], "--json")
        obj = json.loads(out)
        assert obj["schema"] == "sr-lab/1"
        assert [0, 2, 2] in obj["entries"] and [1, 4, 1] in obj["entries"]

    def test_homology_fields(self, files, capsys):
        _, out2, _ = run(capsys, "homology", files["MT6"])
        _, outq, _ = run(capsys, "homology", files["MT6"], "--field", "q")
        assert "H~_2 = 1" in out2 and "H~_2 = 1" in outq

    def test_dual_roundtrip(self, files, capsys, tmp_path):
        code, out, _ = run(capsys, "dual", files["R6"])
        assert code == 0
        p = tmp_path / "dual_out"
        p.write_text(out)
        code, out2, _ = run(capsys, "dual", str(p))
        with open(files["R6"]) as fh:
            base = fh.read()
        from srlab import parse_complex
        assert parse_complex(out2) == parse_complex(base)

    def test_link_reports_labels(self, files, capsys):
        code, out, _ = run(capsys, "link", files["C4"], "--face", "1")
        assert code == 0 and "labels (new->original): 1->2 2->3 3->4" in out

    def test_graph_subcommands(self, files, capsys):
        code, out, _ = run(capsys, "graph", "is-cycle", files["C5.graph"])
        assert code == 0
        code, out, _ = run(capsys, "graph", "chordal", files["C5.graph"])
        assert code == 1
        code, out, _ = run(capsys, "graph", "chordal", files["C5.graph"], "-r", "4")
        assert code == 0
        code, out, _ = run(capsys, "graph", "cycles", files["C5.graph"])
        assert "1 2 3 4 5" in out

    def test_check_ndp(self, files, capsys):
        code, _, _ = run(capsys, "check", files["C4"], "--ndp", "2", "1")
        assert code == 0
        code, _, _ = run(capsys, "check", files["C4"], "--ndp", "2", "2")
        assert code == 1

    def test_report(self, files, capsys):
        code, out, _ = run(capsys, "check", files["DUALC5"], "--report")
        assert code == 0
        assert "min_cm_t: 1" in out and "depth: 2" in out

    def test_fixtures_subcommand(self, capsys):
        code, out, _ = run(capsys, "fixtures", "MT6")
        assert code == 0 and out == fixture_text("MT6")
        code, out, _ = run(capsys, "fixtures", "--list")
        assert "C4" in out and "C5.graph" in out
        code, _, err = run(capsys, "fixtures", "NOPE")
        assert code == 2


class TestJsonRoundTrip:
    @pytest.mark.parametrize("argv", [
        ("info",), ("dual",), ("homology",), ("betti",),
    ])
    def test_reserialization_is_idempotent(self, files, capsys, argv):
        code, out, _ = run(capsys, *argv, files["MT6"], "--json")
        assert code == 0
        obj = json.loads(out)
        again = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        assert again == out.strip()

    def test_verify_json_idempotent(self, capsys):
        code, out, _ = run(capsys, "verify", "thm-er", "--n", "3", "--json")
        assert code == 0
        obj = json.loads(out)
        assert json.dumps(obj, sort_keys=True, separators=(",", ":")) == out.strip()


class TestVerifyCli:
    def test_human_summary(self, capsys):
        code, out, _ = run(capsys, "verify", "remark-serre", "--n", "4")
        assert code == 0 and "OK" in out and "instances checked" in out

    def test_sampling_flags(self, capsys):
        code, out, _ = run(capsys, "verify", "thm-main", "--n", "4",
                           "--sample", "5", "--seed", "3", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["seed"] == 3 and obj["mode"] == "sample"

    def test_field_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "remark-serre", "--n", "3", "--field", "3", "--json")
        assert code == 0 and json.loads(out)["field"] == "GF(3)"

    def test_zero_cap_with_failures_exits_one(self, capsys, monkeypatch):
        monkeypatch.setitem(harness.THEOREMS, "froberg",
                            harness.TheoremDef("froberg", "graph", lambda g, field: ["nope"]))
        code, out, _ = run(capsys, "verify", "froberg", "--n", "4", "--cap", "0")
        assert code == 1 and "OK" not in out
        code, out, _ = run(capsys, "verify", "froberg", "--n", "4", "--cap", "0", "--json")
        obj = json.loads(out)
        assert code == 1 and obj["counterexamples"] == [] and obj["counterexamples_truncated"]

    def test_negative_cap_is_two(self, capsys):
        code, _, err = run(capsys, "verify", "froberg", "--n", "4", "--cap", "-1")
        assert code == 2 and "cap" in err

    def test_no_space_left_is_two(self, capsys):
        code, out, err = run(capsys, "verify", "thm-topin", "--n", "2", "--json")
        assert code == 2 and out == "" and "n <= 2" in err

    def test_output_independent_of_hash_seed(self):
        outs = []
        for hash_seed in ("0", "1"):
            env = dict(_src_env(), PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-m", "srlab.cli", "verify", "thm-topin", "--n", "6", "--json"],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and json.loads(outs[0])["instances_checked"] > 0


def test_homology_of_fourteen_simplex_is_immediate(tmp_path):
    # a cone: answered without eliminating its 3003 x 3432 boundary maps over QQ
    path = tmp_path / "simplex14"
    path.write_text("V: 14\n" + " ".join(map(str, range(1, 15))) + "\n")
    proc = subprocess.run([sys.executable, "-m", "srlab.cli", "homology", str(path), "--field", "q"],
                          env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"H~_{i} = 0" for i in range(-1, 14)]


@pytest.mark.parametrize("field", ["q", "3"])
def test_homology_of_fourteen_vertex_sphere(tmp_path, field):
    # the boundary of the 13-simplex is no cone; clearing keeps its maps small
    path = tmp_path / "sphere12"
    verts = range(1, 15)
    path.write_text("V: 14\n" + "".join(" ".join(str(u) for u in verts if u != v) + "\n"
                                        for v in verts))
    proc = subprocess.run([sys.executable, "-m", "srlab.cli", "homology", str(path), "--json",
                           "--field", field],
                          env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["dims"] == {str(i): int(i == 12) for i in range(-1, 13)}


def test_betti_of_twenty_two_vertex_simplex(tmp_path):
    # no minimal nonface, so Hochster's sum has no term: no 2^22 restrictions
    path = tmp_path / "simplex21"
    path.write_text("V: 22\n" + " ".join(map(str, range(1, 23))) + "\n")
    proc = subprocess.run([sys.executable, "-m", "srlab.cli", "betti", str(path), "--json",
                           "--ring"],
                          env=_src_env(), capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["entries"] == [[0, 0, 1]]


@pytest.mark.parametrize("field", ["2", "3", "q"])
def test_betti_of_fourteen_vertex_sphere(tmp_path, field):
    # one minimal nonface, the vertex set: one restriction, the whole sphere
    path = tmp_path / "sphere12"
    verts = range(1, 15)
    path.write_text("V: 14\n" + "".join(" ".join(str(u) for u in verts if u != v) + "\n"
                                        for v in verts))
    proc = subprocess.run([sys.executable, "-m", "srlab.cli", "betti", str(path), "--json",
                           "--field", field],
                          env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["entries"] == [[0, 14, 1]]


def test_report_past_the_size_bound_is_refused(tmp_path):
    # the boundary of the 23-simplex: refused before any link homology;
    # one edge on 100,000 vertices: its dual (99,998 facets of 99,999
    # vertices) refused before any minimal nonface is found
    sphere = tmp_path / "sphere21"
    verts = range(1, 24)
    sphere.write_text("V: 23\n" + "".join(" ".join(str(u) for u in verts if u != v) + "\n"
                                          for v in verts))
    edge = tmp_path / "edge"
    edge.write_text("V: 100000\n1 2\n")
    for args in (["check", str(sphere), "--report", "--field", "q"], ["dual", str(edge)]):
        proc = subprocess.run([sys.executable, "-m", "srlab.cli", *args],
                              env=_src_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and "exceeds bound 22" in proc.stderr, (args, proc.stderr)


def _src_env():
    src = str(Path(srlab.__file__).resolve().parent.parent)
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestMainInSequence:
    def test_sequence_matches_fresh_interpreters(self, files, capsys):
        mt6 = files["MT6"]
        sequence = [
            ["betti", mt6, "--ring"],
            ["betti", mt6],
            ["check", mt6, "--cm"],
            ["check", mt6],  # no predicate: argparse error, exit 2
            ["check", mt6, "--report", "--field", "q"],
        ]
        in_process = []
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            in_process.append((code, out.out, out.err))
        assert [c for c, _, _ in in_process] == [0, 0, 1, 2, 0]
        for argv, got in zip(sequence, in_process):
            proc = subprocess.run([sys.executable, "-m", "srlab.cli", *argv], env=_src_env(),
                                  capture_output=True, text=True, timeout=60)
            assert got == (proc.returncode, proc.stdout, proc.stderr), argv


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_betti_options_do_not_carry_over(self, files, capsys):
        code, out, _ = run(capsys, "betti", files["C4"], "--ring", "--field", "3", "--json")
        obj = json.loads(out)
        assert code == 0 and obj["subject"] == "ring" and obj["field"] == "GF(3)"
        code, out, _ = run(capsys, "betti", files["C4"], "--json")
        obj = json.loads(out)
        assert code == 0 and obj["subject"] == "ideal" and obj["field"] == "GF(2)"

    def test_check_options_do_not_carry_over(self, files, capsys):
        code, out, _ = run(capsys, "check", files["MT6"], "--report", "--field", "q")
        assert code == 0 and "field: QQ" in out
        code, out, _ = run(capsys, "check", files["MT6"], "--report", "--json")
        assert code == 0 and json.loads(out)["field"] == "GF(2)"

    def test_usage_error_after_a_successful_call(self, files, capsys):
        code, _, _ = run(capsys, "check", files["MT6"], "--report")
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            main(["check", files["MT6"]])  # no predicate flag
        assert exc.value.code == 2
        code, out, _ = run(capsys, "check", files["MT6"], "--serre", "3")
        assert code == 0 and "S_3: true" in out
