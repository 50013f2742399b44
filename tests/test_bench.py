"""scripts/bench.py: the paired comparison of two commits."""
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_pairs_samples():
    bench = load_bench()
    got = bench.compare([1.0, 2.0, 3.0, 4.0], [0.5, 2.5, 3.0, 3.0])
    assert got["diff"]["runs"] == [-0.5, 0.5, 0.0, -1.0]
    assert (got["tree_wins"], got["rev_wins"]) == (2, 1)
    assert got["rev"]["median"] == 2.5 and got["tree"]["median"] == 2.75


def test_error_gap_is_the_largest_relative_gap():
    bench = load_bench()
    rev = {"l2": 1.0, "h1": 2.0}
    assert bench.error_gap([rev, dict(rev), dict(rev)]) == 0.0
    got = bench.error_gap([rev, {"l2": 1.0 + 1e-9, "h1": 2.0}, {"l2": 1.0, "h1": 2.0 - 4e-9}])
    assert got == pytest.approx(2e-9, rel=1e-6)
    assert bench.error_gap([{"l2": 0.0, "h1": 1.0}, {"l2": 1e-300, "h1": 1.0}]) == 1.0


def test_case_specs_follow_nmin_and_nmax():
    bench = load_bench()
    assert {N for *_, N in bench.case_specs(64, 512)} == {64, 128, 256, 512}
    assert [spec[3] for spec in bench.case_specs(256, 256)] == [256, 256]
    assert [spec[3] for spec in bench.case_specs(64, 16)] == [16, 16]
    assert [spec[3] for spec in bench.case_specs(1024, 1024)] == [1024, 1024]


@pytest.mark.parametrize("argv", [["--nmax", "0"], ["--nmin", "0", "--nmax", "16"],
                                  ["--nmax", "2048"]])
def test_out_of_range_n_is_a_usage_error(capsys, tmp_path, argv):
    """An N outside 1 to N_MAX exits 2 with a usage message, before any
    process starts or any file is written."""
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        load_bench().main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert "must be in 1 to 1024" in capsys.readouterr().err
    assert not out.exists()


def test_against_head(tmp_path):
    """--against HEAD runs both sides at N=16 and reports, for each, the
    same DOFs and nnz and errors that agree to rounding (a working tree
    with edits may round differently from HEAD; CI, on a clean checkout,
    asks for equality with --require-same)."""
    root = SCRIPT.parent.parent
    if shutil.which("git") is None or subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--verify", "HEAD"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode:
        pytest.skip("needs git and a repository with a HEAD commit")
    out = tmp_path / "against.json"
    err = subprocess.run([sys.executable, str(SCRIPT), "--against", "HEAD", "--nmax", "16",
                          "--runs", "1", "--out", str(out)], check=True,
                         stderr=subprocess.PIPE, text=True).stderr
    doc = json.loads(out.read_text())
    assert doc["against"] == "HEAD" and len(doc["rev_commit"]) == 40
    assert doc["cases"][0]["case"] == "import"
    cases = doc["cases"][1:]
    assert [(c["case"], c["N"]) for c in cases] == [("ex1/new/cr", 16), ("ex4/new/rq1", 16)]
    for c in cases:
        rev, tree = c["sizes"]["rev"], c["sizes"]["tree"]
        assert (rev["dofs"], rev["nnz"]) == (tree["dofs"], tree["nnz"])
        assert c["same_sizes"]
        for key in ("l2", "h1"):
            assert tree[key] == pytest.approx(rev[key], rel=1e-10)
        assert 0.0 <= c["error_gap"] <= 1e-10
        assert c["same"] == (c["error_gap"] == 0.0)
        assert set(c["phases"]) == {*load_bench().PHASES, "total"}
        for stats in c["phases"].values():
            assert stats["tree_wins"] + stats["rev_wins"] <= 1
            assert len(stats["rev"]["runs"]) == len(stats["tree"]["runs"]) == 1
        # the case's stderr line carries both sides' peak RSS and the tree's wins
        rss = c["peak_rss_mb"]
        line = next(x for x in err.splitlines() if x.startswith(f"{c['case']}/{c['N']}: "))
        assert (f"peak RSS {rss['rev']['median']:.0f} -> {rss['tree']['median']:.0f} MB "
                f"(tree lower in {rss['tree_wins']}/1)") in line
