import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ifelab.cli
import ifelab.experiments
from ifelab.cli import main

from conftest import corrupted_source


class TestRunCommand:
    def test_csv_to_stdout(self, capsys):
        code = main(["run", "--example", "ex3", "--method", "new",
                     "--nmin", "8", "--nmax", "16"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,h,dofs,L2_err,L2_rate,H1_err,H1_rate,cg_iters,seconds"
        assert len(lines) == 3
        # exact reproduction on the straight-interface benchmark
        for row in lines[1:]:
            assert float(row.split(",")[3]) <= 1e-10

    def test_output_file_and_determinism(self, tmp_path, capsys):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        for p in (p1, p2):
            assert main(["run", "--example", "ex3", "--nmin", "8", "--nmax", "8",
                         "--out", str(p)]) == 0
        capsys.readouterr()
        strip_seconds = lambda txt: ["," .join(l.split(",")[:-1])
                                     for l in txt.read_text().splitlines()]
        assert strip_seconds(p1) == strip_seconds(p2)

    def test_assert_rates_failure_exit_code(self, capsys):
        # the penalty-free scheme is suboptimal on ex1, so optimal-rate
        # assertion must fail with exit code 4
        code = main(["run", "--example", "ex1", "--method", "plain",
                     "--nmin", "16", "--nmax", "64", "--assert-rates",
                     "--l2-rate-min", "1.85", "--h1-rate-min", "0.9"])
        assert code == 4
        assert "rate assertion failed" in capsys.readouterr().err

    def test_assert_rates_pass(self, capsys):
        code = main(["run", "--example", "ex2", "--method", "new",
                     "--nmin", "16", "--nmax", "64", "--assert-rates",
                     "--l2-rate-min", "1.5", "--h1-rate-min", "0.8"])
        capsys.readouterr()
        assert code == 0

    def test_text_format(self, capsys):
        code = main(["run", "--example", "ex3", "--format", "text",
                     "--nmin", "8", "--nmax", "8"])
        out = capsys.readouterr().out
        assert code == 0 and "L2 err" in out

    def test_run_validates_once(self, capsys, monkeypatch):
        calls = []
        real = ifelab.experiments.validate

        def counting(prob, *args, **kwargs):
            calls.append(prob.name)
            return real(prob, *args, **kwargs)

        monkeypatch.setattr(ifelab.experiments, "validate", counting)
        monkeypatch.setattr(ifelab.cli, "validate", counting)
        assert main(["run", "--example", "ex3", "--nmin", "8", "--nmax", "8"]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_invalid_problem_exits_2(self, capsys, monkeypatch):
        real = ifelab.cli.get_example

        def corrupted(*args):
            # f = 0 is exact on ex3; any offset breaks it
            return corrupted_source(real(*args), offset=1.0)

        monkeypatch.setattr(ifelab.cli, "get_example", corrupted)
        code = main(["run", "--example", "ex3", "--nmin", "8", "--nmax", "8"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("problem validation failed:")
        assert captured.out == ""

    def test_ppifem_with_eta(self, capsys):
        code = main(["run", "--example", "ex3", "--method", "ppifem",
                     "--eta", "50", "--nmin", "8", "--nmax", "8"])
        capsys.readouterr()
        assert code == 0


class TestOtherCommands:
    def test_validate_ok(self, capsys):
        assert main(["validate", "--example", "ex4"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_validate_all_examples(self, capsys):
        for ex in ("ex1", "ex2", "ex3"):
            assert main(["validate", "--example", ex]) == 0
        capsys.readouterr()

    def test_basis_check(self, capsys):
        code = main(["basis-check", "--seed", "3", "--count", "50",
                     "--ratio-max", "100", "--max-angle", "160"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all checks passed" in out

    def test_unknown_example_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--example", "ex9"])
        assert exc.value.code == 2

    def test_too_coarse_mesh_exits_3(self, capsys):
        # the quartic interface crosses single edges twice at N=4
        code = main(["run", "--example", "ex2", "--nmin", "4", "--nmax", "4"])
        assert code == 3
        assert "error" in capsys.readouterr().err


class TestUsageErrors:
    @pytest.mark.parametrize("argv, option", [
        (["run", "--example", "ex1", "--nmin", "12"], "--nmin"),
        (["run", "--example", "ex1", "--nmin", "0"], "--nmin"),
        (["run", "--example", "ex1", "--nmax", "100"], "--nmax"),
        (["run", "--example", "ex1", "--nmax", "2048"], "--nmax"),
        (["run", "--example", "ex1", "--nmin", "32", "--nmax", "16"], "--nmax"),
        (["run", "--example", "ex1", "--beta-plus", "0"], "--beta-plus"),
        (["run", "--example", "ex1", "--beta-minus", "-1"], "--beta-minus"),
        (["run", "--example", "ex1", "--beta-plus", "nan"], "--beta-plus"),
        (["validate", "--example", "ex1", "--beta-minus", "0"], "--beta-minus"),
        (["run", "--example", "ex1", "--rtol", "0"], "--rtol"),
        (["run", "--example", "ex1", "--rtol", "1"], "--rtol"),
        (["basis-check", "--count", "0"], "--count"),
        (["basis-check", "--ratio-max", "0"], "--ratio-max"),
        (["basis-check", "--ratio-max", "0.5"], "--ratio-max"),
        (["basis-check", "--ratio-max", "inf"], "--ratio-max"),
        (["basis-check", "--max-angle", "20"], "--max-angle"),
        (["basis-check", "--max-angle", "25"], "--max-angle"),
        (["basis-check", "--max-angle", "180"], "--max-angle"),
        (["run", "--example", "ex1", "--method", "ppifem", "--eta", "0"], "--eta"),
        (["run", "--example", "ex1", "--method", "ppifem", "--eta", "-5"], "--eta"),
    ], ids=["nmin-12", "nmin-0", "nmax-100", "nmax-2048", "nmax-below-nmin", "beta-plus-0",
            "beta-minus-negative", "beta-plus-nan", "validate-beta-minus-0", "rtol-0",
            "rtol-1", "count-0", "ratio-max-0", "ratio-max-below-1", "ratio-max-inf",
            "max-angle-20", "max-angle-25", "max-angle-180", "eta-0", "eta-negative"])
    def test_malformed_number_exits_2_before_any_work(self, capsys, monkeypatch, argv,
                                                      option):
        """A malformed number is a usage error: argparse prints the usage and
        one error line naming the option, and exits 2 before any problem is
        built or any work starts."""
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("get_example", "run_convergence", "basis_stress_test", "validate"):
            monkeypatch.setattr(ifelab.cli, name, no_work)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"error: argument {option}: " in errors[0]
        assert "Traceback" not in captured.err and captured.out == ""


class TestImportPolicy:
    def test_validate_loads_no_scipy(self):
        """A fresh process that imports ifelab and validates problems loads
        numpy alone; the first assemble still finds scipy.sparse."""
        script = textwrap.dedent("""
            import contextlib, io, sys
            import ifelab
            from ifelab.cli import main
            for name in ("ex1", "ex2", "ex4"):
                ifelab.validate(ifelab.get_example(name))
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["validate", "--example", "ex1"]) == 0
            loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
            assert not loaded, loaded
            from ifelab.experiments import _build_mesh
            prob = ifelab.get_example("ex4")
            ctx = ifelab.build_context(prob, _build_mesh("rq1", 8, prob.domain), "rq1")
            A = ifelab.assemble(ctx, "new").matrix
            assert A.format == "csr" and A.nnz > 0, A.format
        """)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
