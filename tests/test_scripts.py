"""The refinement scripts reject an out-of-range --nmax as a usage error."""
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("nmax", [4, 1024])
def test_interpolation_study_rejects_nmax(capsys, nmax):
    with pytest.raises(SystemExit) as exc:
        load("interpolation_study").main(["--nmax", str(nmax)])
    assert exc.value.code == 2
    assert "--nmax must be in 8 to 512" in capsys.readouterr().err


@pytest.mark.parametrize("nmax", [4, 8, 1024])
def test_reproduce_tables_rejects_nmax_before_any_work(capsys, tmp_path, nmax):
    """figure4's refinement starts at N=16, so --nmax 8 is out of range
    too; the output directory is not created."""
    out = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:
        load("reproduce_tables").main(["--nmax", str(nmax), "--out", str(out)])
    assert exc.value.code == 2
    assert "--nmax must be in 16 to 512" in capsys.readouterr().err
    assert not out.exists()
