import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_schreier_table_runs(capsys):
    spec = importlib.util.spec_from_file_location("schreier_table", SCRIPTS / "schreier_table.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main() == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith("worst |lhs - rhs| = ")
    assert float(last.rpartition("=")[2]) < 1e-7
