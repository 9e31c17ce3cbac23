"""The experiment script named in the README runs end to end."""

import runpy
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_full_analysis.py"


def test_run_full_analysis_prints_every_error_rate(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--rounds", "2000", "--seed", "7"])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    out = capsys.readouterr().out
    table = out.split("== acceptable error rates ==\n")[1].split("\n\n")[0].splitlines()
    assert table[0].split() == ["protocol", "computed", "published", "delta"]
    assert [line.split()[0] for line in table[1:]] == ["3DEB", "12-state", "3D-BB84",
                                                      "Ekert91"]
    assert "== simulation at 2000 rounds (seed 7) ==" in out
