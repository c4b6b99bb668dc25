"""Every script in `demos/` runs end to end and writes the table it names."""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", sorted(path.name for path in DEMOS.glob("*.py")))
def test_script_writes_its_table(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script])  # image_map.py reads an optional image path
    namespace = runpy.run_path(str(DEMOS / script))
    namespace["main"]()
    out = namespace.get("OUT")  # coverage_bounds.py only prints
    assert sorted(path.name for path in tmp_path.iterdir()) == ([] if out is None else [out])
    printed = capsys.readouterr().out
    if out is None:
        assert "below the transferable bound" in printed
        return
    assert f"wrote {out}" in printed
    header, *lines = (tmp_path / out).read_text().splitlines()
    table = np.array([line.split("\t") for line in lines], dtype=float)
    assert table.shape == (len(lines), len(header.split("\t"))) and len(lines) > 1
    assert np.isfinite(table).all()
