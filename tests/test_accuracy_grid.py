"""tests/accuracy_grid.py runs: a one-cell grid prints both of its tables.

The grid's figures have no bounds; a change that moves them cites the
full grid's table before and after (see accuracy_grid.py).
"""

import accuracy_grid


def test_one_cell_grid_prints_both_tables(capsys):
    accuracy_grid.report(("transverse-hz",), ("lorentzian-fit",), (-90.0,), (2000,), (1.05,))
    lines = capsys.readouterr().out.splitlines()
    cells = [line.split()[:2] for line in lines if not line.startswith("#")]
    assert cells == [["interaction", "q"], ["transverse-hz", "lorentzian-fit"]] * 2
