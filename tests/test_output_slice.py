"""Byte-identity gate on a slice of tests/output_grid.py's grid.

tests/output_slice.txt holds the slice's lines, headed by the numpy
version they were made with; every output hash in them depends on
numpy's bits.  A change that alters an output on purpose regenerates
the file (see output_grid.py) and says why.
"""

import contextlib
import difflib
import io
from pathlib import Path

import output_grid

GOLDEN = Path(__file__).with_name("output_slice.txt")
REGENERATE = "python tests/output_grid.py --slice > tests/output_slice.txt"


def test_output_slice_is_byte_identical():
    want = GOLDEN.read_text().splitlines()
    assert want[0] == output_grid.slice_header(), (
        f"{GOLDEN.name} was made with {want[0][2:]}, this run has {output_grid.slice_header()[2:]}; "
        f"regenerate it from a tree whose outputs are known good: {REGENERATE}"
    )
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        output_grid.output_slice()
    got = out.getvalue().splitlines()
    diff = list(difflib.unified_diff(want, got, GOLDEN.name, "this tree", lineterm="", n=0))
    assert not diff, "outputs differ from the golden slice:\n" + "\n".join(diff)
