"""A git revision's files in a temporary directory, for the scripts that compare it with the working tree.

tests/output_grid.py and tests/bench_pairs.py take `--against REF` and run
REF's copy beside the working tree's.  The module is not named test_*, so
pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import subprocess
import tempfile
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@contextlib.contextmanager
def checked_out(ref: str, *paths: str) -> Iterator[Path]:
    """`git archive REF [PATHS...]` extracted into a temporary directory, removed on exit."""
    with tempfile.TemporaryDirectory() as name:
        archive = subprocess.run(["git", "archive", ref, *paths], cwd=ROOT, check=True,
                                 stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", name], input=archive, check=True)
        yield Path(name)
