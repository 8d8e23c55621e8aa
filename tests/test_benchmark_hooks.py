"""The benchmark wraps program functions where their callers look them up.

perfbench/spans.py lists those lookup sites in WRAP_POINTS; a traced run
fails at start-up if any of them is missing, so each must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_wrap_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAP_POINTS
    missing = [
        (module, attr)
        for module, attr, _ in spans.WRAP_POINTS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
