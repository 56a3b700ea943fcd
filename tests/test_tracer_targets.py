"""The benchmark's per-layer metrics name real functions.

`bench/tracer.py` reports calls and self time for each function named in
`TRACED`, and a name that no longer resolves is reported as missing.  This
test fails instead, so a change that renames or deletes a traced function
also has to say what becomes of its metric.  It only reads `bench/`.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_is_a_spectop_function():
    missing = []
    for qual in _traced():
        mod_name, fn_name = qual.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"spectop.{mod_name}"), fn_name, None)
        if not callable(fn):
            missing.append(qual)
    assert missing == []
