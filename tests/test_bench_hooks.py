"""The benchmark under bench/ traces the library by wrapping attributes by
name (bench/layers.py, `targets`).  A rename in the library would break its
traced runs without failing any library test, so this test resolves every
hook point."""

import sys
from pathlib import Path

import newtrack.cli  # binds newtrack; targets() reads newtrack.cli too

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_trace_target_resolves():
    sys.path.insert(0, str(BENCH))
    try:
        import layers
    finally:
        sys.path.remove(str(BENCH))
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in layers.targets(newtrack)
               if not callable(vars(owner).get(attr))]
    assert missing == []
