"""The paper's cost measures, pinned: each method's first iteration below
each tolerance, and the scalars it has sent by then, on the published
presets.  A change that moves one on purpose edits crossings.json and
states the old and new value; `python tests/test_crossings.py` prints the
current table."""

import dataclasses
import json
from pathlib import Path

from newtrack.harness import preset, run_experiment, topology_sweep

GOLDEN = Path(__file__).with_name("crossings.json")
TOLS = (1e-6, 1e-8, 1e-10)
SWEEP_TOLS = (1e-6, 1e-8, 1e-9)  # the topo-n10 sweep stops at 1e-9


def crossings_of(trace, tols) -> dict:
    out = {}
    for tol in tols:
        t = trace.first_below(tol)
        out[repr(tol)] = None if t is None else [t, trace.scalars_sent[t]]
    return out


def crossings() -> dict:
    """{run: {method or kind: {tol: [iteration, scalars_sent]}}}."""
    table = {}
    for name in ("fig1", "fig4-n50", "fig5-n100"):
        record = run_experiment(dataclasses.replace(preset(name), stop_tol=TOLS[-1]))
        table[name] = {method: crossings_of(trace, TOLS)
                       for method, trace in record.traces.items()}
    sweep = topology_sweep(preset("topo-n10"))
    table["topo-n10"] = {kind: crossings_of(record.traces["nt"], SWEEP_TOLS)
                         for kind, record in sweep.items()}
    return table


def rows(table: dict) -> str:
    return "".join(f"\n  {run} {method}: {json.dumps(entry)}"
                   for run, methods in table.items() for method, entry in methods.items())


def test_crossings_equal_the_golden_table():
    golden, now = json.loads(GOLDEN.read_text()), crossings()
    assert now == golden, f"\ngolden:{rows(golden)}\nnow:{rows(now)}"


if __name__ == "__main__":
    print(json.dumps(crossings(), indent=1))
