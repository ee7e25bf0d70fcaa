"""The paper's Table 1 on the benchmark's pinned seed-2016 world.

Unordered ``LIMIT/OFFSET`` sample pages decide which rows the aligner
sees, so any change to the order in which the engine streams rows shows
up here as different accepted rules, P/F1 or query counts.  The pin is
the one ``perfbench/align_bench.py`` checks on every benchmark run; this
test holds the engine to it on both the block-kernel path and the per-row
path (every evaluator built with ``use_vectorized=False``).  With the
kernels on, every non-aggregate SELECT of the run must also finish in ID
columns: a silent decline would keep the pin but lose the speed.
"""

import pytest

from perfbench.align_bench import (
    PINNED,
    PINNED_SEED,
    report_digest,
    report_table,
    table1_queries,
    world_spec,
)
from repro.evaluation.experiment import run_table1_experiment
from repro.obs import metrics as obs_metrics
from repro.sparql.evaluate import QueryEvaluator
from repro.synthetic.generator import generate_world

#: Non-aggregate SELECTs the seed-2016 Table 1 run sends.
NON_AGGREGATE_SELECTS = 2395


@pytest.mark.parametrize("per_row", [False, True], ids=["default", "per-row"])
def test_seed_2016_table1_is_pinned(monkeypatch, per_row):
    if per_row:
        # Flip the constructor default (use_planner, use_vectorized), so
        # every evaluator the run builds keeps the per-row operators.
        monkeypatch.setattr(QueryEvaluator.__init__, "__defaults__", (True, False))
    world = generate_world(world_spec(PINNED_SEED, tiny=False))
    registry = obs_metrics.registry()
    before = registry.counters_with_prefix("kernel.")
    report = run_table1_experiment(world, sample_size=10)
    after = registry.counters_with_prefix("kernel.")

    moved = {
        name: value - before.get(name, 0)
        for name, value in after.items()
        if value != before.get(name, 0)
    }
    if per_row:
        assert "vectorized" not in moved
    else:
        assert moved == {"vectorized": NON_AGGREGATE_SELECTS}

    assert table1_queries(report) == PINNED["queries"] == 3124
    assert {
        method.method: round(method.average_f1(), 3) for method in report.methods
    } == PINNED["average_f1"]
    assert report_table(report) == PINNED["directions"]
    assert report_digest(report) == PINNED["digest"]
