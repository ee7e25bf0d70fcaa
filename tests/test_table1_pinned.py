"""The paper's Table 1 on the benchmark's pinned seed-2016 world.

Unordered ``LIMIT/OFFSET`` sample pages decide which rows the aligner
sees, so any change to the order in which the engine streams rows shows
up here as different accepted rules, P/F1 or query counts.  The pin is
the one ``perfbench/align_bench.py`` checks on every benchmark run; this
test holds the engine to it on both the numpy and the pure-Python paths.
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
from repro.synthetic.generator import generate_world


@pytest.mark.parametrize("no_numpy", [False, True], ids=["default", "no-numpy"])
def test_seed_2016_table1_is_pinned(monkeypatch, no_numpy):
    if no_numpy:
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    world = generate_world(world_spec(PINNED_SEED, tiny=False))
    report = run_table1_experiment(world, sample_size=10)

    assert table1_queries(report) == PINNED["queries"] == 3124
    assert {
        method.method: round(method.average_f1(), 3) for method in report.methods
    } == PINNED["average_f1"]
    assert report_table(report) == PINNED["directions"]
    assert report_digest(report) == PINNED["digest"]
