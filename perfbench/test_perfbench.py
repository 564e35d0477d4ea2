"""Fast self-test of the benchmark: tiny inputs through every check, and a
hand-computed example for the independent ARI and NMI.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench  # noqa: E402
import checks  # noqa: E402
import fedhire.metrics  # noqa: E402
import hostspeed  # noqa: E402
import reference  # noqa: E402



class TinyWorkload(bench.Workload):
    """A few epochs per competitive-learning run keep the self-test fast."""

    def config(self, data_seed):
        return dataclasses.replace(super().config(data_seed), max_epochs=5)


TINY = TinyWorkload("tiny", n=320, d=4, cases=2)


@pytest.fixture(scope="module")
def tiny_run():
    cases = bench.prepare(TINY, seed=3)
    return bench.measure(TINY, cases, seconds=0.0, trace=True)


def test_hand_computed_indices():
    predicted, truth = [0, 0, 1, 1], [0, 0, 1, 2]
    # pairs: 1 together in both, 2 together in predicted, 1 in truth, of 6;
    # expected 2 * 1 / 6, so ARI = (1 - 1/3) / (3/2 - 1/3) = 4/7
    assert reference.ari(predicted, truth) == pytest.approx(4 / 7, abs=1e-12)
    # H(P) = ln 2, H(T) = 1.5 ln 2, I = ln 2, so NMI = ln 2 / 1.25 ln 2
    assert reference.nmi(predicted, truth) == pytest.approx(0.8, abs=1e-12)
    for name in ("ari", "nmi"):
        ours = getattr(reference, name)(predicted, truth)
        assert ours == pytest.approx(getattr(fedhire.metrics, name)(predicted, truth), abs=1e-12)


def test_trivial_partitions():
    assert reference.ari([0, 0, 0], [1, 1, 1]) == 1.0
    assert reference.nmi([0, 0, 0], [0, 1, 2]) == 0.0


def test_seed_rotates_the_panel():
    assert TINY.data_seeds(0) == [0, 1] and TINY.data_seeds(3) == [1, 0]


def test_blobs_follow_the_seed():
    a, la = reference.make_blobs(5, 100, 4, 8)
    b, lb = reference.make_blobs(5, 100, 4, 8)
    c, _ = reference.make_blobs(6, 100, 4, 8)
    assert np.array_equal(a, b) and np.array_equal(la, lb)
    assert not np.array_equal(a, c)
    assert np.bincount(la).tolist() == [13] * 4 + [12] * 4


def test_kfed_recovers_separated_blobs():
    values, truth = reference.make_blobs(0, 400, 2, 4)
    halves = [np.arange(0, 400, 2), np.arange(1, 400, 2)]
    assert reference.ari(reference.kfed_labels(values, halves, 4, 0), truth) > 0.9


def test_tiny_run_passes_every_check(tiny_run):
    modes = [op.mode for op in tiny_run.ops]
    assert modes == [bench.PLAIN, bench.SPANS, bench.MEMORY, bench.PLAIN, bench.SPANS]
    for op in tiny_run.ops:
        assert op.wrong == [] and op.quality == [], (op.mode, op.wrong, op.quality)
    # the repeated seeds were compared against their first run
    assert set(tiny_run.first_labels) == {0, 1}
    # untraced calls, and only those, carry the host speed around them
    assert all((op.calibration is not None) == (op.mode == bench.PLAIN) for op in tiny_run.ops)


def test_scaling_to_reference_speed():
    assert hostspeed.calibrate() > 0
    # a host running the calibration loop at half the reference speed
    # halves the wall time it reports
    assert hostspeed.at_reference(3.0, 2 * hostspeed.REFERENCE_S) == pytest.approx(1.5)


def test_metric_names_match_benchmark_json(tiny_run):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = bench.end_to_end(tiny_run, setup_s=1.0)
    layers = bench.per_layer(tiny_run)
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    for metrics, listed in ((e2e, spec["end_to_end"]), (layers, spec["per_layer"])):
        for m in listed:
            value, unit = metrics[m["name"]]
            assert unit == m["unit"] and math.isfinite(value), m["name"]


def test_spans_cover_the_operation(tiny_run, tmp_path):
    tracer = tiny_run.tracer
    own = tracer.self_seconds()
    for span, self_s in zip(tracer.spans, own):
        assert span.end >= span.start and self_s >= -1e-9
    layers = tiny_run.ops[1].layers
    assert 0.9 <= layers["trace.coverage"] <= 1.0
    assert layers["server.stages"] >= layers["server.hierarchy_depth"] >= 1
    out = tmp_path / "spans.json"
    tracer.dump(out)
    rows = json.loads(out.read_text())["spans"]
    assert len(rows) == len(tracer.spans) and "payload_rows" not in rows[0]


def test_checks_catch_faults(tiny_run):
    op = tiny_run.ops[0]
    case = op.case
    truth = case.data.labels
    result = bench.fedhire.run_one_shot(case.data, case.config)

    bad_labels = dataclasses.replace(result, object_labels=np.full(truth.size, bench.K_STAR))
    assert checks.check_labels(bad_labels, truth.size, bench.K_STAR)
    assert checks.check_hierarchy(SimpleNamespace(hierarchy_ks=[5, 5, 2]))
    assert checks.check_hierarchy(SimpleNamespace(hierarchy_ks=[4, 1]))

    plan = result.plan
    overlapping = SimpleNamespace(client_indices=[plan.client_indices[0]] * 2 + plan.client_indices[2:],
                                  provenance=plan.provenance)
    assert checks.check_plan(overlapping, truth)
    mixed = np.where(truth == 0, 1, truth)
    assert checks.check_plan(plan, mixed)

    assert checks.check_upload(dataclasses.replace(result, communicated_values=1), TINY.d)
    assert checks.check_upload(dataclasses.replace(result, payload_count=0), TINY.d)

    rows = np.vstack([case.data.values[:1] + 1e-3, case.data.values[5:6]])
    assert checks.raw_rows_uploaded(rows, case.data.values) == 1

    wrong_metrics = SimpleNamespace(ari=lambda a, b: 0.5, nmi=fedhire.metrics.nmi)
    assert checks.check_indices(result.object_labels, truth, wrong_metrics)
    assert checks.check_quality(ari=0.1, kfed_ari=0.9)
    assert not checks.check_quality(ari=0.2, kfed_ari=0.9)

    # and the unaltered result passes them all
    assert checks.check_labels(result, truth.size, bench.K_STAR) == []
    assert checks.check_hierarchy(result) == []
    assert checks.check_plan(plan, truth) == []
    assert checks.check_upload(result, TINY.d) == []
    assert checks.check_indices(result.object_labels, truth, fedhire.metrics) == []


def test_changed_labels_on_a_repeat_are_wrong(tiny_run):
    case = tiny_run.ops[0].case
    runner = bench.Runner(TINY)
    runner.first_labels[case.data_seed] = np.zeros(TINY.n, dtype=np.int64)
    assert any("repeated" in reason for reason in runner.run(case, bench.PLAIN).wrong)
