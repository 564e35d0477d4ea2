"""Workloads, set-up and the measured loop of the one-shot pipeline benchmark.

An operation is one ``fedhire.run_one_shot`` call on one data seed, with the
protocol defaults (fragmentation inside the call, clients sequential). A
round runs every case of the workload once; a run repeats whole rounds for
as long as the next round still fits in the measuring time.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fedhire
import fedhire.metrics
import checks
import hostspeed
import reference
import spans

CLIENTS = 8
K_STAR = 8
SETUP_REPEATS = 3
# calibration passes before the first set-up and after each one
SETUP_CALIBRATIONS = 2
# the warm-up runs the workload's configuration on this many objects, with
# few epochs: it only has to pass through every layer once
WARM_UP_OBJECTS = 480
WARM_UP_EPOCHS = 3
WARM_UP_SEED = 7
RESULTS_DIR = Path(__file__).resolve().parent / "results"


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    cases: int
    k0_absolute: int | None = None

    def data_seeds(self, seed: int) -> list[int]:
        """The workload's fixed panel of data seeds 0..cases-1, rotated by
        ``seed``: the seed sets the order of a round, not its inputs."""
        start = seed % self.cases
        return [(start + i) % self.cases for i in range(self.cases)]

    def config(self, data_seed: int) -> fedhire.FederationConfig:
        return fedhire.FederationConfig(
            client_count=CLIENTS, k_star=K_STAR, seed=data_seed,
            k0_absolute=self.k0_absolute,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("client_loop", n=2000, d=4, cases=4, k0_absolute=64),
        Workload("server_hierarchy", n=1200, d=4, cases=4),
        Workload("wide_d16", n=2000, d=16, cases=3),
    )
}


@dataclass
class Case:
    data_seed: int
    data: fedhire.DataMatrix
    config: fedhire.FederationConfig
    plan: fedhire.PartitionPlan
    kfed_ari: float


def prepare(workload: Workload, seed: int) -> list[Case]:
    """Inputs, partition plans and the k-FED reference for one run."""
    cases = []
    for data_seed in workload.data_seeds(seed):
        values, truth = reference.make_blobs(data_seed, workload.n, workload.d, K_STAR)
        data = fedhire.DataMatrix(values, truth)
        config = workload.config(data_seed)
        plan = fedhire.fragment_partition(data, config)
        kfed = reference.kfed_labels(values, plan.client_indices, K_STAR, data_seed)
        cases.append(Case(data_seed, data, config, plan, reference.ari(kfed, truth)))
    return cases


def warm_up(workload: Workload) -> np.ndarray:
    """One small run through every layer; returns its labels."""
    values, truth = reference.make_blobs(WARM_UP_SEED, WARM_UP_OBJECTS, workload.d, K_STAR)
    data = fedhire.DataMatrix(values, truth)
    config = dataclasses.replace(workload.config(WARM_UP_SEED), max_epochs=WARM_UP_EPOCHS)
    return fedhire.run_one_shot(data, config).object_labels


def set_up(workload: Workload, seed: int) -> tuple[list[Case], float, float]:
    """Prepare and warm up SETUP_REPEATS times, each between calibration
    passes; returns the cases, the median wall time and the median
    calibration time. The warm-up runs repeat one seed, so they must agree."""
    times, labels = [], []
    calibrations = [hostspeed.calibrate() for _ in range(SETUP_CALIBRATIONS)]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cases = prepare(workload, seed)
        labels.append(warm_up(workload))
        times.append(time.perf_counter() - start)
        calibrations += [hostspeed.calibrate() for _ in range(SETUP_CALIBRATIONS)]
    if any(not np.array_equal(labels[0], other) for other in labels[1:]):
        raise RuntimeError("warm-up: a repeated seed gave different labels")
    return cases, statistics.median(times), statistics.median(calibrations)


# how an operation is run: untraced, with timed spans, or with spans and
# tracemalloc (for allocation peaks only: it slows the run several times)
PLAIN, SPANS, MEMORY = "plain", "spans", "memory"


@dataclass
class Operation:
    case: Case
    seconds: float
    mode: str
    ari: float
    nmi: float
    acc: float
    wrong: list[str]
    quality: list[str]
    layers: dict | None = None
    # mean time of the calibration loops around an untraced call
    calibration: float | None = None

    @property
    def failed(self) -> bool:
        return bool(self.wrong or self.quality)


class Runner:
    """Runs and checks operations; keeps each seed's first labels to compare."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.tracer = spans.Tracer()
        self.first_labels: dict[int, np.ndarray] = {}
        self.ops: list[Operation] = []
        # the calibration that ended just before the next call, if any
        self._calibration: float | None = None

    def run(self, case: Case, mode: str) -> Operation:
        gc.collect()
        op_id = len(self.ops)
        before = None
        if mode == PLAIN:
            before = self._calibration or hostspeed.calibrate()
        start = time.perf_counter()
        try:
            if mode != PLAIN:
                with self.tracer.operation(op_id, track_memory=mode == MEMORY) as root:
                    result = fedhire.run_one_shot(case.data, case.config)
                seconds = root.seconds
            else:
                result = fedhire.run_one_shot(case.data, case.config)
                seconds = time.perf_counter() - start
        except Exception as exc:  # a crash is a wrong output, not a benchmark error
            op = Operation(case, time.perf_counter() - start, mode, 0.0, 0.0, 0.0,
                           [f"{type(exc).__name__}: {exc}"], [])
        else:
            op = self._check(case, result, seconds, mode, op_id)
        self._calibration = hostspeed.calibrate() if mode == PLAIN else None
        if before is not None:
            op.calibration = (before + self._calibration) / 2
        self.ops.append(op)
        return op

    def _check(self, case, result, seconds, mode, op_id) -> Operation:
        truth = case.data.labels
        labels = result.object_labels
        wrong = checks.check_labels(result, truth.size, K_STAR)
        wrong += checks.check_hierarchy(result)
        wrong += checks.check_plan(result.plan, truth)
        if any(not np.array_equal(a, b) for a, b in
               zip(result.plan.client_indices, case.plan.client_indices)):
            wrong.append("plan differs from the one the k-FED reference used")
        wrong += checks.check_upload(result, self.workload.d)
        first = self.first_labels.setdefault(case.data_seed, labels)
        if not np.array_equal(first, labels):
            wrong.append(f"seed {case.data_seed} repeated gave different labels")
        layers = None
        if mode != PLAIN:
            (rows,) = [s.attrs["payload_rows"] for s in self.tracer.spans
                       if s.op == op_id and s.name == "server.stack_payloads"]
            layers = spans.layer_metrics(self.tracer, op_id)
            layers["client.upload_values"] = result.communicated_values
            layers["client.raw_rows_uploaded"] = checks.raw_rows_uploaded(rows, case.data.values)
            if not checks.COVERAGE_MIN <= layers["trace.coverage"] <= 1.0:
                wrong.append(f"top-level spans cover {layers['trace.coverage']:.3f} "
                             "of the traced wall time")
        quality = []
        ari = nmi = acc = 0.0
        if not wrong:
            wrong += checks.check_indices(labels, truth, fedhire.metrics)
            ari = reference.ari(labels, truth)
            nmi = reference.nmi(labels, truth)
            acc = fedhire.acc(labels, truth)
            quality = checks.check_quality(ari, case.kfed_ari)
        return Operation(case, seconds, mode, ari, nmi, acc, wrong, quality, layers)


def measure(workload: Workload, cases: list[Case], seconds: float, trace: bool) -> Runner:
    """Whole rounds until the next one would overrun ``seconds``.

    With ``trace`` each case runs untraced and then with spans, and the first
    case of a round runs once more with tracemalloc.
    """
    runner = Runner(workload)
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for index, case in enumerate(cases):
            runner.run(case, PLAIN)
            if trace:
                runner.run(case, SPANS)
                if index == 0:
                    runner.run(case, MEMORY)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return runner


def end_to_end(runner: Runner, setup_s: float) -> dict[str, tuple[float, str]]:
    """``setup_s`` comes scaled to the reference speed. ``run_s`` is the
    mean over the panel of each case's median call time, scaled the same
    way: the cases differ in cost, and a median over all calls would fall
    between them."""
    ops = [op for op in runner.ops if op.mode == PLAIN and not op.wrong]
    scaled: dict[int, list[float]] = {}
    for op in ops:
        scaled.setdefault(op.case.data_seed, []).append(
            hostspeed.at_reference(op.seconds, op.calibration))
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.fmean(statistics.median(times) for times in scaled.values()), "s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "nmi": (statistics.fmean(op.nmi for op in ops), "1"),
        "acc": (statistics.fmean(op.acc for op in ops), "1"),
    }


def _unit(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("coverage", "1")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(runner: Runner) -> dict[str, tuple[float, str]]:
    """Medians over the operations run with spans (allocation peaks over
    those run with tracemalloc); trace.overhead_s is the median extra time
    of a spans run over the untraced run of the same case."""
    def medians(mode, names=None):
        ops = [op for op in runner.ops if op.mode == mode and not op.wrong]
        return {name: (statistics.median(op.layers[name] for op in ops), _unit(name))
                for name in (names or ops[0].layers)}

    out = medians(SPANS)
    out.update(medians(MEMORY, [f"cpl.{side}.peak_alloc_mb" for side in ("client", "server")]))
    plain = {op.case.data_seed: op.seconds for op in runner.ops if op.mode == PLAIN}
    extra = [op.seconds - plain[op.case.data_seed] for op in runner.ops
             if op.mode == SPANS and not op.wrong]
    out["trace.overhead_s"] = (statistics.median(extra), "s")
    plain_ops = [op for op in runner.ops if op.mode == PLAIN and not op.wrong]
    out["host.run_wall_s"] = (statistics.median(op.seconds for op in plain_ops), "s")
    out["host.calibration_s"] = (statistics.median(op.calibration for op in plain_ops), "s")
    return out
