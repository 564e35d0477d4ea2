"""Command-line front end: dataset ingestion, experiment runs, benchmarks.

Subcommands: ``partition`` (emit a fragmentation plan), ``run`` (one-shot
experiments with repeats and metric aggregation), ``bench`` (scaling table
over synthetic data), ``inspect`` (pretty-print a JSON artifact). The
FED_HIRE_LOG environment variable (error|info|debug) controls verbosity.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .core import DataMatrix
from .federation import FederationConfig, fragment_partition, run_one_shot
from .metrics import acc, ari, nmi, purity
from .synth import gaussian_mixture

logger = logging.getLogger(__name__)

BENCH_K0_ABSOLUTE = 64
BENCH_CLUSTERS = 8


class CliError(RuntimeError):
    """User-facing failure; rendered as an error JSON with a nonzero exit."""


@dataclass
class ExperimentSpec:
    """One experiment: dataset, federation knobs, repeats, output path."""

    data_path: str
    label_column: str | int | None
    clients: int
    k_star: int
    eta: float = 0.05
    k0_fraction: float = 0.5
    fragments_per_cluster: int | str = "auto"
    repeats: int = 1
    seed: int = 0
    out_path: str = "results.json"
    report_path: str | None = None

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")


def _parse_cell(text: str, row: int, col: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CliError(
            f"non-numeric cell {text!r} at row {row}, column {col}"
        ) from None
    if not math.isfinite(value):
        raise CliError(f"non-finite cell {text!r} at row {row}, column {col}")
    return value


def load_csv(path: str, label_column: str | int | None = None) -> DataMatrix:
    """Read a CSV into a DataMatrix, min-max normalizing features to [0, 1].

    The first row is treated as a header when any of its cells is
    non-numeric. ``label_column`` selects the ground-truth column by header
    name or 0-based index; label values are factorized to 0..k-1.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise CliError(f"{path} is empty")

    header: list[str] | None = None
    first = rows[0]

    def _numeric(cell: str) -> bool:
        try:
            float(cell)
            return True
        except ValueError:
            return False

    if not all(_numeric(c) for c in first):
        header = [c.strip() for c in first]
        rows = rows[1:]
        if not rows:
            raise CliError(f"{path} has a header but no data rows")

    width = len(rows[0])
    label_idx: int | None = None
    if label_column is not None:
        if isinstance(label_column, int) or str(label_column).lstrip("-").isdigit():
            label_idx = int(label_column)
            if not 0 <= label_idx < width:
                raise CliError(f"label column index {label_idx} out of range")
        else:
            if header is None:
                raise CliError("label column by name requires a header row")
            try:
                label_idx = header.index(str(label_column))
            except ValueError:
                raise CliError(
                    f"label column {label_column!r} not in header {header}"
                ) from None

    features = []
    raw_labels = []
    for r, row in enumerate(rows):
        if len(row) != width:
            raise CliError(f"row {r} has {len(row)} cells, expected {width}")
        feat = [
            _parse_cell(cell, r, c)
            for c, cell in enumerate(row)
            if c != label_idx
        ]
        features.append(feat)
        if label_idx is not None:
            raw_labels.append(row[label_idx].strip())

    labels = None
    if label_idx is not None:
        _, labels = np.unique(raw_labels, return_inverse=True)
    return DataMatrix.ingest(np.asarray(features, dtype=np.float64), labels)


def _config_for(spec: ExperimentSpec, seed: int) -> FederationConfig:
    return FederationConfig(
        client_count=spec.clients,
        k_star=spec.k_star,
        eta=spec.eta,
        k0_fraction=spec.k0_fraction,
        seed=seed,
        fragments_per_cluster=spec.fragments_per_cluster,
    )


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def determinism_hash(results: dict) -> str:
    """SHA-256 of the results with all timing fields removed."""
    canonical = json.dumps(_strip_timings(results), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def cmd_run(spec: ExperimentSpec) -> dict:
    """Run the experiment ``repeats`` times (seeds seed..seed+r-1) and
    aggregate the four validity indices."""
    data = load_csv(spec.data_path, spec.label_column)
    if data.labels is None:
        raise CliError("the run protocol needs a label column for fragmentation")
    runs = []
    for r in range(spec.repeats):
        seed = spec.seed + r
        result = run_one_shot(data, _config_for(spec, seed))
        if spec.report_path and r == spec.repeats - 1:
            with open(spec.report_path, "w") as fh:
                fh.write(result.report_json())
        mask = result.object_labels >= 0
        predicted = result.object_labels[mask]
        truth = data.labels[mask]
        runs.append(
            {
                "seed": seed,
                "purity": purity(predicted, truth),
                "ari": ari(predicted, truth),
                "nmi": nmi(predicted, truth),
                "acc": acc(predicted, truth),
                "hierarchy_ks": result.hierarchy_ks,
                "client_ks": {str(c): k for c, k in sorted(result.client_ks.items())},
                "payload_count": result.payload_count,
                "communicated_values": result.communicated_values,
                "skipped_clients": result.skipped_clients,
                "unassigned": result.unassigned_count,
                "timings": {k: round(v, 6) for k, v in result.timings.items()},
            }
        )
    aggregate = {}
    for index in ("purity", "ari", "nmi", "acc"):
        values = np.array([run[index] for run in runs], dtype=np.float64)
        std = float(values.std(ddof=1)) if values.size > 1 else 0.0
        aggregate[index] = {"mean": float(values.mean()), "std": std}
    results = {
        "spec": {
            "data": spec.data_path,
            "label_column": spec.label_column,
            "clients": spec.clients,
            "k_star": spec.k_star,
            "eta": spec.eta,
            "k0_fraction": spec.k0_fraction,
            "fragments_per_cluster": spec.fragments_per_cluster,
            "repeats": spec.repeats,
            "seed": spec.seed,
        },
        "runs": runs,
        "aggregate": aggregate,
    }
    results["determinism_hash"] = determinism_hash(results)
    return results


def cmd_bench(
    sizes: list[int],
    dims: list[int],
    clients: int = 8,
    seed: int = 0,
    eta: float = 0.05,
) -> list[tuple[int, int, float]]:
    """Wall-clock sweep over dataset size (at the first dim) and dimension
    (at the first size) on synthetic Gaussian mixtures.

    The initial clusterlet count is fixed at an absolute 64 per client so
    timing growth reflects data scale rather than a size-coupled k0.
    """
    cases: list[tuple[int, int]] = []
    if sizes and dims:
        cases.extend((n, dims[0]) for n in sizes)
        cases.extend((sizes[0], d) for d in dims if (sizes[0], d) not in cases)
    table = []
    for n, d in cases:
        data = gaussian_mixture(n, d, BENCH_CLUSTERS, seed=seed)
        config = FederationConfig(
            client_count=clients,
            k_star=BENCH_CLUSTERS,
            eta=eta,
            seed=seed,
            k0_absolute=BENCH_K0_ABSOLUTE,
        )
        start = time.perf_counter()
        run_one_shot(data, config)
        table.append((n, d, time.perf_counter() - start))
    return table


def _emit_error(exc: Exception) -> None:
    print(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}),
        file=sys.stderr,
    )


def _add_run_flags(parser: argparse.ArgumentParser, data_required: bool = True) -> None:
    parser.add_argument("--data", required=data_required, help="CSV dataset path")
    parser.add_argument("--labels", default=None, help="label column (name or index)")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--k-star", type=int, required=data_required)
    parser.add_argument("--eta", type=float, default=0.05)
    parser.add_argument("--k0-fraction", type=float, default=0.5)
    parser.add_argument(
        "--fragments", default="auto", help="fragments per cluster (int or 'auto')"
    )
    parser.add_argument("--seed", type=int, default=0)


def _spec_from_file(path: str, out_path: str, report_path: str | None) -> ExperimentSpec:
    with open(path) as fh:
        obj = json.load(fh)
    try:
        return ExperimentSpec(
            data_path=obj["data"],
            label_column=obj.get("labels"),
            clients=int(obj.get("clients", 8)),
            k_star=int(obj["k_star"]),
            eta=float(obj.get("eta", 0.05)),
            k0_fraction=float(obj.get("k0_fraction", 0.5)),
            fragments_per_cluster=obj.get("fragments", "auto"),
            repeats=int(obj.get("repeats", 1)),
            seed=int(obj.get("seed", 0)),
            out_path=obj.get("out", out_path),
            report_path=obj.get("report", report_path),
        )
    except KeyError as exc:
        raise CliError(f"spec file {path} is missing required field {exc}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fed-hire", description="one-shot hierarchical federated clustering"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partition", help="emit a fragmentation plan as JSON")
    _add_run_flags(p_part)
    p_part.add_argument("--out", default="plan.json")

    p_run = sub.add_parser("run", help="run one-shot experiments with repeats")
    p_run.add_argument(
        "--spec", default=None,
        help="experiment spec JSON file (field names match the flags); "
        "overrides the individual flags",
    )
    _add_run_flags(p_run, data_required=False)
    p_run.add_argument("--repeats", type=int, default=1)
    p_run.add_argument("--out", default="results.json")
    p_run.add_argument(
        "--report", default=None,
        help="also write the last run's hierarchy/partition report JSON here",
    )

    p_bench = sub.add_parser("bench", help="wall-clock scaling table (CSV)")
    p_bench.add_argument("--sizes", default="", help="comma-separated object counts")
    p_bench.add_argument("--dims", default="", help="comma-separated feature counts")
    p_bench.add_argument("--clients", type=int, default=8)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default="bench.csv")

    p_inspect = sub.add_parser("inspect", help="pretty-print a JSON artifact")
    p_inspect.add_argument("path")

    args = parser.parse_args(argv)

    level = os.environ.get("FED_HIRE_LOG", "error").lower()
    logging.basicConfig(
        level={"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
            level, logging.ERROR
        )
    )

    try:
        if args.command == "partition":
            data = load_csv(args.data, args.labels)
            fragments = args.fragments if args.fragments == "auto" else int(args.fragments)
            config = FederationConfig(
                client_count=args.clients,
                k_star=args.k_star,
                eta=args.eta,
                k0_fraction=args.k0_fraction,
                seed=args.seed,
                fragments_per_cluster=fragments,
            )
            plan = fragment_partition(data, config)
            with open(args.out, "w") as fh:
                fh.write(plan.to_json())
            print(args.out)
        elif args.command == "run":
            if args.spec:
                spec = _spec_from_file(args.spec, args.out, args.report)
            else:
                if args.data is None or args.k_star is None:
                    raise CliError("run needs either --spec or --data and --k-star")
                fragments = args.fragments if args.fragments == "auto" else int(args.fragments)
                spec = ExperimentSpec(
                    data_path=args.data,
                    label_column=args.labels,
                    clients=args.clients,
                    k_star=args.k_star,
                    eta=args.eta,
                    k0_fraction=args.k0_fraction,
                    fragments_per_cluster=fragments,
                    repeats=args.repeats,
                    seed=args.seed,
                    out_path=args.out,
                    report_path=args.report,
                )
            results = cmd_run(spec)
            with open(spec.out_path, "w") as fh:
                json.dump(results, fh, indent=2)
            agg = results["aggregate"]
            for index in ("purity", "ari", "nmi", "acc"):
                stats = agg[index]
                print(f"{index}: {stats['mean']:.3f}±{stats['std']:.2f}")
            print(spec.out_path)
        elif args.command == "bench":
            sizes = [int(s) for s in args.sizes.split(",") if s]
            dims = [int(d) for d in args.dims.split(",") if d]
            table = cmd_bench(sizes, dims, clients=args.clients, seed=args.seed)
            with open(args.out, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["n", "d", "wall_seconds"])
                for n, d, secs in table:
                    writer.writerow([n, d, f"{secs:.4f}"])
            print(args.out)
        elif args.command == "inspect":
            with open(args.path) as fh:
                print(json.dumps(json.load(fh), indent=2))
    except Exception as exc:  # noqa: BLE001 - route everything to the error stream
        _emit_error(exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
