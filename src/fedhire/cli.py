"""Command-line front end: dataset ingestion and experiment runs.

Subcommands: ``partition`` (emit a fragmentation plan), ``run`` (one-shot
experiments with repeats and metric aggregation), ``inspect`` (pretty-print
a JSON artifact). The FED_HIRE_LOG environment variable (error|info|debug)
controls verbosity. ``perfbench/`` is the project's benchmark.
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
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .core import DataMatrix
from .federation import FederationConfig, fragment_partition, run_one_shot
from .metrics import acc, ari, nmi, purity

logger = logging.getLogger(__name__)


class CliError(RuntimeError):
    """User-facing failure; rendered as an error JSON with a nonzero exit."""


def _text(value) -> str:
    """A string setting: a flag's text or a spec-file string, nothing else."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _label(value) -> str | int:
    """The label column: a name, or an index that is not a boolean."""
    return _integer(value) if isinstance(value, int) else _text(value)


def _integer(value) -> int:
    """An int setting from a flag's text or a spec-file value.

    A spec-file value must be a JSON integer or a string that ``int()``
    parses, as a flag would be; a float or a boolean is refused, not
    truncated.
    """
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """A float setting from a flag's text or a spec-file value.

    A spec-file value must be a JSON number or a string that ``float()``
    parses, as a flag would be; a boolean is refused, not read as 0 or 1.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _fragments(value) -> int | str:
    return value if value == "auto" else _integer(value)


def _setting(key, default=MISSING, parse=_text, config=None, run_only=False,
             recorded=True, help=None):
    """One row of the CLI's field table: an ExperimentSpec attribute.

    ``key`` names the setting in a spec file and, with dashes, as a flag;
    ``parse`` turns a flag or spec-file value into the attribute; ``config``
    is the FederationConfig field it sets. ``run_only`` settings are not flags
    of ``partition``. Settings that are not ``recorded`` (output paths) stay
    out of the results' ``spec`` block.
    """
    meta = dict(key=key, parse=parse, config=config, run_only=run_only,
                recorded=recorded, help=help)
    return field(default=default, metadata=meta)


@dataclass(kw_only=True)
class ExperimentSpec:
    """One experiment: dataset, federation knobs, repeats, output paths.

    The class body is the field table that flags, spec-file keys and the
    FederationConfig of each repeat are built from. Attribute names are the
    names the results' ``spec`` block records; defaults shared with
    FederationConfig are read from it.
    """

    data: str = _setting("data", help="CSV dataset path")
    label_column: str | int | None = _setting(
        "labels", None, _label, help="label column (name or index)"
    )
    clients: int = _setting("clients", 8, _integer, config="client_count")
    k_star: int = _setting("k_star", parse=_integer, config="k_star")
    eta: float = _setting("eta", FederationConfig.eta, _real, config="eta")
    k0_fraction: float = _setting(
        "k0_fraction", FederationConfig.k0_fraction, _real, config="k0_fraction"
    )
    fragments_per_cluster: int | str = _setting(
        "fragments", FederationConfig.fragments_per_cluster, _fragments,
        config="fragments_per_cluster", help="fragments per cluster (int or 'auto')",
    )
    repeats: int = _setting("repeats", 1, _integer, run_only=True)
    seed: int = _setting("seed", FederationConfig.seed, _integer)
    out: str = _setting("out", "results.json", run_only=True, recorded=False)
    report: str | None = _setting(
        "report", None, run_only=True, recorded=False,
        help="also write the last run's hierarchy/partition report JSON here",
    )

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")


FIELDS = fields(ExperimentSpec)


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


def _federation_config(spec: ExperimentSpec, seed: int) -> FederationConfig:
    """The FederationConfig of one run of ``spec`` with ``seed``."""
    values = {
        f.metadata["config"]: getattr(spec, f.name)
        for f in FIELDS
        if f.metadata["config"]
    }
    return FederationConfig(seed=seed, **values)


def _resolve_spec(
    flags: argparse.Namespace, spec_path: str | None = None
) -> ExperimentSpec:
    """Build the ExperimentSpec of a command line.

    Each setting takes its spec-file value, else a flag given on the command
    line, else its default. Flags default to ``argparse.SUPPRESS``, so
    ``flags`` holds only the ones given. A spec-file key outside the field
    table is an error, as is a ``null`` where the default is not ``None``.
    """
    from_file = {}
    if spec_path:
        with open(spec_path) as fh:
            from_file = json.load(fh)
        if not isinstance(from_file, dict):
            raise CliError(f"spec file {spec_path} must hold a JSON object")
        unknown = sorted(set(from_file) - {f.metadata["key"] for f in FIELDS})
        if unknown:
            raise CliError(
                f"spec file {spec_path} has unknown key(s) {', '.join(unknown)}"
            )
    given = vars(flags)
    values = {}
    for f in FIELDS:
        key = f.metadata["key"]
        if key in from_file:
            raw = from_file[key]
            nullable = raw is None and f.default is None
            try:
                values[f.name] = None if nullable else f.metadata["parse"](raw)
            except (TypeError, ValueError) as exc:
                raise CliError(f"spec file {spec_path}: {key}: {exc}") from None
        elif key in given:
            values[f.name] = given[key]
    missing = [
        f.metadata["key"] for f in FIELDS if f.name not in values and f.default is MISSING
    ]
    if missing:
        raise CliError(
            f"missing required setting(s) {', '.join(missing)}: "
            "give them in the spec file or as flags"
        )
    return ExperimentSpec(**values)


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
    data = load_csv(spec.data, spec.label_column)
    if data.labels is None:
        raise CliError("the run protocol needs a label column for fragmentation")
    runs = []
    for r in range(spec.repeats):
        seed = spec.seed + r
        result = run_one_shot(data, _federation_config(spec, seed))
        if spec.report and r == spec.repeats - 1:
            with open(spec.report, "w") as fh:
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
            f.name: getattr(spec, f.name) for f in FIELDS if f.metadata["recorded"]
        },
        "runs": runs,
        "aggregate": aggregate,
    }
    results["determinism_hash"] = determinism_hash(results)
    return results


def _add_setting_flags(parser: argparse.ArgumentParser, partition: bool) -> None:
    for f in FIELDS:
        meta = f.metadata
        if partition and meta["run_only"]:
            continue
        parser.add_argument(
            "--" + meta["key"].replace("_", "-"),
            type=meta["parse"],
            default=argparse.SUPPRESS,
            required=partition and f.default is MISSING,
            help=meta["help"],
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fed-hire", description="one-shot hierarchical federated clustering"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partition", help="emit a fragmentation plan as JSON")
    _add_setting_flags(p_part, partition=True)
    p_part.add_argument("--out", default="plan.json")

    p_run = sub.add_parser("run", help="run one-shot experiments with repeats")
    p_run.add_argument(
        "--spec", default=None,
        help="experiment spec JSON file; its keys are the flag names with "
        "underscores for dashes, and any other key is an error. Each setting "
        "takes the spec-file value, else the flag given here, else its default",
    )
    _add_setting_flags(p_run, partition=False)

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
            spec = _resolve_spec(args)
            data = load_csv(spec.data, spec.label_column)
            plan = fragment_partition(data, _federation_config(spec, spec.seed))
            with open(args.out, "w") as fh:
                fh.write(plan.to_json())
            print(args.out)
        elif args.command == "run":
            spec = _resolve_spec(args, args.spec)
            results = cmd_run(spec)
            with open(spec.out, "w") as fh:
                json.dump(results, fh, indent=2)
            for index, stats in results["aggregate"].items():
                print(f"{index}: {stats['mean']:.3f}±{stats['std']:.2f}")
            print(spec.out)
        elif args.command == "inspect":
            with open(args.path) as fh:
                print(json.dumps(json.load(fh), indent=2))
    except Exception as exc:  # noqa: BLE001 - route everything to the error stream
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
