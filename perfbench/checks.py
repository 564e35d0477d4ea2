"""Per-operation checks of one ``run_one_shot`` result.

Each check returns a list of failure messages; an empty list means it passed.
The quality check is kept apart, so a known shortfall in clustering quality
can be counted without hiding a wrong output.
"""

from __future__ import annotations

import numpy as np

import reference

# ARI of the program must reach this share of the k-FED reference's ARI on
# the same plan. Every d=4 case passes (the lowest share is 0.34), and a
# collapsed hierarchy, whose ARI is about 0, fails.
QUALITY_FRACTION = 0.15
INDEX_TOLERANCE = 1e-9
# share of a traced operation's wall time its top-level layer spans must cover
COVERAGE_MIN = 0.9
# clients below this many objects are skipped by the program (fedhire.client)
MIN_CLIENT_OBJECTS = 4


def check_labels(result, n: int, k_star: int) -> list[str]:
    out = []
    labels = result.object_labels
    if labels.shape != (n,) or labels.min() < 0 or labels.max() >= k_star:
        out.append(f"object labels outside [0, {k_star}) or of wrong length")
    server = result.global_clustering.server_assignments
    if server.k != k_star or np.unique(server.assignments).size != k_star:
        out.append(f"server partition does not use exactly {k_star} labels")
    return out


def check_hierarchy(result) -> list[str]:
    ks = list(result.hierarchy_ks)
    if not ks or min(ks) < 2 or any(a <= b for a, b in zip(ks, ks[1:])):
        return [f"hierarchy levels {ks} are not strictly decreasing and >= 2"]
    return []


def check_plan(plan, truth: np.ndarray) -> list[str]:
    out = []
    flat = np.concatenate(plan.client_indices)
    if flat.size != truth.size or not np.array_equal(np.sort(flat), np.arange(truth.size)):
        out.append("client lists are not disjoint or do not cover every object")
    for fragment in plan.provenance:
        members = np.asarray(fragment["object_indices"], dtype=np.int64)
        if not np.all(truth[members] == fragment["cluster_label"]):
            out.append(f"fragment {fragment['fragment']} of class "
                       f"{fragment['cluster_label']} mixes true classes")
        if not np.isin(members, plan.client_indices[fragment["client_id"]]).all():
            out.append("a fragment lies outside its client's list")
    return out


def check_upload(result, d: int) -> list[str]:
    out = []
    participating = sum(ix.size >= MIN_CLIENT_OBJECTS for ix in result.plan.client_indices)
    if result.payload_count != participating or len(result.client_ks) != participating:
        out.append(f"{result.payload_count} payloads for {participating} participating clients")
    expected = sum(result.client_ks.values()) * d
    if result.communicated_values != expected:
        out.append(f"communicated_values {result.communicated_values} != sum(k) * d = {expected}")
    return out


def check_indices(labels: np.ndarray, truth: np.ndarray, fedhire_metrics) -> list[str]:
    """The program's ARI and NMI against the benchmark's own."""
    out = []
    for name in ("ari", "nmi"):
        ours = getattr(reference, name)(labels, truth)
        theirs = getattr(fedhire_metrics, name)(labels, truth)
        if abs(ours - theirs) > INDEX_TOLERANCE:
            out.append(f"{name}: fedhire {theirs!r} vs reference {ours!r}")
    return out


def raw_rows_uploaded(payload_rows: np.ndarray, values: np.ndarray) -> int:
    """How many uploaded centroid rows equal a raw data row exactly.

    The program promises none, but a clusterlet with a single member uploads
    that member's row. It is reported as a count rather than failing the
    operation, so the failure counts keep tracking one fault.
    """
    raw = {row.tobytes() for row in np.ascontiguousarray(values)}
    return sum(row.tobytes() in raw for row in np.ascontiguousarray(payload_rows))


def check_quality(ari: float, kfed_ari: float) -> list[str]:
    if ari < QUALITY_FRACTION * kfed_ari:
        return [f"ARI {ari:.3f} is below {QUALITY_FRACTION} x k-FED ARI {kfed_ari:.3f}"]
    return []
