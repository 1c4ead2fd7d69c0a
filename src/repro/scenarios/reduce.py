"""Counterexample clustering: thousands of violating traces, a handful of
root causes.

A transient scenario that breaks one forwarding rule can emit a violation
per injection port per step — the same root cause restated dozens of times.
This module collapses them the SDNRacer way: extract *structural* features
from each violating trace (the ports it crossed, the kinds of element those
ports belong to, which query failed, a short prefix of the violation's
content fingerprint), cluster under Jaccard distance with a DBSCAN-style
density sweep, and rank one representative (the medoid) per cluster.

Everything is deterministic: points are processed in sorted fingerprint
order, neighbours are expanded in sorted order, and ties rank by
fingerprint — the same violations always produce the same clusters, which
is what the seed-pinned scenario tests pin down.  No numpy/sklearn: the
distance matrix is a dict and the sweep is a worklist, which is plenty for
the few hundred violations a scenario campaign emits (``max_points`` caps
the quadratic part deterministically and reports what it dropped).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple


def violation_fingerprint(violation: Mapping[str, object]) -> str:
    """Content identity of one violation record: the query it failed, the
    evidence trace, and the reason — but *not* the step index, so the same
    broken state reappearing at a later step fingerprints identically."""
    payload = {
        "query": str(violation.get("query", "")),
        "query_kind": str(violation.get("query_kind", "")),
        "source": str(violation.get("source", "")),
        "trace": [str(hop) for hop in violation.get("trace", ())],
        "reason": str(violation.get("reason", "")),
        "detected_at": str(violation.get("detected_at", "")),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def trace_features(
    violation: Mapping[str, object],
    element_kinds: Optional[Mapping[str, str]] = None,
) -> FrozenSet[str]:
    """The structural feature set clustering compares.

    Features are deliberately coarse: the violated query *kind* (not its
    full text — an all-pairs batch fails one ``reach`` per source, and
    those should cluster together), the elements and ports the trace
    crossed, the kinds of those elements, where a loop was detected, and a
    2-hex-digit prefix of the content fingerprint as a weak tiebreaker
    that separates genuinely different evidence without shattering
    clusters.
    """
    kinds = element_kinds or {}
    features = {
        f"query-kind:{violation.get('query_kind', '')}",
        f"reason:{violation.get('reason', '')}",
    }
    detected = str(violation.get("detected_at", "") or "")
    if detected:
        features.add(f"detected-at:{detected}")
    trace = [str(hop) for hop in violation.get("trace", ())]
    for hop in trace:
        features.add(f"port:{hop}")
        element = hop.split(":", 1)[0]
        features.add(f"element:{element}")
        kind = kinds.get(element)
        if kind:
            features.add(f"element-kind:{kind}")
    if not trace:
        # Trace-less evidence (a reach query that simply stopped holding):
        # the source port is the only structure there is.
        features.add(f"source:{violation.get('source', '')}")
    fingerprint = str(
        violation.get("fingerprint") or violation_fingerprint(violation)
    )
    features.add(f"fp-prefix:{fingerprint[:2]}")
    return frozenset(features)


def jaccard_distance(a: FrozenSet[str], b: FrozenSet[str]) -> float:
    """1 - |a ∩ b| / |a ∪ b|; two empty sets are identical (distance 0)."""
    if not a and not b:
        return 0.0
    union = len(a | b)
    return 1.0 - len(a & b) / union


@dataclass
class ViolationCluster:
    """One root cause: its member violations and a ranked representative."""

    rank: int
    members: List[Dict[str, object]]
    representative: Dict[str, object]
    noise: bool = False

    @property
    def size(self) -> int:
        return len(self.members)

    def to_dict(self) -> Dict[str, object]:
        steps = sorted({int(m.get("step", 0)) for m in self.members})
        queries = sorted({str(m.get("query", "")) for m in self.members})
        kinds = sorted({str(m.get("query_kind", "")) for m in self.members})
        ports = sorted(
            {str(hop) for m in self.members for hop in m.get("trace", ())}
        )
        return {
            "rank": self.rank,
            "size": self.size,
            "noise": self.noise,
            "steps": steps,
            "query_kinds": kinds,
            "queries": queries,
            "ports": ports,
            "representative": dict(self.representative),
            "fingerprints": sorted(
                {str(m.get("fingerprint", "")) for m in self.members}
            ),
        }


def _dbscan(
    distances: Dict[Tuple[int, int], float],
    count: int,
    eps: float,
    min_points: int,
) -> Tuple[Dict[int, int], List[int]]:
    """Deterministic density sweep over a precomputed distance matrix.

    Returns (point index -> cluster id, noise indices).  Points are visited
    in index order and neighbourhoods expand in index order, so the labels
    depend only on the inputs.
    """

    def neighbours(i: int) -> List[int]:
        out = []
        for j in range(count):
            if i == j:
                continue
            key = (i, j) if i < j else (j, i)
            if distances[key] <= eps:
                out.append(j)
        return out

    labels: Dict[int, int] = {}
    noise: List[int] = []
    next_cluster = 0
    for i in range(count):
        if i in labels:
            continue
        seed = neighbours(i)
        if len(seed) + 1 < min_points:
            noise.append(i)
            continue
        cluster = next_cluster
        next_cluster += 1
        labels[i] = cluster
        worklist = list(seed)
        while worklist:
            j = worklist.pop(0)
            if j in noise:
                noise.remove(j)  # border point adopted by the cluster
                labels[j] = cluster
                continue
            if j in labels:
                continue
            labels[j] = cluster
            reach = neighbours(j)
            if len(reach) + 1 >= min_points:
                worklist.extend(k for k in reach if k not in labels)
    return labels, noise


def _medoid(indices: Sequence[int], distances: Dict[Tuple[int, int], float]) -> int:
    """The member minimising total distance to the rest (ties: lowest
    index, i.e. lowest fingerprint in the pre-sorted point order)."""
    best = indices[0]
    best_cost = None
    for i in indices:
        cost = 0.0
        for j in indices:
            if i == j:
                continue
            key = (i, j) if i < j else (j, i)
            cost += distances[key]
        if best_cost is None or cost < best_cost:
            best, best_cost = i, cost
    return best


def check_cluster_options(eps: float, min_points: int) -> None:
    """Refuse clustering options outside their meaning: ``eps`` is a
    Jaccard distance, so it lies in [0, 1] (a NaN or negative one leaves
    every violation without neighbours, a noise singleton), and a cluster
    needs at least one point."""
    if not 0 <= eps <= 1:
        raise ValueError(f"eps must be a Jaccard distance in [0, 1], not {eps}")
    if min_points < 1:
        raise ValueError(f"min_points must be >= 1, not {min_points}")


def cluster_violations(
    violations: Sequence[Mapping[str, object]],
    element_kinds: Optional[Mapping[str, str]] = None,
    *,
    eps: float = 0.5,
    min_points: int = 2,
    max_points: int = 512,
) -> List[ViolationCluster]:
    """Cluster violation records and rank a representative per cluster.

    Clusters are ranked by size (descending), then by their smallest
    member fingerprint — so the dominant root cause is rank 1 and the
    ordering is stable across runs.  DBSCAN noise points become trailing
    singleton clusters (``noise: true``) rather than vanishing: a
    one-of-a-kind counterexample is a *finding*, not an outlier.

    ``max_points`` bounds the O(n²) distance matrix; beyond it the input
    is truncated *after* sorting (deterministically) and the truncation is
    visible as fewer fingerprints than violations in the report.
    """
    check_cluster_options(eps, min_points)
    if not violations:
        return []
    # Deterministic point order: fingerprint, then step (the fingerprint
    # excludes the step on purpose — see violation_fingerprint).
    records = [dict(v) for v in violations]
    for record in records:
        record.setdefault("fingerprint", violation_fingerprint(record))
    records.sort(key=lambda r: (str(r["fingerprint"]), int(r.get("step", 0))))
    if len(records) > max_points:
        records = records[:max_points]
    # NOTE: the mutation test monkeypatches the module-global
    # ``trace_features``, so this must resolve it dynamically — do not
    # bind it to a local or import it into another namespace.
    feature_sets = [trace_features(r, element_kinds) for r in records]
    count = len(records)
    distances: Dict[Tuple[int, int], float] = {}
    for i in range(count):
        for j in range(i + 1, count):
            distances[(i, j)] = jaccard_distance(feature_sets[i], feature_sets[j])
    labels, noise = _dbscan(distances, count, eps, min_points)
    groups: Dict[int, List[int]] = {}
    for index, cluster in labels.items():
        groups.setdefault(cluster, []).append(index)
    raw: List[Tuple[List[int], bool]] = [
        (sorted(indices), False) for indices in groups.values()
    ]
    raw.extend(([index], True) for index in sorted(noise))
    raw.sort(key=lambda entry: (-len(entry[0]), str(records[entry[0][0]]["fingerprint"])))
    clusters = []
    for rank, (indices, is_noise) in enumerate(raw, start=1):
        representative = records[_medoid(indices, distances)]
        clusters.append(
            ViolationCluster(
                rank=rank,
                members=[records[i] for i in indices],
                representative=representative,
                noise=is_noise,
            )
        )
    return clusters
