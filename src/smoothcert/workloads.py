"""Deterministic synthetic workloads for end-to-end certification runs."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .certify import ThreatModel
from .classifiers import LinearClassifier, LinearClassifierSpec, RngSpec
from .numerics import DomainError, std_normal_quantile
from .pipeline import PointTask

__all__ = ["make_linear_workload", "WORKLOAD_STREAM"]

# stream id reserved for workload construction; a point's hashed stream id
# equals it with probability 2^-64
WORKLOAD_STREAM = 0xFFFF_FFFF


def make_linear_workload(
    dim: int,
    count: int,
    seed: int,
    sigma: float,
    threats: Sequence[ThreatModel],
    subspace_mask: Optional[Sequence[int]] = None,
    q_low: float = 0.55,
    q_high: float = 0.995,
    abstain_fraction: float = 0.05,
    mislabel_fraction: float = 0.1,
) -> tuple[LinearClassifier, list[PointTask]]:
    """Random linear classifier plus points spread over target probabilities.

    Points sit along the weight direction at margins chosen so the smoothed
    top-class probability sweeps [q_low, q_high]; a leading fraction sits
    near the boundary (abstain region) and a fraction carries flipped labels
    so the accuracy curves are nontrivial.  Fully determined by the seed.
    """
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    if not (0.5 < q_low < q_high < 1.0):
        raise DomainError("need 0.5 < q_low < q_high < 1")
    gen = RngSpec(seed, WORKLOAD_STREAM).generator()
    w = gen.standard_normal(dim)
    spec = LinearClassifierSpec(w=w, b=0.0)
    classifier = LinearClassifier(spec)
    w_norm = float(np.linalg.norm(w))

    n_abstain = int(round(abstain_fraction * count))
    n_cert = count - n_abstain
    q_targets = np.concatenate([
        np.linspace(0.30, 0.50, n_abstain, endpoint=False) if n_abstain else [],
        np.linspace(q_low, q_high, n_cert) if n_cert else [],
    ])
    sides = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
    mislabeled = gen.random(count) < mislabel_fraction

    threats = tuple(ThreatModel(t) for t in threats)
    tasks: list[PointTask] = []
    for i in range(count):
        q = float(q_targets[i])
        margin = sigma * w_norm * std_normal_quantile(q)
        x = sides[i] * margin * w / (w_norm * w_norm)
        base_label = classifier.classify(x)
        label = 1 - base_label if mislabeled[i] else base_label
        tasks.append(PointTask(
            point_id=f"p{i:04d}",
            x=x,
            true_label=int(label),
            requested_threats=threats,
            subspace_mask=tuple(subspace_mask) if subspace_mask is not None else None,
        ))
    return classifier, tasks
