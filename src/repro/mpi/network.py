"""Interconnect cost model.

Marconi-100 connects nodes with Mellanox InfiniBand EDR (100 Gb/s) in a
DragonFly+ topology; inside a node, GPUs share NVLink-class bandwidth. A
point-to-point transfer of ``n`` bytes costs ``software_overhead + latency +
n / bandwidth`` with the latency/bandwidth pair picked by locality. The
DragonFly+ structure is abstracted into a single additional hop latency for
inter-group messages (groups of ``nodes_per_group`` nodes).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ValidationError


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth interconnect parameters (seconds, bytes/s)."""

    intra_node_latency_s: float = 2.0e-6
    intra_node_bandwidth: float = 50.0e9  # NVLink-class
    inter_node_latency_s: float = 1.5e-6
    inter_node_bandwidth: float = 12.5e9  # EDR: 100 Gb/s
    inter_group_extra_latency_s: float = 1.0e-6  # extra DragonFly+ hop
    software_overhead_s: float = 5.0e-6  # MPI stack per message
    nodes_per_group: int = 18

    def __post_init__(self) -> None:
        if min(
            self.intra_node_latency_s,
            self.inter_node_latency_s,
            self.inter_group_extra_latency_s,
            self.software_overhead_s,
        ) < 0:
            raise ValidationError("latencies cannot be negative")
        if self.intra_node_bandwidth <= 0 or self.inter_node_bandwidth <= 0:
            raise ValidationError("bandwidths must be positive")
        if self.nodes_per_group < 1:
            raise ValidationError(
                f"nodes_per_group must be >= 1 ({self.nodes_per_group!r})"
            )

    def transfer_time(self, nbytes: float, node_a: int, node_b: int) -> float:
        """Cost (s) of moving ``nbytes`` between two ranks' nodes."""
        if nbytes < 0:
            raise ValidationError(f"message size cannot be negative ({nbytes!r})")
        if node_a == node_b:
            latency = self.intra_node_latency_s
            bandwidth = self.intra_node_bandwidth
        else:
            latency = self.inter_node_latency_s
            bandwidth = self.inter_node_bandwidth
            if node_a // self.nodes_per_group != node_b // self.nodes_per_group:
                latency += self.inter_group_extra_latency_s
        return self.software_overhead_s + latency + nbytes / bandwidth

    def transfer_times(self, nbytes: float, node_a, node_b) -> np.ndarray:
        """:meth:`transfer_time` of ``nbytes`` over each pair of node arrays.

        A cost depends only on the link class — same node, same group or
        cross group — so each class present costs one scalar
        :meth:`transfer_time` call, and every element equals the scalar
        call for its pair bitwise.
        """
        a = np.asarray(node_a, dtype=np.int64)
        b = np.asarray(node_b, dtype=np.int64)
        group = self.nodes_per_group
        link = np.where(a == b, 0, np.where(a // group == b // group, 1, 2))
        out = np.empty(link.shape)
        for cls in range(3):
            members = link == cls
            if members.any():
                i = int(np.argmax(members))
                out[members] = self.transfer_time(
                    nbytes, int(a.flat[i]), int(b.flat[i])
                )
        return out

    def allreduce_time(self, nbytes: float, node_ids: Sequence[int]) -> float:
        """Cost (s) of a ring-style allreduce over ranks on ``node_ids``.

        Standard ring model: ``2·(p−1)/p`` of the payload crosses the
        slowest link, plus a latency term per ring step.
        """
        p = len(node_ids)
        if p <= 1:
            return 0.0
        ring = np.asarray(node_ids, dtype=np.int64)
        steps = self.transfer_times(nbytes / p, ring, np.roll(ring, -1))
        worst_step = float(steps.max())
        return 2.0 * (p - 1) * worst_step
