"""Cluster topology: node descriptors and the placement hash.

Placement must satisfy two pulls that fight each other:

* **Affinity** — a repeat submission of the same point set should land on
  the node whose cache tiers (memory and disk) are already warm for it.
  Content fingerprints make that trivial *if* placement is a pure
  function of the fingerprint, which is what weighted rendezvous
  (highest-random-weight) hashing provides: ``node_for(points_fp)``
  depends only on the fingerprint and the node set, never on request
  order or process identity.
* **Stability under churn** — adding or removing a node must move as few
  fingerprints as possible (each moved key is a cold cache somewhere).
  Each node scores each key independently, so a new node takes only the
  keys it now outscores everyone on (about ``1/N`` of the key space) and
  a removed node's keys go to their next-best scorers; a modulo scheme
  would reshuffle nearly everything.

The same scores give the **failover order** beyond the primary: the
nodes ranked by descending score.  A dead node's keys therefore spread
evenly across the survivors instead of all falling to one neighbour.

All hashing is SHA-256-based and deliberately independent of Python's
randomized ``hash()``, so placement agrees across processes, restarts and
machines — the same property the content fingerprints themselves have.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import InvalidInputError


def stable_hash(text: str) -> int:
    """A 64-bit integer hash that is stable across processes and runs.

    SHA-256-based (truncated), unlike builtin ``hash()`` whose per-process
    randomization would make every restart a full reshuffle.
    """
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class Node:
    """One ``repro.service`` node the router can dispatch to.

    ``name`` identifies the node in routing decisions, stats and the
    ``X-Repro-Node`` header; it must be stable across node restarts for
    placement to be (placement hashes names, not sockets).  ``weight``
    scales the share of the key space the node owns (2.0 = twice the
    keys).  Health state is the router's *local* view — marked down on
    connection errors, timeouts or 5xx responses, up again on any HTTP
    answer — and never removes the node from placement: a flapping node
    keeps its keys, it just gets skipped while down.
    """

    base_url: str
    name: Optional[str] = None
    weight: float = 1.0
    healthy: bool = True
    failures: int = 0
    successes: int = 0
    last_error: Optional[str] = None
    #: ``time.monotonic()`` of the latest failure; lets the router re-probe
    #: a down node after a cool-off instead of shunning it forever.
    last_failure_at: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def __post_init__(self) -> None:
        self.base_url = self.base_url.rstrip("/")
        if not self.base_url.startswith(("http://", "https://")):
            raise InvalidInputError(
                f"node URL must be http(s)://, got {self.base_url!r}")
        if self.name is None:
            # host:port is the natural default identity (matches what the
            # node itself reports when started without --name).
            self.name = self.base_url.split("://", 1)[1]
        if "@" in self.name:
            # "@" separates the upstream job id from the node name in
            # routed job ids; a name containing it would be unparseable.
            raise InvalidInputError(
                f"node name must not contain '@': {self.name!r}")
        if not (self.weight > 0 and math.isfinite(self.weight)):
            raise InvalidInputError(
                f"node weight must be positive and finite, "
                f"got {self.weight!r}")

    def mark_up(self) -> None:
        with self._lock:
            self.healthy = True
            self.successes += 1
            self.last_error = None

    def mark_down(self, error: str) -> None:
        with self._lock:
            self.healthy = False
            self.failures += 1
            self.last_error = error
            self.last_failure_at = time.monotonic()

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe descriptor for stats/health documents."""
        with self._lock:
            return {
                "name": self.name,
                "base_url": self.base_url,
                "weight": self.weight,
                "healthy": self.healthy,
                "failures": self.failures,
                "successes": self.successes,
                "last_error": self.last_error,
            }


class HashRing:
    """Weighted rendezvous placement with failover order.

    Every node scores every key (:meth:`_rendezvous_score`);
    :meth:`preference` ranks the nodes by descending score, so the
    primary owner is the top scorer and a downed primary's keys spread
    across all survivors by their own scores.

    All methods are thread-safe.
    """

    def __init__(self, nodes: Optional[List[Node]] = None) -> None:
        self._nodes: Dict[str, Node] = {}
        self._lock = threading.Lock()
        for node in nodes or []:
            self.add(node)

    def __len__(self) -> int:
        with self._lock:
            return len(self._nodes)

    @property
    def nodes(self) -> List[Node]:
        """The member nodes (stable name order)."""
        with self._lock:
            return [self._nodes[name] for name in sorted(self._nodes)]

    def get(self, name: str) -> Optional[Node]:
        with self._lock:
            return self._nodes.get(name)

    def add(self, node: Node) -> None:
        """Add a node (its share of keys moves from the others to it)."""
        with self._lock:
            if node.name in self._nodes:
                raise InvalidInputError(
                    f"duplicate node name {node.name!r}")
            self._nodes[node.name] = node

    def remove(self, name: str) -> Node:
        """Remove a node by name; its keys redistribute to the rest."""
        with self._lock:
            node = self._nodes.pop(name, None)
            if node is None:
                raise InvalidInputError(f"unknown node {name!r}")
            return node

    def node_for(self, key: str) -> Node:
        """The primary owner of ``key`` (health is not consulted here —
        failover is the :meth:`preference` caller's concern)."""
        return self.preference(key)[0]

    def preference(self, key: str) -> List[Node]:
        """All nodes in failover order for ``key``: descending weighted
        rendezvous score."""
        with self._lock:
            if not self._nodes:
                raise InvalidInputError("hash ring has no nodes")
            return sorted(self._nodes.values(),
                          key=lambda n: self._rendezvous_score(key, n),
                          reverse=True)

    def homes(self, key: str, k: int = 1, *,
              healthy_only: bool = True) -> List[Node]:
        """The ``k`` home nodes of ``key``: its replica set.

        The first ``k`` entries of :meth:`preference` — the primary plus
        the ``k-1`` next-best scorers — so the replica set is a pure
        function of ``(key, node set)``, moves minimally under churn
        (rendezvous ranks are per-node independent), and the failover
        order *is* the replica order: on primary death, reads land
        exactly on the nearest surviving home.

        ``healthy_only`` (the default) skips down nodes, so write-through
        targets the nodes that can actually take the copy; pass ``False``
        for the pure placement function (rebalance planning).  Returns
        fewer than ``k`` nodes when the (healthy) membership is smaller.
        """
        if k < 1:
            raise InvalidInputError(f"k must be >= 1, got {k}")
        order = self.preference(key)
        if healthy_only:
            order = [node for node in order if node.healthy]
        return order[:k]

    @staticmethod
    def _rendezvous_score(key: str, node: Node) -> float:
        """Weighted highest-random-weight score of (key, node).

        The standard logarithmic form: with ``u`` uniform in (0, 1) from
        the hash, ``-weight / ln(u)`` gives each node a probability of
        winning proportional to its weight.
        """
        u = (stable_hash(f"{key}|{node.name}") + 0.5) / 2.0**64
        return -node.weight / math.log(u)

    def key_share(self) -> Dict[str, float]:
        """The fraction of the key space each node owns as primary.

        Exact, with no probe keys: under the ``-weight / ln(u)`` score a
        node outscores the rest with probability its weight over the
        total weight (see :meth:`_rendezvous_score`).
        """
        with self._lock:
            total = sum(node.weight for node in self._nodes.values())
            return {name: node.weight / total
                    for name, node in self._nodes.items()}
