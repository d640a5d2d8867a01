"""Multi-node job dispatch over shared content-addressed stores.

The paper's amortization ladder, one more rung up: PR 1 amortized
``T_tree`` across requests (in-memory tiers), PR 3 across process
lifetimes (the persistent store), and this package amortizes it across
**machines** — a router shards jobs over N ``repro.service`` nodes by the
content fingerprint of their point sets, so every point set has a home
node whose BVH / core-distance / result tiers stay warm for it, and the
fleet's aggregate cache is the sum of its nodes' instead of N copies of
one working set.

Layers
------
``repro.cluster.topology``  ``Node`` descriptors + weighted rendezvous
                            placement, whose score order is also the
                            failover order
``repro.cluster.router``    ``ClusterRouter`` — validate/fingerprint
                            locally, route by placement, fail over at
                            most once, recover lost jobs by resubmission,
                            aggregate fleet stats; one node-health policy
                            for every call to a node
``repro.cluster.server``    the router's own HTTP front end (same API as
                            a node — clients can't tell them apart)
``repro.cluster.rebalance`` re-home stored artifacts after a membership
                            change

Every call to a node goes through :class:`repro.client.Client`, the one
blocking client of the ``/v1`` API.

Example
-------
>>> from repro.cluster import ClusterRouter, Node          # doctest: +SKIP
>>> router = ClusterRouter([Node("http://10.0.0.1:8321"),  # doctest: +SKIP
...                         Node("http://10.0.0.2:8321")])
>>> router.submit({"dataset": "Uniform100M2:100000"})      # doctest: +SKIP
{'job_id': 'job-000001', 'status': 'pending', 'node': '10.0.0.1:8321'}

Or from the command line: ``python -m repro route --node URL --node URL``
fronts running nodes, and ``python -m repro cluster-demo`` boots a whole
fleet locally to watch the routing happen.
"""

from repro.cluster.rebalance import plan_rebalance, run_rebalance
from repro.cluster.router import ClusterRouter
from repro.cluster.server import create_router_server, run_router_server
from repro.cluster.topology import HashRing, Node, stable_hash

__all__ = [
    "ClusterRouter",
    "HashRing",
    "Node",
    "create_router_server",
    "plan_rebalance",
    "run_rebalance",
    "run_router_server",
    "stable_hash",
]
