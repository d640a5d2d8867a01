"""Tests for the multi-node dispatch layer (repro.cluster)."""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.client import (
    BACKOFF_BASE,
    BACKOFF_CAP,
    RETRY_AFTER_CAP,
    Client,
    backoff_delay,
)
from repro.cluster import (
    ClusterRouter,
    HashRing,
    Node,
    plan_rebalance,
    run_rebalance,
)
from repro.cluster.rebalance import append_journal, load_journal
from repro.cluster.server import create_router_server
from repro.errors import (
    ClusterError,
    InvalidInputError,
    NodeHTTPError,
    NodeOverloadedError,
    NodeUnavailableError,
)
from repro.service import Engine, JobSpec, canonical_payload_bytes
from repro.service.executor import execute_spec, make_exec_spec
from repro.service.server import create_server
from repro.store import combine_fingerprint, fingerprint_spec


def _keys(count):
    return [f"points-fp-{i:04d}" for i in range(count)]


def _owners(ring, keys):
    return {key: ring.node_for(key).name for key in keys}


class TestNode:
    def test_defaults_name_to_host_port(self):
        node = Node("http://10.0.0.7:8321/")
        assert node.name == "10.0.0.7:8321"
        assert node.base_url == "http://10.0.0.7:8321"

    def test_rejects_non_http_url(self):
        with pytest.raises(InvalidInputError):
            Node("ftp://10.0.0.7:8321")

    def test_rejects_at_sign_in_name(self):
        with pytest.raises(InvalidInputError):
            Node("http://h:1", name="a@b")

    def test_rejects_bad_weight(self):
        for weight in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(InvalidInputError):
                Node("http://h:1", weight=weight)


class TestHashRing:
    def test_placement_is_deterministic(self):
        nodes = lambda: [Node(f"http://h:{i}", name=f"n{i}")  # noqa: E731
                         for i in range(4)]
        a, b = HashRing(nodes()), HashRing(nodes())
        keys = _keys(100)
        assert _owners(a, keys) == _owners(b, keys)

    def test_shares_are_roughly_balanced(self):
        ring = HashRing([Node(f"http://h:{i}", name=f"n{i}")
                         for i in range(4)])
        assert ring.key_share() == {"n0": 0.25, "n1": 0.25, "n2": 0.25,
                                    "n3": 0.25}

    def test_weight_scales_share(self):
        ring = HashRing([Node("http://h:0", name="heavy", weight=3.0),
                         Node("http://h:1", name="light", weight=1.0)])
        assert ring.key_share() == {"heavy": 0.75, "light": 0.25}

    @pytest.mark.parametrize("weights", [(3, 1), (1, 1, 1, 1), (1, 2, 5)])
    def test_primaries_follow_the_key_share(self, weights):
        ring = HashRing([Node(f"http://h:{i}", name=f"n{i}", weight=w)
                         for i, w in enumerate(weights)])
        keys = _keys(10_000)
        owners = list(_owners(ring, keys).values())
        for name, share in ring.key_share().items():
            assert abs(owners.count(name) / len(keys) - share) <= 0.015, \
                (weights, name)

    def test_adding_a_node_moves_bounded_keys(self):
        nodes = [Node(f"http://h:{i}", name=f"n{i}") for i in range(4)]
        ring = HashRing(nodes)
        keys = _keys(1000)
        before = _owners(ring, keys)
        ring.add(Node("http://h:9", name="n9"))
        after = _owners(ring, keys)
        moved = sum(before[k] != after[k] for k in keys)
        # Ideal movement is 1/5 of the keys (the new node's share); a
        # modulo scheme would move ~4/5.  Every moved key must have moved
        # *to* the new node — consistent hashing never shuffles keys
        # between surviving nodes.
        assert moved / len(keys) < 0.40
        for key in keys:
            if before[key] != after[key]:
                assert after[key] == "n9"

    def test_removing_a_node_only_moves_its_keys(self):
        ring = HashRing([Node(f"http://h:{i}", name=f"n{i}")
                         for i in range(4)])
        keys = _keys(1000)
        before = _owners(ring, keys)
        ring.remove("n2")
        after = _owners(ring, keys)
        for key in keys:
            if before[key] != "n2":
                assert after[key] == before[key]
            else:
                assert after[key] != "n2"

    def test_preference_covers_all_nodes_distinctly(self):
        ring = HashRing([Node(f"http://h:{i}", name=f"n{i}")
                         for i in range(5)])
        for key in _keys(20):
            order = [node.name for node in ring.preference(key)]
            assert len(order) == 5
            assert len(set(order)) == 5
            assert order[0] == ring.node_for(key).name

    def test_failover_spreads_over_survivors(self):
        # Rendezvous ordering: the keys of one node must not all fail over
        # to a single survivor (the clockwise-successor pathology).
        ring = HashRing([Node(f"http://h:{i}", name=f"n{i}")
                         for i in range(4)])
        fallback_counts = {}
        for key in _keys(600):
            order = ring.preference(key)
            if order[0].name == "n0":
                fallback = order[1].name
                fallback_counts[fallback] = \
                    fallback_counts.get(fallback, 0) + 1
        assert len(fallback_counts) == 3  # all survivors take a share
        total = sum(fallback_counts.values())
        for count in fallback_counts.values():
            assert count / total < 0.6

    def test_duplicate_and_unknown_names_raise(self):
        ring = HashRing([Node("http://h:1", name="a")])
        with pytest.raises(InvalidInputError):
            ring.add(Node("http://h:2", name="a"))
        with pytest.raises(InvalidInputError):
            ring.remove("zzz")

    def test_empty_ring_raises(self):
        with pytest.raises(InvalidInputError):
            HashRing().node_for("k")


@pytest.fixture
def fleet(tmp_path):
    """Three live nodes (persistent stores) + a router; yields a handle."""
    engines, servers = [], []
    for i in range(3):
        engine = Engine(max_workers=1, store_dir=str(tmp_path / f"node-{i}"))
        server = create_server(engine, node_name=f"node-{i}")
        threading.Thread(target=server.serve_forever, daemon=True).start()
        engines.append(engine)
        servers.append(server)
    nodes = [Node(f"http://127.0.0.1:{server.server_address[1]}",
                  name=f"node-{i}")
             for i, server in enumerate(servers)]
    router = ClusterRouter(nodes, timeout=30.0)

    class Fleet:
        pass

    handle = Fleet()
    handle.router = router
    handle.nodes = nodes
    handle.engines = engines
    handle.servers = servers
    handle.down = set()

    def kill(name):
        """SIGKILL-equivalent for an in-process node: stop its server."""
        index = int(name.rsplit("-", 1)[1])
        servers[index].shutdown()
        servers[index].server_close()
        engines[index].close()
        handle.down.add(name)

    handle.kill = kill
    try:
        yield handle
    finally:
        for i, server in enumerate(servers):
            if f"node-{i}" not in handle.down:
                server.shutdown()
                server.server_close()
                engines[i].close()
        router.close()


def _await(router, accepted, wait_s=60.0):
    body, node = router.job(accepted["job_id"], wait_s=wait_s)
    assert body["status"] in ("done", "failed"), body
    return body, node


class TestRouterDispatch:
    def test_routed_equals_direct_bytes(self, fleet):
        body = {"dataset": "Uniform100M2:400", "algorithm": "mrd_emst",
                "k_pts": 4}
        accepted = fleet.router.submit(dict(body))
        result, _node = _await(fleet.router, accepted)
        assert result["status"] == "done", result.get("error")
        spec = JobSpec.from_dict(body)
        reference = execute_spec(make_exec_spec(spec))["payload"]
        assert canonical_payload_bytes(result["payload"]) == \
            canonical_payload_bytes(reference)

    def test_repeat_lands_on_same_node_and_hits(self, fleet):
        body = {"dataset": "Normal100M2:500"}
        first = fleet.router.submit(dict(body))
        _await(fleet.router, first)
        second = fleet.router.submit(dict(body))
        assert second["node"] == first["node"]
        result, _ = _await(fleet.router, second)
        assert result["cache"]["result_hit"]

    def test_placement_matches_ring(self, fleet):
        body = {"dataset": "Uniform100M3:300"}
        points_fp = fleet.router.fingerprint(JobSpec.from_dict(body))
        expected = fleet.router.ring.node_for(points_fp).name
        accepted = fleet.router.submit(dict(body))
        assert accepted["node"] == expected

    def test_inline_points_route_consistently(self, fleet, rng):
        points = rng.random((150, 2))
        first = fleet.router.submit({"points": points.tolist()})
        _await(fleet.router, first)
        second = fleet.router.submit({"points": points.tolist(),
                                      "algorithm": "hdbscan"})
        # Same point set, different algorithm: same node (shared tree
        # tier), and the tree tier answers there.
        assert second["node"] == first["node"]
        result, _ = _await(fleet.router, second)
        assert result["status"] == "done", result.get("error")
        assert result["cache"]["tree_hit"]

    def test_bad_spec_rejected_locally(self, fleet):
        with pytest.raises(InvalidInputError):
            fleet.router.submit({"dataset": "Uniform100M2:100",
                                 "algorithm": "kmeans"})
        # No node saw the request.
        stats = fleet.router.stats()
        assert stats["fleet"]["jobs"].get("total", 0) == 0

    def test_unknown_job_id(self, fleet):
        with pytest.raises(InvalidInputError):
            fleet.router.job("job-424242")


class TestRouterFailover:
    def _spec_owned_by(self, fleet, name):
        """A dataset body whose ring primary is node ``name``."""
        for n in range(300, 400):
            body = {"dataset": f"Uniform100M2:{n}"}
            fp = fleet.router.fingerprint(JobSpec.from_dict(body))
            if fleet.router.ring.node_for(fp).name == name:
                return body
        raise AssertionError(f"no probe spec owned by {name}")

    def test_submit_fails_over_to_next_node(self, fleet):
        victim = "node-1"
        body = self._spec_owned_by(fleet, victim)
        fleet.kill(victim)
        accepted = fleet.router.submit(dict(body))
        assert accepted["node"] != victim
        result, _ = _await(fleet.router, accepted)
        assert result["status"] == "done", result.get("error")
        assert fleet.router.stats()["router"]["failovers"] >= 1

    def test_dead_node_recovery_on_poll(self, fleet):
        victim = "node-2"
        body = self._spec_owned_by(fleet, victim)
        accepted = fleet.router.submit(dict(body))
        assert accepted["node"] == victim
        _await(fleet.router, accepted)
        fleet.kill(victim)
        # The node (and its memory) is gone; the router must resubmit the
        # retained spec to a survivor and still answer — byte-identically,
        # because jobs are pure functions of their spec.
        result, node = fleet.router.job(accepted["job_id"], wait_s=60.0)
        assert node != victim
        assert result["status"] == "done", result.get("error")
        reference = execute_spec(
            make_exec_spec(JobSpec.from_dict(body)))["payload"]
        assert canonical_payload_bytes(result["payload"]) == \
            canonical_payload_bytes(reference)
        assert fleet.router.stats()["router"]["resubmits"] >= 1

    def test_stale_recovery_does_not_redispatch(self, fleet):
        # A poller that saw the OLD assignment fail must not trigger a
        # second recovery once another poller already moved the route —
        # on a small fleet that would exclude the healthy node (503) or
        # double-execute the job.
        victim = "node-2"
        body = self._spec_owned_by(fleet, victim)
        accepted = fleet.router.submit(dict(body))
        assert accepted["node"] == victim
        _await(fleet.router, accepted)
        fleet.kill(victim)
        result, node = fleet.router.job(accepted["job_id"], wait_s=60.0)
        assert result["status"] == "done"
        resubmits = fleet.router.stats()["router"]["resubmits"]
        route = fleet.router._route(accepted["job_id"])
        # Simulate the racing poller: it observed `victim` failing, but
        # the route has already been recovered elsewhere.
        recovered = fleet.router._recover(route, victim, wait_s=60.0)
        assert recovered["status"] == "done"
        assert route.node_name == node  # assignment untouched
        assert fleet.router.stats()["router"]["resubmits"] == resubmits

    def test_all_nodes_down_is_cluster_error(self, fleet):
        for name in ("node-0", "node-1", "node-2"):
            fleet.kill(name)
        with pytest.raises((NodeUnavailableError, ClusterError)):
            fleet.router.submit({"dataset": "Uniform100M2:100"})


class TestFleetStats:
    def test_aggregates_pool_across_nodes(self, fleet):
        for n in (300, 310, 320, 300, 310):  # two repeats
            accepted = fleet.router.submit({"dataset": f"Uniform100M2:{n}"})
            _await(fleet.router, accepted)
        stats = fleet.router.stats()
        assert stats["fleet"]["nodes_reachable"] == 3
        assert stats["fleet"]["jobs"]["done"] == 5
        # Two result hits out of five lookups, pooled across the fleet.
        assert stats["fleet"]["result_cache"]["hit_rate"] == \
            pytest.approx(0.4)
        assert stats["router"]["jobs_routed"] == 5
        assert sum(stats["router"]["routed_by_node"].values()) == 5
        assert stats["fleet"]["mfeatures_per_sec"] >= 0.0

    def test_healthz_degrades_when_a_node_dies(self, fleet):
        assert fleet.router.healthz()["status"] == "ok"
        fleet.kill("node-0")
        health = fleet.router.healthz()
        assert health["status"] == "degraded"
        assert health["nodes_up"] == 2
        down = [n for n in health["nodes"] if n["name"] == "node-0"]
        assert down and not down[0]["reachable"]

    def test_admin_flush_fans_out(self, fleet):
        accepted = fleet.router.submit({"dataset": "Uniform100M2:350"})
        _await(fleet.router, accepted)
        report = fleet.router.flush()
        assert report["status"] == "ok"
        assert len(report["nodes"]) == 3
        repeat = fleet.router.submit({"dataset": "Uniform100M2:350"})
        result, _ = _await(fleet.router, repeat)
        assert not result["cache"]["result_hit"]

    def test_admin_compact_fans_out(self, fleet):
        report = fleet.router.compact()
        assert report["status"] == "ok"
        for entry in report["nodes"]:
            assert entry["compacted"]["journal_lines_after"] >= 0


@pytest.fixture
def routed_api(fleet):
    """The router's own HTTP front end; yields its base URL."""
    server = create_router_server(fleet.router)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()


def _get(url):
    with urllib.request.urlopen(url, timeout=120) as resp:
        return resp.status, json.loads(resp.read()), resp.headers


def _post(url, obj=None):
    data = json.dumps(obj).encode() if obj is not None else b""
    req = urllib.request.Request(
        url, data=data, method="POST",
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=120) as resp:
        return resp.status, json.loads(resp.read()), resp.headers


class TestRouterHTTP:
    def test_same_wire_protocol_as_a_node(self, routed_api):
        status, accepted, headers = _post(f"{routed_api}/v1/jobs",
                                          {"dataset": "Uniform100M2:300"})
        assert status == 202
        assert accepted["status"] == "pending"
        assert headers["X-Repro-Node"] == accepted["node"]
        status, result, headers = _get(
            f"{routed_api}/v1/jobs/{accepted['job_id']}?wait_s=60")
        assert status == 200
        assert result["status"] == "done"
        assert result["job_id"] == accepted["job_id"]
        assert headers["X-Repro-Node"] == accepted["node"]

    def test_bad_spec_is_400(self, routed_api):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{routed_api}/v1/jobs", {"dataset": "Uniform100M2:50",
                                            "algorithm": "kmeans"})
        assert excinfo.value.code == 400

    def test_unknown_job_is_404(self, routed_api):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{routed_api}/v1/jobs/job-424242")
        assert excinfo.value.code == 404

    def test_stats_and_healthz_documents(self, routed_api):
        _, health, _ = _get(f"{routed_api}/v1/healthz")
        assert health["role"] == "router"
        assert health["status"] == "ok"
        _, stats, _ = _get(f"{routed_api}/v1/stats")
        assert stats["role"] == "router"
        assert "fleet" in stats and "router" in stats

    def test_admin_flush_bad_tier_is_400_not_503(self, routed_api, fleet):
        # Every node rejects the tier with a 400: the router must relay
        # the client error, not convert it into unavailability — and the
        # unanimous 4xx must not poison the fleet's health view.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{routed_api}/v1/admin/flush", {"tier": "everything"})
        assert excinfo.value.code == 400
        assert all(node.healthy for node in fleet.router.ring.nodes)

    def test_admin_flush_per_tier_over_http(self, routed_api):
        _, accepted, _ = _post(f"{routed_api}/v1/jobs",
                               {"dataset": "Uniform100M2:420"})
        _, result, _ = _get(
            f"{routed_api}/v1/jobs/{accepted['job_id']}?wait_s=60")
        assert result["status"] == "done"
        status, report, _ = _post(f"{routed_api}/v1/admin/flush",
                                  {"tier": "bvh"})
        assert status == 200
        assert report["status"] == "ok"
        # The tree tier is gone everywhere, the result tier is not: the
        # repeat is still a result hit but would rebuild its tree.
        _, repeat, _ = _post(f"{routed_api}/v1/jobs",
                             {"dataset": "Uniform100M2:420"})
        _, result, _ = _get(
            f"{routed_api}/v1/jobs/{repeat['job_id']}?wait_s=60")
        assert result["cache"]["result_hit"]


class TestFingerprintSpec:
    def test_matches_engine_keying(self, rng):
        points = rng.random((60, 3))
        spec = JobSpec(points=points)
        from repro.store import fingerprint_array
        assert fingerprint_spec(spec) == \
            fingerprint_array(np.asarray(points, dtype=np.float64))

    def test_dataset_and_inline_agree(self):
        from repro.data import generate_from_spec
        spec = JobSpec(dataset="Uniform100M2:123")
        inline = JobSpec(points=generate_from_spec("Uniform100M2:123"))
        assert fingerprint_spec(spec) == fingerprint_spec(inline)

    def test_result_key_derivation(self):
        spec = JobSpec(dataset="Uniform100M2:77")
        fp = fingerprint_spec(spec)
        key = combine_fingerprint(fp, spec.params_key())
        assert len(key) == 64 and key != fp


class TestNodeClient:
    def test_unreachable_node_raises_unavailable(self):
        client = Client("http://127.0.0.1:9", timeout=0.5, retries=0)
        with pytest.raises(NodeUnavailableError):
            client.healthz()

    def test_rejects_bad_config(self):
        with pytest.raises(ClusterError):
            Client("http://h:1", timeout=0.0)
        with pytest.raises(ClusterError):
            Client("http://h:1", retries=-1)
        with pytest.raises(InvalidInputError, match="http"):
            Client("localhost:8321")
        with pytest.raises(InvalidInputError, match="port"):
            Client("http://localhost:port")


class TestRouterCoalescing:
    """Identical in-flight specs share one upstream job."""

    def test_second_submit_rides_first(self, fleet):
        body = {"dataset": "Uniform100M2:600", "algorithm": "mrd_emst",
                "k_pts": 4}
        first = fleet.router.submit(dict(body))
        # Submitted again before any poll observed completion: the router
        # must reuse the in-flight upstream job, not dispatch a second.
        second = fleet.router.submit(dict(body))
        assert second["job_id"] != first["job_id"]
        assert second["node"] == first["node"]
        stats = fleet.router.stats()["router"]
        assert stats["coalesced"] == 1
        # Exactly one upstream job was dispatched for the pair.
        assert stats["routed_by_node"][first["node"]] == 1
        res_a, _ = _await(fleet.router, first)
        res_b, _ = _await(fleet.router, second)
        assert res_a["status"] == "done", res_a.get("error")
        assert res_b["status"] == "done", res_b.get("error")
        assert canonical_payload_bytes(res_b["payload"]) == \
            canonical_payload_bytes(res_a["payload"])

    def test_terminal_poll_clears_inflight(self, fleet):
        body = {"dataset": "Uniform100M2:550"}
        first = fleet.router.submit(dict(body))
        _await(fleet.router, first)  # observed done -> entry cleared
        third = fleet.router.submit(dict(body))
        stats = fleet.router.stats()["router"]
        assert stats["coalesced"] == 0
        # The repeat dispatched upstream (and hits the node's result
        # cache there) instead of riding a finished job.
        result, _ = _await(fleet.router, third)
        assert result["cache"]["result_hit"]

    def test_different_params_do_not_coalesce(self, fleet):
        base = {"dataset": "Uniform100M2:500"}
        first = fleet.router.submit(dict(base))
        other = fleet.router.submit({**base, "algorithm": "mrd_emst",
                                     "k_pts": 4})
        stats = fleet.router.stats()["router"]
        assert stats["coalesced"] == 0
        _await(fleet.router, first)
        result, _ = _await(fleet.router, other)
        assert result["status"] == "done", result.get("error")


class TestReplicaHomes:
    """Placement properties of the replicated home set (homes(key, k))."""

    def _ring(self, count=5):
        return HashRing([Node(f"http://h:{i}", name=f"n{i}")
                         for i in range(count)])

    def test_homes_are_a_distinct_preference_prefix(self):
        ring = self._ring()
        for key in _keys(60):
            homes = [node.name for node in ring.homes(key, 3)]
            assert len(homes) == 3 and len(set(homes)) == 3
            preference = [node.name for node in ring.preference(key)]
            assert preference[:3] == homes

    def test_homes_skip_down_nodes(self):
        ring = self._ring()
        ring.get("n1").mark_down("probe failed")
        for key in _keys(60):
            names = [node.name for node in ring.homes(key, 3)]
            assert "n1" not in names
            assert len(names) == 3 and len(set(names)) == 3
        # healthy_only=False is the pure placement function: health is
        # invisible to it, so rebalance planning still sees n1's homes.
        assert any("n1" in [node.name for node
                            in ring.homes(key, 3, healthy_only=False)]
                   for key in _keys(60))

    def test_homes_shrink_when_membership_is_small(self):
        ring = self._ring(2)
        assert len(ring.homes("k", 5)) == 2
        ring.get("n0").mark_down("dead")
        assert [node.name for node in ring.homes("k", 5)] == ["n1"]

    def test_bad_k_raises(self):
        with pytest.raises(InvalidInputError):
            self._ring().homes("k", 0)

    def test_add_moves_bounded_replica_sets_and_only_toward_new(self):
        keys = _keys(600)
        ring = self._ring(5)
        before = {key: frozenset(n.name for n in ring.homes(key, 2))
                  for key in keys}
        ring.add(Node("http://h:9", name="n9"))
        after = {key: frozenset(n.name for n in ring.homes(key, 2))
                 for key in keys}
        changed = sum(before[key] != after[key] for key in keys)
        # Ideal: n9 takes ~1/6 of each of the two replica slots (~1/3 of
        # sets touched); far below the ~5/6 a reshuffle would move.
        assert changed / len(keys) < 0.55
        for key in keys:
            # A surviving pair never swaps members between themselves:
            # the only way a set changes is by gaining the new node.
            assert after[key] - before[key] <= {"n9"}

    def test_remove_only_touches_sets_that_held_the_node(self):
        keys = _keys(600)
        ring = self._ring(5)
        before = {key: frozenset(n.name for n in ring.homes(key, 2))
                  for key in keys}
        ring.remove("n2")
        after = {key: frozenset(n.name for n in ring.homes(key, 2))
                 for key in keys}
        changed = 0
        for key in keys:
            if "n2" not in before[key]:
                assert after[key] == before[key]
            else:
                changed += 1
                assert "n2" not in after[key]
                # The survivor of the pair keeps its copy.
                assert before[key] - {"n2"} <= after[key]
        # ~2/5 of sets held n2 (one of two slots over five nodes).
        assert changed / len(keys) < 0.6

    def test_reweight_moves_bounded_replica_sets(self):
        keys = _keys(600)
        ring = self._ring(5)
        before = {key: frozenset(n.name for n in ring.homes(key, 2))
                  for key in keys}
        ring.remove("n0")
        ring.add(Node("http://h:0", name="n0", weight=2.0))
        after = {key: frozenset(n.name for n in ring.homes(key, 2))
                 for key in keys}
        changed = sum(before[key] != after[key] for key in keys)
        # Doubling one weight grows n0's share of each slot from 1/5 to
        # 1/3 — movement tracks that delta, not a reshuffle.
        assert changed / len(keys) < 0.5
        # Monotone: no set LOSES n0 (its scores only went up).
        for key in keys:
            if "n0" in before[key]:
                assert "n0" in after[key]


class TestBackoff:
    """The deterministic retry-pacing curve (no RNG by design)."""

    def test_deterministic_and_within_envelope(self):
        for attempt in range(1, 12):
            nominal = min(BACKOFF_BASE * 2 ** (attempt - 1), BACKOFF_CAP)
            delay = backoff_delay(attempt)
            assert delay == backoff_delay(attempt)  # no hidden state
            assert 0.5 * nominal <= delay <= nominal

    def test_cap_holds_for_large_attempts(self):
        assert backoff_delay(50) <= BACKOFF_CAP

    def test_jitter_decorrelates_equal_nominals(self):
        # Attempts 7 and 8 share the capped nominal; the attempt-counter
        # jitter must still separate them.
        assert backoff_delay(7) != backoff_delay(8)

    def test_retry_after_hint_wins_and_is_capped(self):
        assert backoff_delay(1, retry_after=3.0) == 3.0
        assert backoff_delay(9, retry_after=0.25) == 0.25
        assert backoff_delay(1, retry_after=1e9) == RETRY_AFTER_CAP
        # A non-positive hint is no hint: back to the curve.
        assert backoff_delay(2, retry_after=0.0) == backoff_delay(2)

    def test_bad_attempt_raises(self):
        with pytest.raises(ClusterError):
            backoff_delay(0)


class TestCoolOffReprobe:
    """A recovered node rejoins on its first post-cool-off routing hit."""

    def test_recovered_node_rejoins_promptly(self, fleet):
        router = fleet.router
        router.retry_down_after = 0.2
        node = router.ring.get("node-1")
        node.mark_down("transient blip")  # the server is actually fine
        # Inside the cool-off the node is shunned, and stays marked down.
        assert "node-1" not in [n.name for n in router._candidates("k")]
        assert not node.healthy
        time.sleep(0.25)
        # First preference hit after expiry: the healthz re-probe runs,
        # succeeds, and flips the node healthy *fleet-wide* — replica
        # placement sees the recovery, not just this one dispatch.
        assert "node-1" in [n.name for n in router._candidates("k")]
        assert node.healthy
        assert router._reprobes_c.value(outcome="up") >= 1

    def test_still_dead_node_restarts_its_cooloff(self, fleet):
        router = fleet.router
        router.retry_down_after = 0.2
        fleet.kill("node-2")
        node = router.ring.get("node-2")
        node.mark_down("killed")
        time.sleep(0.25)
        assert "node-2" not in [n.name for n in router._candidates("k")]
        assert not node.healthy
        # The failed probe reset the clock: the node is freshly shunned.
        assert time.monotonic() - node.last_failure_at < 0.2
        assert router._reprobes_c.value(outcome="down") >= 1


class _StubClient:
    """A node client that answers every call with a canned document, or
    raises ``fail`` from the calls named in ``failing`` (all if None)."""

    DOCS = {
        "healthz": {"status": "ok", "persistent": False},
        "stats": {},
        "metrics_json": {"families": {}},
        "artifacts": {"artifacts": []},
        "artifact": b"blob",
        "traces": {"traces": [], "stats": None},
        "archived_trace": {"trace_id": "tr-1"},
        "profile": {"enabled": True, "samples": 0, "stacks": []},
        "flush": {"status": "ok"},
        "compact": {"status": "ok"},
        "submit": {"job_id": "up-1", "status": "pending"},
    }

    def __init__(self, fail=None, failing=None):
        self.fail = fail
        self.failing = failing

    def __getattr__(self, method):
        def call(*args, **kwargs):
            if self.fail is not None and (self.failing is None
                                          or method in self.failing):
                raise self.fail
            return self.DOCS[method]
        return call


def _stub_router(target_client):
    """A router over node ``a`` (``target_client``) and an always-answering
    node ``b``; ``a`` is asked first by every sequential fan-out."""
    router = ClusterRouter([Node("http://stub:1", name="a"),
                            Node("http://stub:2", name="b")])
    router.clients = {"a": target_client, "b": _StubClient()}
    return router


def _entry(entries, name="a"):
    return next(e for e in entries if e.get("node", e.get("name")) == name)


#: Each router fan-out, reduced to node ``a``'s part of its answer.
FAN_OUTS = {
    "healthz": lambda r: _entry(r.healthz()["nodes"]),
    "stats": lambda r: _entry(r.stats()["nodes"]),
    "metrics_json": lambda r: r.metrics_json()["nodes"]["a"],
    "artifacts": lambda r: _entry(r.artifacts()["nodes"]),
    "artifact": lambda r: {"served_by": r.artifact("result", "k" * 64)[1]},
    "traces": lambda r: r.traces()["nodes"]["a"],
    "trace": lambda r: {"served_by": r.trace("tr-1")[1]},
    "profile": lambda r: r.profile()["nodes"]["a"],
    "flush": lambda r: _entry(r.flush()["nodes"]),
    "compact": lambda r: _entry(r.compact()["nodes"]),
}

NODE_ANSWERS = {
    "ok": None,
    "429": NodeOverloadedError("shed", retry_after=1.0),
    "404": NodeHTTPError(404, "not here", error_code="not_found"),
    "refused": NodeUnavailableError("connection refused"),
}


class TestNodeHealthPolicy:
    """One policy for every call to a node: any HTTP answer (2xx, 4xx or
    a 429 shed) marks it up; only a connection error, a timeout or a 5xx
    marks it down."""

    @pytest.mark.parametrize("answer", list(NODE_ANSWERS))
    @pytest.mark.parametrize("fan_out", list(FAN_OUTS))
    def test_every_fan_out_applies_the_policy(self, fan_out, answer):
        router = _stub_router(_StubClient(NODE_ANSWERS[answer]))
        node = router.ring.get("a")
        if answer == "ok":
            node.mark_down("an earlier failure")
        entry = FAN_OUTS[fan_out](router)
        assert node.healthy is (answer != "refused")
        if fan_out == "healthz":
            assert entry["reachable"] is (answer != "refused")
        elif answer == "ok":
            assert "error" not in entry
            assert entry.get("served_by", "a") == "a"
        else:
            assert "error" in entry or entry["served_by"] == "b"

    def test_a_node_shedding_traces_keeps_its_keys(self):
        router = _stub_router(_StubClient())
        spec = JobSpec.from_dict({"dataset": "Uniform100M2:100"})
        points_fp = router.fingerprint(spec)
        primary = router.ring.node_for(points_fp).name
        router.clients[primary] = _StubClient(
            NodeOverloadedError("shed", retry_after=1.0),
            failing={"traces"})
        assert "error" in router.traces()["nodes"][primary]
        assert router._candidates(points_fp)[0].name == primary
        assert router.submit(spec.to_dict())["node"] == primary


@pytest.fixture
def replicated_fleet(tmp_path):
    """Three peer-wired nodes + a replicas=2 router; yields a handle."""
    engines, servers = [], []
    for i in range(3):
        engine = Engine(max_workers=1, store_dir=str(tmp_path / f"node-{i}"))
        server = create_server(engine, node_name=f"node-{i}")
        threading.Thread(target=server.serve_forever, daemon=True).start()
        engines.append(engine)
        servers.append(server)
    urls = [f"http://127.0.0.1:{server.server_address[1]}"
            for server in servers]
    for i, engine in enumerate(engines):
        engine.set_peers([url for j, url in enumerate(urls) if j != i],
                         timeout=10.0)
    nodes = [Node(url, name=f"node-{i}") for i, url in enumerate(urls)]
    router = ClusterRouter(nodes, timeout=30.0, replicas=2)

    class Fleet:
        pass

    handle = Fleet()
    handle.router = router
    handle.nodes = nodes
    handle.engines = engines
    handle.servers = servers
    handle.urls = urls
    handle.down = set()

    def kill(name):
        index = int(name.rsplit("-", 1)[1])
        servers[index].shutdown()
        servers[index].server_close()
        engines[index].close()
        handle.down.add(name)

    handle.kill = kill
    try:
        yield handle
    finally:
        router.close()
        for i, server in enumerate(servers):
            if f"node-{i}" not in handle.down:
                server.shutdown()
                server.server_close()
                engines[i].close()


def _drain_replication(router, timeout=60.0):
    deadline = time.monotonic() + timeout
    while router.replica_pending():
        assert time.monotonic() < deadline, "replication never drained"
        time.sleep(0.05)


def _flat_span_names(trace):
    names = []

    def walk(span):
        names.append(span.get("name"))
        for child in span.get("children") or []:
            walk(child)

    for span in trace.get("spans") or []:
        walk(span)
    return names


class TestReplication:
    def test_write_through_warms_every_home(self, replicated_fleet):
        fleet = replicated_fleet
        body = {"dataset": "Uniform100M2:640", "algorithm": "mrd_emst",
                "k_pts": 4}
        accepted = fleet.router.submit(dict(body))
        result, node = _await(fleet.router, accepted)
        assert result["status"] == "done", result.get("error")
        _drain_replication(fleet.router)
        spec = JobSpec.from_dict(body)
        points_fp = fleet.router.fingerprint(spec)
        homes = [n.name for n in fleet.router.ring.homes(points_fp, 2)]
        assert node == homes[0]
        engines = {f"node-{i}": engine
                   for i, engine in enumerate(fleet.engines)}
        primary, secondary = engines[homes[0]], engines[homes[1]]
        for tier, params in (("result", spec.params_key()),
                             ("tree", spec.tree_key()),
                             ("core", spec.core_key())):
            key = combine_fingerprint(points_fp, params)
            copied = secondary.artifact_bytes(tier, key)
            assert copied is not None, f"{tier} replica missing"
            assert copied == primary.artifact_bytes(tier, key)
        assert fleet.router._replica_writes_c.value(outcome="ok") >= 3
        stats = fleet.router.stats()["router"]
        assert stats["replicas"] == 2
        assert stats["replica_pending"] == 0

    def test_node_death_costs_zero_recompute(self, replicated_fleet):
        fleet = replicated_fleet
        body = {"dataset": "Uniform100M2:660", "algorithm": "mrd_emst",
                "k_pts": 4}
        first = fleet.router.submit(dict(body))
        result, _node = _await(fleet.router, first)
        assert result["status"] == "done", result.get("error")
        _drain_replication(fleet.router)
        points_fp = fleet.router.fingerprint(JobSpec.from_dict(body))
        homes = [n.name for n in fleet.router.ring.homes(points_fp, 2)]
        fleet.kill(homes[0])
        repeat = fleet.router.submit(dict(body))
        assert repeat["node"] == homes[1]  # failover == replica order
        recovered, _ = _await(fleet.router, repeat)
        assert recovered["status"] == "done", recovered.get("error")
        # The surviving home answered from its replicated disk tier:
        # a result hit, not a recompute.
        assert recovered["cache"]["result_hit"]
        assert recovered["cache"]["result_disk_hit"]
        assert canonical_payload_bytes(recovered["payload"]) == \
            canonical_payload_bytes(result["payload"])

    def test_k1_router_never_replicates(self, fleet):
        accepted = fleet.router.submit({"dataset": "Uniform100M2:700"})
        _await(fleet.router, accepted)
        assert fleet.router.replica_pending() == 0
        assert fleet.router._replica_worker is None  # never even started
        stats = fleet.router.stats()["router"]
        assert stats["replicas"] == 1
        assert stats["replica_pending"] == 0

    def test_rejects_bad_replicas(self, fleet):
        with pytest.raises(InvalidInputError):
            ClusterRouter(fleet.nodes, replicas=0)


class TestPeerFetch:
    def test_miss_reads_through_peer_store(self, tmp_path):
        a = Engine(max_workers=1, store_dir=str(tmp_path / "a"))
        server_a = create_server(a, node_name="a")
        threading.Thread(target=server_a.serve_forever,
                         daemon=True).start()
        b = Engine(max_workers=1, store_dir=str(tmp_path / "b"))
        b.set_peers(
            [f"http://127.0.0.1:{server_a.server_address[1]}"],
            timeout=10.0)
        try:
            spec = {"dataset": "Uniform100M2:360",
                    "algorithm": "mrd_emst", "k_pts": 4}
            done_a = a.result(a.submit(JobSpec.from_dict(spec)),
                              timeout=60)
            done_b = b.result(b.submit(JobSpec.from_dict(spec)),
                              timeout=60)
            assert done_b.status.value == "done", done_b.error
            assert canonical_payload_bytes(done_b.payload) == \
                canonical_payload_bytes(done_a.payload)
            # Served through the peer level, not recomputed and not a
            # local hit; the blob also spilled into b's own store.
            assert b.result_cache.peer_hits == 1
            assert b.result_cache.stats()["peer_hits"] == 1
            assert b._peer_fetch_c.value(tier="result",
                                         outcome="hit") == 1
            job_spec = JobSpec.from_dict(spec)
            result_key = combine_fingerprint(
                fingerprint_spec(job_spec), job_spec.params_key())
            assert b.artifact_bytes("result", result_key) is not None
            # The trace says where the artifact came from.
            assert done_b.trace is not None
            assert "peer_fetch" in _flat_span_names(done_b.trace)
        finally:
            server_a.shutdown()
            server_a.server_close()
            a.close()
            b.close()

    def test_dead_peer_degrades_to_recompute(self, tmp_path):
        b = Engine(max_workers=1, store_dir=str(tmp_path / "b"))
        b.set_peers(["http://127.0.0.1:9"], timeout=0.5)
        try:
            done = b.result(
                b.submit(JobSpec(dataset="Uniform100M2:320")), timeout=60)
            assert done.status.value == "done", done.error
            assert not done.cache["result_hit"]
            assert b._peer_fetch_c.value(tier="result",
                                         outcome="error") >= 1
        finally:
            b.close()

    def test_rejects_peer_url_without_scheme(self):
        # Caught at start-up: a schemeless peer would otherwise fail every
        # local miss instead of degrading to recompute.
        with pytest.raises(InvalidInputError, match="http"):
            Engine(max_workers=1, peers=["peerhost"])

    def test_obs_off_disables_peer_telemetry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "off")
        a = Engine(max_workers=1, store_dir=str(tmp_path / "a"))
        server_a = create_server(a, node_name="a")
        threading.Thread(target=server_a.serve_forever,
                         daemon=True).start()
        b = Engine(max_workers=1, store_dir=str(tmp_path / "b"))
        b.set_peers(
            [f"http://127.0.0.1:{server_a.server_address[1]}"],
            timeout=10.0)
        try:
            spec = {"dataset": "Uniform100M2:340"}
            a.result(a.submit(JobSpec.from_dict(spec)), timeout=60)
            done_b = b.result(b.submit(JobSpec.from_dict(spec)),
                              timeout=60)
            assert done_b.status.value == "done", done_b.error
            # The read-through still works; the counters stay silent.
            assert b.result_cache.peer_hits == 1
            assert not b.registry.enabled
            assert b._peer_fetch_c.value(tier="result", outcome="hit") == 0
        finally:
            server_a.shutdown()
            server_a.server_close()
            a.close()
            b.close()


class TestArtifactAPI:
    def _warm_key(self, fleet, n=460):
        body = {"dataset": f"Uniform100M2:{n}"}
        accepted = fleet.router.submit(dict(body))
        result, node = _await(fleet.router, accepted)
        assert result["status"] == "done", result.get("error")
        spec = JobSpec.from_dict(body)
        key = combine_fingerprint(fleet.router.fingerprint(spec),
                                  spec.params_key())
        return key, node

    def test_blob_roundtrip_over_http(self, fleet):
        key, node = self._warm_key(fleet)
        holder = next(n for n in fleet.nodes if n.name == node)
        client = Client(holder.base_url, timeout=10.0, retries=0)
        listing = client.artifacts()
        assert listing["node"] == node
        assert any(entry["tier"] == "result" and entry["key"] == key
                   for entry in listing["artifacts"])
        data = client.artifact("result", key)
        engine = fleet.engines[int(node.rsplit("-", 1)[1])]
        assert data == engine.artifact_bytes("result", key)
        # Push the blob to a sibling, read it back byte-identically.
        other = next(n for n in fleet.nodes if n.name != node)
        sibling = Client(other.base_url, timeout=10.0, retries=0)
        receipt = sibling.artifact_put("result", key, data)
        assert receipt["stored"] is True
        assert sibling.artifact("result", key) == data

    def test_bad_refs_rejected(self, fleet):
        client = Client(fleet.nodes[0].base_url, timeout=10.0, retries=0)
        with pytest.raises(NodeHTTPError) as excinfo:
            client.artifact("blobs", "0" * 64)  # unknown tier
        assert excinfo.value.code == 400
        with pytest.raises(NodeHTTPError) as excinfo:
            client.artifact("result", "zz" * 32)  # non-hex key
        assert excinfo.value.code == 400
        with pytest.raises(NodeHTTPError) as excinfo:
            client.artifact("result", "0" * 64)  # absent
        assert excinfo.value.code == 404
        with pytest.raises(NodeHTTPError) as excinfo:
            client.artifact_put("result", "0" * 64, b"")  # empty body
        assert excinfo.value.code == 400
        with pytest.raises(NodeHTTPError) as excinfo:
            client.artifact_put("result", "0" * 64, b"not an npz blob")
        assert excinfo.value.code == 400
        # The garbage never reached the store.
        assert fleet.engines[0].artifact_bytes("result", "0" * 64) is None

    def test_router_serves_reads_refuses_writes(self, routed_api, fleet):
        key, node = self._warm_key(fleet, n=470)
        with urllib.request.urlopen(
                f"{routed_api}/v1/artifacts/result/{key}",
                timeout=30) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"] == \
                "application/octet-stream"
            assert resp.headers["X-Repro-Node"] == node
            data = resp.read()
        engine = fleet.engines[int(node.rsplit("-", 1)[1])]
        assert data == engine.artifact_bytes("result", key)
        _, listing, _ = _get(f"{routed_api}/v1/artifacts")
        assert {entry["node"] for entry in listing["nodes"]} == \
            {"node-0", "node-1", "node-2"}
        request = urllib.request.Request(
            f"{routed_api}/v1/artifacts/result/{key}", data=data,
            method="POST",
            headers={"Content-Type": "application/octet-stream"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400


class TestRebalance:
    def _inventories(self, engines_by_name):
        return {name: engine.artifact_entries()
                for name, engine in engines_by_name.items()}

    def test_copies_stranded_artifacts_to_new_homes(self, fleet, tmp_path):
        for n in (300, 310, 320, 330):
            accepted = fleet.router.submit({"dataset": f"Uniform100M2:{n}"})
            result, _ = _await(fleet.router, accepted)
            assert result["status"] == "done", result.get("error")
        # A replacement node joins with an empty store.
        engine = Engine(max_workers=1, store_dir=str(tmp_path / "node-3"))
        server = create_server(engine, node_name="node-3")
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            members = list(fleet.nodes) + [
                Node(f"http://127.0.0.1:{server.server_address[1]}",
                     name="node-3")]
            journal = str(tmp_path / "rebalance.journal.jsonl")
            summary = run_rebalance(members, replicas=2,
                                    journal_path=journal)
            assert summary["copied"] > 0
            assert summary["failed"] == 0
            assert summary["unreachable"] == []
            # Every artifact now sits on every one of its ring homes.
            engines = {f"node-{i}": e
                       for i, e in enumerate(fleet.engines)}
            engines["node-3"] = engine
            ring = HashRing(members)
            for name, entries in self._inventories(engines).items():
                for entry in entries:
                    tier, key = entry["tier"], entry["key"]
                    for home in ring.homes(key, 2, healthy_only=False):
                        assert engines[home.name].artifact_bytes(
                            tier, key) is not None, \
                            f"{tier}/{key[:12]} missing on {home.name}"
            # Convergence: a rerun finds nothing left to copy.
            again = run_rebalance(members, replicas=2,
                                  journal_path=journal)
            assert again["planned"] == 0
            # The new node ingested real work, and counted it.
            assert engine.artifact_entries()
            assert engine._rebalance_copies_c.value() > 0
        finally:
            server.shutdown()
            server.server_close()
            engine.close()

    def test_journal_skips_completed_copies_on_resume(self, fleet,
                                                      tmp_path):
        accepted = fleet.router.submit({"dataset": "Uniform100M2:305"})
        result, _ = _await(fleet.router, accepted)
        assert result["status"] == "done", result.get("error")
        engines = {f"node-{i}": e for i, e in enumerate(fleet.engines)}
        ring = HashRing(fleet.nodes)
        plan = plan_rebalance(self._inventories(engines), ring, 2)
        assert plan  # replicas=2 over a k=1 fleet always has copies
        # Pretend a previous run completed the first copy, then crashed.
        journal = str(tmp_path / "resume.journal.jsonl")
        first = plan[0]
        append_journal(journal, {"tier": first["tier"],
                                 "key": first["key"],
                                 "target": first["target"]})
        summary = run_rebalance(fleet.nodes, replicas=2,
                                journal_path=journal)
        assert summary["skipped"] == 1
        assert summary["copied"] == len(plan) - 1
        # The journaled copy was genuinely short-circuited: its target
        # still lacks the blob.
        assert engines[first["target"]].artifact_bytes(
            first["tier"], first["key"]) is None

    def test_journal_tolerates_torn_final_line(self, tmp_path):
        path = str(tmp_path / "torn.journal.jsonl")
        append_journal(path, {"tier": "result", "key": "k1",
                              "target": "n1"})
        append_journal(path, {"tier": "tree", "key": "k2",
                              "target": "n2"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"tier": "result", "ke')  # crash mid-append
        assert load_journal(path) == {("result", "k1", "n1"),
                                      ("tree", "k2", "n2")}
        assert load_journal(str(tmp_path / "absent.jsonl")) == set()

    def test_unreachable_member_warns_but_converges_rest(self, fleet,
                                                         tmp_path):
        accepted = fleet.router.submit({"dataset": "Uniform100M2:315"})
        result, _ = _await(fleet.router, accepted)
        assert result["status"] == "done", result.get("error")
        members = list(fleet.nodes) + [Node("http://127.0.0.1:9",
                                            name="node-9")]
        warnings = []
        summary = run_rebalance(members, replicas=2,
                                journal_path=str(tmp_path / "j.jsonl"),
                                timeout=0.5, log=warnings.append)
        assert summary["unreachable"] == ["node-9"]
        assert any("node-9" in line for line in warnings)
        # Copies between live members still happened where planned.
        assert summary["copied"] + summary["failed"] + \
            summary["skipped"] == summary["planned"]
