"""Rebalance: re-home stored artifacts after membership change.

When the fleet's node set changes — a replacement for a dead node, a
capacity add, a reweight — rendezvous placement moves a bounded
fraction of the key space, and the artifacts for the moved keys are
suddenly *stranded*: they sit on nodes that are no longer in their home
set, so the new homes would recompute on first touch.  The rebalance
pass walks the fleet's artifact inventories, diffs them against the new
membership's placement, and copies every stranded blob to its missing
homes through the ``/v1`` artifact endpoints — the wire format *is* the
store format, so each copy is a byte-identical, validated store entry at
the target, warm before the first request lands.

Placement here keys on the artifact's own content digest (a pure
function any operator tool can recompute), while the router keys on the
points fingerprint behind a job.  The two agree on movement *bounds*
(both are rendezvous placements) but not necessarily per key — which is
fine: artifacts are content-addressed and location-independent, and the
peer-fetch read-through means any home-set member can serve a blob that
physically landed on a sibling.  Rebalance restores *k-copy coverage*;
it does not promise which of the k homes holds which byte.

The pass is **resumable**: every completed copy is journaled to an
append-only JSONL file (flushed and fsynced per line, the same
crash-safety idiom as the disk store's journal), so a rerun after a
crash or ^C skips finished work and tolerates a torn final line.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.client import Client
from repro.cluster.topology import HashRing, Node
from repro.errors import InvalidInputError, NodeHTTPError, ReproError

#: One copy-journal record per line: ``{"tier", "key", "target"}``.
JOURNAL_SUFFIX = ".journal.jsonl"


def load_journal(path: str) -> Set[Tuple[str, str, str]]:
    """The ``(tier, key, target)`` triples already copied.

    A torn final line (crash mid-append) is skipped, not fatal — the
    copy it described simply re-runs, and a duplicated artifact push is
    idempotent at the target (content-addressed key, validated ingest).
    """
    done: Set[Tuple[str, str, str]] = set()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    done.add((record["tier"], record["key"],
                              record["target"]))
                except (json.JSONDecodeError, KeyError, TypeError):
                    continue  # torn or foreign line: redo is safe
    except FileNotFoundError:
        pass
    return done


def append_journal(path: str, record: Dict[str, str]) -> None:
    """Append one completed copy, durably (flush + fsync per line)."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def plan_rebalance(inventories: Dict[str, List[Dict[str, Any]]],
                   ring: HashRing, replicas: int
                   ) -> List[Dict[str, Any]]:
    """The copies that restore ``replicas``-home coverage on ``ring``.

    ``inventories`` maps node name → that node's artifact listing
    (``[{"tier", "key", ...}, ...]``).  For every artifact the fleet
    holds anywhere, each of its homes (placement by the artifact's
    own key, health ignored — a rebalance plans for the membership, not
    the weather) that lacks a copy becomes one planned copy, sourced
    from the nodes that do hold it.  Deterministic order: sorted by
    ``(tier, key, target)``, so resume and tests see a stable plan.
    """
    if replicas < 1:
        raise InvalidInputError(
            f"replicas must be >= 1, got {replicas}")
    holders: Dict[Tuple[str, str], List[str]] = {}
    for name in sorted(inventories):
        for entry in inventories[name]:
            ident = (str(entry["tier"]), str(entry["key"]))
            holders.setdefault(ident, []).append(name)
    plan: List[Dict[str, Any]] = []
    for (tier, key), sources in sorted(holders.items()):
        homes = ring.homes(key, replicas, healthy_only=False)
        for home in homes:
            if home.name not in sources:
                plan.append({"tier": tier, "key": key,
                             "target": home.name, "sources": sources})
    plan.sort(key=lambda c: (c["tier"], c["key"], c["target"]))
    return plan


def run_rebalance(nodes: List[Node], *, replicas: int = 1,
                  journal_path: Optional[str] = None,
                  timeout: float = 30.0,
                  log: Callable[[str], None] = lambda line: None
                  ) -> Dict[str, Any]:
    """Copy every stranded artifact to its missing homes.

    ``nodes`` is the *new* membership (placement after the change); the
    inventories of whichever members answer define what exists.  An
    unreachable node is warned and skipped — its artifacts are invisible
    this pass and its missing copies unfixable, but the rest of the
    fleet still converges; rerun once it returns.  Returns a summary
    ``{"planned", "copied", "skipped", "failed", "unreachable"}``.
    """
    ring = HashRing(list(nodes))
    clients = {node.name: Client(node.base_url, timeout=timeout, retries=0)
               for node in ring.nodes}
    inventories: Dict[str, List[Dict[str, Any]]] = {}
    unreachable: List[str] = []
    for node in ring.nodes:
        try:
            doc = clients[node.name].artifacts()
        except ReproError as exc:
            unreachable.append(node.name)
            log(f"warning: {node.name} unreachable, skipping its "
                f"inventory: {exc}")
            continue
        inventories[node.name] = list(doc.get("artifacts", []))
    plan = plan_rebalance(inventories, ring, replicas)
    done = load_journal(journal_path) if journal_path else set()
    copied = skipped = failed = 0
    for copy in plan:
        tier, key, target = copy["tier"], copy["key"], copy["target"]
        if (tier, key, target) in done:
            skipped += 1
            continue
        if target in unreachable:
            failed += 1
            continue
        data: Optional[bytes] = None
        for source in copy["sources"]:
            if source in unreachable:
                continue
            try:
                data = clients[source].artifact(tier, key)
                break
            except NodeHTTPError:
                continue  # holder evicted it since the listing
            except ReproError as exc:
                log(f"warning: read {tier}/{key[:12]}… from {source} "
                    f"failed: {exc}")
        if data is None:
            failed += 1
            continue
        try:
            receipt = clients[target].artifact_put(
                tier, key, data, reason="rebalance")
        except ReproError as exc:
            log(f"warning: push {tier}/{key[:12]}… to {target} "
                f"failed: {exc}")
            failed += 1
            continue
        if not receipt.get("stored"):
            # The target refused (oversized / memory-only store): not
            # journaled, so a rerun against a fixed target retries it.
            failed += 1
            continue
        copied += 1
        if journal_path:
            append_journal(journal_path,
                           {"tier": tier, "key": key, "target": target})
        log(f"copied {tier}/{key[:12]}… -> {target}")
    return {"planned": len(plan), "copied": copied, "skipped": skipped,
            "failed": failed, "unreachable": unreachable}
