"""Reference answers, computed without the wavefront traversal kernel.

A job is described by a *job key*: a JSON-safe dict ``{"algorithm",
"k_pts", "source", "inline"}`` where ``source`` is a ``NAME:N:SEED``
dataset spec; an inline job sends the generated points instead of the
spec.  An answer is compared as :func:`answer_digest`, a hash of the
served payload in the canonical form of
``repro.service.jobs.canonical_payload_bytes``: only the answer (edges,
weights, labels, rounds count), the form every engine, backend and cache
temperature must agree on.  A faster kernel cannot pass with different
edges.

Every workload draws its jobs from a fixed pool (see ``run.py``), and
``digests.json`` holds the reference digest of every pool job, computed
on the ``reference`` traversal engine by running this file::

    python3 perfbench/oracle.py        # rewrites perfbench/digests.json

so checking a run costs no kernel time however many ops a fast server
completes.  A job outside the table is computed live by
:func:`reference_digest`.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterable

TABLE = Path(__file__).resolve().parent / "digests.json"

#: Payload keys that describe how an answer was computed, not the answer.
_NOT_ANSWER = frozenset({"phases", "counters", "rounds"})


def _answer(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _answer(v) for k, v in obj.items() if k not in _NOT_ANSWER}
    return obj


def answer_digest(payload: Dict[str, Any]) -> str:
    """128-bit hex digest of a payload's canonical answer bytes."""
    data = json.dumps(_answer(payload), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()[:32]


def key_id(job: Dict[str, Any]) -> str:
    """The table key of a job; the inline flag does not change answers."""
    return f"{job['algorithm']}:{job['k_pts']}:{job['source']}"


def reference_digest(job: Dict[str, Any]) -> str:
    """The digest of ``job`` computed on the reference traversal engine.

    The payload takes a JSON round trip first, exactly as a served one
    does, so both sides hash the same Python types.
    """
    from repro.bvh.traversal import traversal_engine
    from repro.data import generate_from_spec
    from repro.service.executor import execute_spec, make_exec_spec
    from repro.service.jobs import JobSpec

    spec = JobSpec(dataset=job["source"], algorithm=job["algorithm"],
                   k_pts=job["k_pts"])
    points = generate_from_spec(job["source"])
    with traversal_engine("reference"):
        outcome = execute_spec(make_exec_spec(spec, points=points))
    return answer_digest(json.loads(json.dumps(outcome["payload"])))


def load_table() -> Dict[str, str]:
    return json.loads(TABLE.read_text())


def build_table(jobs: Iterable[Dict[str, Any]], workers: int = 2
                ) -> Dict[str, str]:
    """Reference digests of ``jobs``, computed on ``workers`` processes."""
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    unique = {key_id(job): job for job in jobs}
    # Largest first, so the pool drains evenly.
    keys = sorted(unique, key=lambda k: -int(unique[k]["source"].split(":")[1]))
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=get_context("spawn")) as pool:
        digests = pool.map(reference_digest, [unique[k] for k in keys],
                           chunksize=4)
        return dict(zip(keys, digests))


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root), str(root / "src")]
    from perfbench.run import WORKLOADS

    jobs = [job for cls in WORKLOADS.values() for job in cls.pool_jobs()]
    table = build_table(jobs)
    TABLE.write_text(json.dumps(dict(sorted(table.items())), indent=0) + "\n")
    print(f"wrote {len(table)} reference digests to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
