"""The server under test and the client's wire calls.

:class:`Node` spawns ``python -m repro serve`` (or the traced launcher)
with the shipped defaults on an ephemeral port and owns the process: it
is stopped with SIGINT, then SIGKILL, and always reaped.  :class:`Session`
is one keep-alive HTTP connection speaking the ``/v1`` jobs contract with
the standard library only, so the benchmark does not depend on the
repository's own client code.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

#: Long-poll bound per GET; a job still running after it is polled again.
WAIT_S = 30
_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")
_STATUS = re.compile(rb'"status":\s*"(\w+)"')


class NodeError(RuntimeError):
    """The server could not be started or answered outside the contract."""


def _die_with_parent() -> None:
    """Runs in the child before exec: SIGKILL it if the benchmark dies,
    even by SIGKILL, so no orphan server outlives a run."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


class Node:
    """One spawned server process."""

    def __init__(self, root: Path, workdir: Path, *,
                 spans_path: Optional[Path] = None) -> None:
        self.root = root
        self.spans_path = spans_path
        self.log_path = workdir / f"server-{time.monotonic_ns()}.log"
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> None:
        """Spawn and block until ``/v1/healthz`` answers."""
        env = dict(os.environ)
        env.pop("REPRO_OBS", None)  # the shipped default: telemetry on
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONUNBUFFERED"] = "1"  # the "listening" line names the port
        if self.spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, str(self.root / "perfbench/launcher.py"),
                   str(self.spans_path)]
        cmd += ["--host", "127.0.0.1", "--port", "0"]
        with open(self.log_path, "wb") as log:
            # Own session: a terminal Ctrl-C reaches only the benchmark,
            # which then stops the server itself.
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=log, start_new_session=True,
                preexec_fn=_die_with_parent)
        deadline = time.monotonic() + timeout
        self.port = self._read_port(deadline)
        while True:
            try:
                status, _ = Session(self.port).call("GET", "/v1/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise NodeError(f"server never became healthy\n{self.log()}")
            time.sleep(0.02)

    def _read_port(self, deadline: float) -> int:
        assert self.proc is not None and self.proc.stdout is not None
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, deadline - time.monotonic()))
            if not ready:
                break
            line = self.proc.stdout.readline().decode(errors="replace")
            if not line:  # EOF: the process died before listening
                break
            match = _LISTENING.search(line)
            if match:
                return int(match.group(2))
        raise NodeError(f"server did not start listening\n{self.log()}")

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MiB."""
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise NodeError("no VmHWM in /proc status")

    def stop(self, timeout: float = 20.0) -> None:
        """SIGINT, then SIGKILL; always reaps.  Idempotent."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        finally:
            if proc.stdout is not None:
                proc.stdout.close()

    def log(self, lines: int = 20) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])


class Session:
    """One keep-alive connection; no retries (a failure is a failed op)."""

    def __init__(self, port: int, timeout: float = 120.0) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=timeout)

    def call(self, method: str, path: str, body: Optional[bytes] = None
             ) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()  # next call reconnects
            raise

    def run_job(self, body: bytes) -> Dict[str, Any]:
        """POST one job and long-poll it to a terminal state.

        Returns ``{"job_id", "status", "raw", "polls", "error"}``: ``raw``
        is the final job document, still encoded — it is parsed and checked
        after the timed window, so decoding never counts as server latency.
        """
        out: Dict[str, Any] = {"job_id": None, "status": None, "raw": None,
                               "polls": 0, "error": None}
        try:
            status, data = self.call("POST", "/v1/jobs", body)
            if status != 202:
                out["error"] = f"submit HTTP {status}: {data[:200]!r}"
                return out
            job_id = json.loads(data)["job_id"]
            out["job_id"] = job_id
            while True:
                status, data = self.call(
                    "GET", f"/v1/jobs/{job_id}?wait_s={WAIT_S}")
                out["polls"] += 1
                if status != 200:
                    out["error"] = f"poll HTTP {status}: {data[:200]!r}"
                    return out
                match = _STATUS.search(data[:256])
                if match and match.group(1) in (b"done", b"failed"):
                    out["status"] = match.group(1).decode()
                    out["raw"] = data
                    return out
        except (OSError, http.client.HTTPException, ValueError) as exc:
            out["error"] = f"{type(exc).__name__}: {exc}"
            return out

    def close(self) -> None:
        self.conn.close()
