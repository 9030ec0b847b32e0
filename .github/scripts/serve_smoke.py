"""CI smoke for the resilience-query service, at the process level.

Drives a real ``repro serve`` subprocess the way an operator would:

1. cold query via the ``repro query`` CLI (computes the sweep);
2. the same query again — must come back ``[cached]`` from the store;
3. ``/metrics`` scrape — request and cache-hit families must be there;
4. SIGKILL the server while a large verdict is in flight, restart it
   on the same port, and assert the Lazy-Pirate client retried cleanly
   and still got the right answer;
5. SIGTERM the restarted server — graceful exit 0, answer store intact
   and still byte-for-byte ``json.dumps(document, indent=2)`` after the
   kill, the restarted server's reload and its new merge.

Run from the repo root: ``python .github/scripts/serve_smoke.py``.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")
ENV = dict(os.environ, PYTHONPATH=SRC)
STORE = "/tmp/serve_smoke_answers.json"

sys.path.insert(0, SRC)
from repro.serve import QueryClient  # noqa: E402

COLD_ARGS = [
    "verdict",
    "--topology", "maximal-outerplanar(10)",
    "--scheme", "right-hand",
    "--failure-model", "random:sizes=2/3,samples=200",
]
#: big enough that SIGKILL lands mid-compute even on a fast runner
SLOW_PARAMS = {
    "topology": "maximal-outerplanar(14)",
    "scheme": "right-hand",
    "model": "random:sizes=2/3/4,samples=8000,seed=0",
}


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def start_server(port: int, metrics_port: int) -> subprocess.Popen:
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", str(port),
            "--metrics-port", str(metrics_port),
            "--store", STORE,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=ENV,
        cwd=REPO_ROOT,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        if "listening on" in line:
            return proc
    proc.kill()
    raise SystemExit("repro serve did not come up")


def query(port: int, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "query", *args, "--port", str(port)],
        capture_output=True,
        text=True,
        env=ENV,
        cwd=REPO_ROOT,
        timeout=180,
    )


def main() -> None:
    if os.path.exists(STORE):
        os.remove(STORE)
    port, metrics_port = free_port(), free_port()
    server = start_server(port, metrics_port)

    # --- 1+2: cold then warm via the repro query CLI -------------------
    cold = query(port, *COLD_ARGS)
    assert cold.returncode == 0, f"cold query failed: {cold.stdout}{cold.stderr}"
    assert "[cached]" not in cold.stdout, f"first query must compute: {cold.stdout}"
    warm = query(port, *COLD_ARGS)
    assert warm.returncode == 0, f"warm query failed: {warm.stdout}{warm.stderr}"
    assert "[cached]" in warm.stdout, f"repeat query must hit the store: {warm.stdout}"
    print(f"cold/warm ok: {warm.stdout.strip()}")

    # --- 3: /metrics carries the request + cache-hit families ----------
    exposition = urllib.request.urlopen(
        f"http://127.0.0.1:{metrics_port}/metrics", timeout=10
    ).read().decode()
    for family in (
        'repro_serve_requests_total{op="verdict",status="ok"}',
        'repro_serve_cache_hits_total{tier="store"}',
        "repro_serve_request_seconds_bucket{",
    ):
        assert family in exposition, f"missing metric family {family!r}:\n{exposition}"
    print("metrics scrape ok")

    # --- 4: SIGKILL mid-request, restart, Lazy-Pirate retries ----------
    box: dict = {}

    def slow_query() -> None:
        try:
            with QueryClient(port=port, timeout=60, retries=20, retry_backoff=0.3) as client:
                box["reply"] = client.request("verdict", SLOW_PARAMS)
                box["stats"] = dict(client.stats)
        except Exception as error:  # noqa: BLE001 - asserted below
            box["error"] = error

    thread = threading.Thread(target=slow_query)
    thread.start()
    time.sleep(0.4)  # let the request get in flight on the compute worker
    server.send_signal(signal.SIGKILL)
    server.wait(timeout=30)
    server = start_server(port, metrics_port)
    thread.join(timeout=180)
    assert not thread.is_alive(), "client never returned after the restart"
    assert "error" in box or "reply" in box
    assert "error" not in box, f"client failed instead of retrying: {box['error']!r}"
    reply = box["reply"]
    assert reply["ok"] and reply["result"]["verdict"]["resilient"] is True, reply
    assert box["stats"]["retries"] >= 1, f"kill went unnoticed: {box['stats']}"
    print(f"kill/restart ok: answer after {box['stats']['retries']} retries")

    # --- 5: graceful SIGTERM, store intact -----------------------------
    server.send_signal(signal.SIGTERM)
    code = server.wait(timeout=60)
    assert code == 0, f"SIGTERM exit code {code}"
    with open(STORE) as handle:
        text = handle.read()
    store = json.loads(text)
    assert text == json.dumps(store, indent=2) + "\n", "store bytes are not the indented document"
    records = store.get("records", [])
    assert any(
        record["experiment"] == "resilience"
        and record["topology"] == "maximal-outerplanar(10)"
        for record in records
    ), f"cold answer missing from the store: {records}"
    print(f"graceful shutdown ok: exit 0, store intact ({len(records)} records)")


if __name__ == "__main__":
    main()
