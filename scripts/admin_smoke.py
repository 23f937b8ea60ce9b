#!/usr/bin/env python3
"""Admin-plane smoke: boot one coordinator node, scrape /healthz and
/metrics, and stop it.

Usage:
    scripts/admin_smoke.py [NODE_BIN]    # default build/src/net/dpss_node
"""

import socket
import subprocess
import sys
import time
import urllib.request


def free_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def main() -> int:
    node_bin = sys.argv[1] if len(sys.argv) > 1 else "build/src/net/dpss_node"
    rpc_port, admin_port = free_port(), free_port()
    proc = subprocess.Popen([
        node_bin, "--role", "coordinator", "--name", "smoke",
        "--listen", f"127.0.0.1:{rpc_port}", "--admin-port", str(admin_port),
    ])
    try:
        deadline = time.time() + 20
        while True:
            try:
                with urllib.request.urlopen(
                        f"http://127.0.0.1:{admin_port}/healthz",
                        timeout=2) as r:
                    body = r.read().decode()
                    if r.status != 200 or '"status":"ok"' not in body:
                        sys.exit(f"/healthz bad: {r.status} {body!r}")
                    break
            except OSError:
                if time.time() > deadline:
                    sys.exit("admin /healthz never answered")
                time.sleep(0.2)
        with urllib.request.urlopen(
                f"http://127.0.0.1:{admin_port}/metrics", timeout=2) as r:
            text = r.read().decode()
        if not text.strip():
            sys.exit("/metrics came back empty")
        for needle in ("# TYPE", "dpss_rpc_attempts",
                       "dpss_net_server_accepts"):
            if needle not in text:
                sys.exit(f"/metrics is missing {needle!r}")
        print(f"admin smoke OK: /healthz + /metrics on 127.0.0.1:{admin_port}")
    finally:
        proc.terminate()
        proc.wait(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main())
