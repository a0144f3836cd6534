#!/usr/bin/env python
"""End-to-end serving example: a client talking to `repro serve`.

Spins up the mapping service in-process on an ephemeral port (pass a
base URL as argv[1] to target a live `python -m repro serve` instead),
then walks the protocol with plain stdlib urllib:

1. `GET /healthz`  -- liveness and the served topology names,
2. `POST /map`     -- one request, a generated application graph onto
   a 4x4 grid,
3. `POST /batch`   -- four requests in one body, submitted together:
   two repeat the `/map` above and come back from the response cache;
   the other two are identical, so one computation answers both,
4. `GET /metrics`  -- the JSON metrics snapshot.

Run:  python examples/serve_client.py
"""

from __future__ import annotations

import json
import sys
import urllib.request


def call(base: str, method: str, path: str, body: dict | None = None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        base + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req) as resp:
        payload = resp.read().decode()
    try:
        return json.loads(payload)
    except json.JSONDecodeError:
        return payload


def demo(base: str) -> None:
    health = call(base, "GET", "/healthz")
    print(f"healthz: {health['status']}, "
          f"{len(health['topologies'])} topologies served")

    request = {
        "topology": "grid4x4",
        "graph": {"kind": "generate", "instance": "p2p-Gnutella", "seed": 7},
        "seed": 7,
        "config": {"case": "c2", "nh": 2},
    }
    reply = call(base, "POST", "/map", request)
    print(f"map: Coco {reply['metrics']['coco_before']:.0f} -> "
          f"{reply['metrics']['coco_after']:.0f} on {len(reply['mu'])} "
          f"vertices [{reply['identity_hash'][:10]}]")

    fresh = {**request, "seed": 8, "graph": {**request["graph"], "seed": 8}}
    batch = call(base, "POST", "/batch", {
        "requests": [
            {**request, "id": "a"},          # repeats the /map: cached
            {**request, "id": "b"},          # so does this one
            {**fresh, "id": "c"},            # computed once ...
            {**fresh, "id": "d"},            # ... and coalesced with "c"
        ]
    })
    for item in batch["results"]:
        info = item["batch"]
        how = (
            "cached" if item.get("cached")
            else "coalesced" if info["coalesced"]
            else "computed"
        )
        print(f"batch[{item['id']}]: batched with {info['size']}, {how} "
              f"(unique runs: {info['unique']})")
    a, b = batch["results"][0], batch["results"][1]
    assert a["mu"] == b["mu"], "identical requests must map identically"

    metrics = call(base, "GET", "/metrics?format=json")
    print(f"metrics: {metrics['requests_total']:.0f} requests, "
          f"{metrics['coalesced_total']:.0f} coalesced, labeling computed "
          f"{metrics['labelings_computed']}x")


def main() -> None:
    if len(sys.argv) > 1:
        demo(sys.argv[1].rstrip("/"))
        return
    from repro.serve.service import ServeSettings, ServerThread

    with ServerThread(ServeSettings(port=0, max_batch=8)) as srv:
        demo(srv.url)


if __name__ == "__main__":
    main()
