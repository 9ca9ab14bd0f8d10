"""Open-loop HTTP load generator for the ``serve`` workload.

Runs as its own process so that the client does not share an
interpreter lock with the server.  One submitter thread POSTs each
request when it is due, whether or not earlier ones have finished; one
collector thread reads results in submission order.  Each thread holds
one ``HTTPConnection`` (the server answers HTTP/1.0, so the connection
reconnects per request).

Input on stdin (JSON): ``host``, ``port``, ``start`` (a
``time.monotonic()`` instant, shared by every process on the host) and
``requests``, each ``{"due": seconds after start, "body": {...},
"after": index or null}``.  A request with ``after`` is not sent before
that earlier request's result has been read (a repeat waits for its
cold twin; a burst for the last request of the burst before it).
Output on stdout (JSON): one record per request with monotonic
timestamps, the HTTP codes, the ``X-Serve-Cache`` header and the
result payload text.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import sys
import threading
import time

#: Longest a single result read may block server-side (the server caps
#: ``?wait=`` at 30 s).
WAIT_S = 30


def main() -> int:
    plan = json.load(sys.stdin)
    requests = plan["requests"]
    start = plan["start"]
    records = [{} for _ in requests]
    collected = [threading.Event() for _ in requests]
    pending: "queue.Queue" = queue.Queue()
    errors = []

    def submitter() -> None:
        conn = http.client.HTTPConnection(plan["host"], plan["port"],
                                          timeout=120)
        try:
            for index, request in enumerate(requests):
                due = start + request["due"]
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                if request["after"] is not None:
                    collected[request["after"]].wait(120)
                body = json.dumps(request["body"]).encode("utf-8")
                sent = time.monotonic()
                conn.request("POST", "/v1/runs", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                data = response.read()
                record = records[index]
                record.update(due=due, post_start=sent,
                              post_end=time.monotonic(),
                              post_code=response.status)
                if response.status in (200, 202):
                    record["id"] = json.loads(data)["id"]
                    pending.put(index)
                else:
                    collected[index].set()
        except Exception as exc:  # reported to the parent, never hidden
            errors.append(f"submitter: {exc!r}")
        finally:
            pending.put(None)
            conn.close()

    def collector() -> None:
        conn = http.client.HTTPConnection(plan["host"], plan["port"],
                                          timeout=120)
        try:
            while True:
                index = pending.get()
                if index is None:
                    return
                record = records[index]
                path = f"/v1/runs/{record['id']}/result?wait={WAIT_S}"
                while True:
                    conn.request("GET", path)
                    response = conn.getresponse()
                    payload = response.read()
                    if response.status != 202:
                        break
                record.update(done=time.monotonic(),
                              result_code=response.status,
                              cache=response.getheader("X-Serve-Cache"),
                              payload=payload.decode("utf-8"))
                collected[index].set()
        except Exception as exc:
            errors.append(f"collector: {exc!r}")
        finally:
            conn.close()

    threads = [threading.Thread(target=submitter, name="submitter"),
               threading.Thread(target=collector, name="collector")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    json.dump({"pid": os.getpid(), "records": records, "errors": errors},
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
