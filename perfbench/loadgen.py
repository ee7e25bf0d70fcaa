"""HTTP load generator for the serving workloads (standard library only).

Runs as its own process so that client work never competes with the
server for one interpreter lock.  Reads a JSON plan on stdin, drives a
SPARQL HTTP server over keep-alive connections, and writes one JSON
document to stdout::

    {"host": "127.0.0.1", "port": 8080,
     "pool": ["ASK {...}", ...],            # distinct query texts
     "stream": [0, 5, 0, ...],              # the requests, as pool indices
     "keep": [3, 17, ...],                  # stream indices whose bodies to return
     "mode": "closed" | "open",
     "connections": 2,
     "seconds": 5.0,
     "rate": 60.0}                          # open loop only: requests per second

Closed loop: each connection sends the next request of the stream as
soon as its previous one answered, until ``seconds`` elapse.  Open loop:
request ``i`` is due at ``i / rate`` seconds; a free connection sends it
at its due time, and a request due while every connection is busy waits.
Latency is timed from the due time, so that wait counts.

Each record is ``[index, due, sent, done, status, bytes, free]``, times
in seconds since the phase start.  ``free`` is when the sending
connection became free, so ``sent - max(due, free)`` is how late the
generator itself ran.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time


def _connection(host: str, port: int) -> http.client.HTTPConnection:
    connection = http.client.HTTPConnection(host, port, timeout=60)
    connection.connect()
    return connection


def _send(connection, query: str):
    connection.request(
        "POST",
        "/sparql",
        body=query.encode("utf-8"),
        headers={
            "Content-Type": "application/sparql-query",
            "Accept": "application/sparql-results+json",
        },
    )
    response = connection.getresponse()
    return response.status, response.read()


def run(plan: dict) -> dict:
    pool = plan["pool"]
    queries = [pool[index] for index in plan["stream"]]
    keep = set(plan.get("keep", ()))
    mode = plan["mode"]
    rate = float(plan.get("rate") or 0.0)
    seconds = float(plan["seconds"])
    lock = threading.Lock()
    cursor = [0]
    records = []
    bodies = {}
    errors = []
    start = time.perf_counter()
    deadline = start + seconds

    def next_index():
        with lock:
            index = cursor[0]
            if index >= len(queries):
                return None
            if mode == "closed" and time.perf_counter() >= deadline:
                return None
            if mode == "open" and index / rate >= seconds:
                return None
            cursor[0] = index + 1
            return index

    def drive() -> None:
        connection = _connection(plan["host"], plan["port"])
        try:
            free = time.perf_counter() - start
            while True:
                index = next_index()
                if index is None:
                    return
                due = free
                if mode == "open":
                    due = index / rate
                    pause = due - (time.perf_counter() - start)
                    if pause > 0:
                        time.sleep(pause)
                sent = time.perf_counter() - start
                try:
                    status, body = _send(connection, queries[index])
                except (OSError, http.client.HTTPException) as error:
                    status, body = 0, b""
                    with lock:
                        errors.append(f"{type(error).__name__}: {error}")
                    connection.close()
                    connection = _connection(plan["host"], plan["port"])
                done = time.perf_counter() - start
                with lock:
                    records.append(
                        [index, due, sent, done, status, len(body), free]
                    )
                    if index in keep:
                        bodies[index] = body.decode("utf-8", "replace")
                free = done
        finally:
            connection.close()

    threads = [
        threading.Thread(target=drive, name=f"loadgen-{slot}")
        for slot in range(int(plan["connections"]))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    records.sort()
    return {
        "records": records,
        "bodies": {str(index): body for index, body in bodies.items()},
        "errors": errors[:10],
        "wall": time.perf_counter() - start,
    }


def main() -> None:
    plan = json.loads(sys.stdin.read())
    sys.stdout.write(json.dumps(run(plan)))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
