"""Open-loop load generation for ``serve-mix``.

Requests leave on a precomputed schedule, independent of how fast the
daemon answers: a stalled daemon does not slow the arrivals down.  At
most ``connections`` requests are in flight (one connection each, no
keep-alive: the daemon speaks HTTP/1.0).  A request whose due time
passes while every connection is busy is sent as soon as one frees up,
and its latency still runs from its due time.  There are no client
retries: a 429 is recorded as a refusal.
"""

from __future__ import annotations

import http.client
import json
import threading
import time


def run_open_loop(schedule, send, connections: int, clock=time.perf_counter, sleep=time.sleep):
    """Send ``schedule`` (a list of ``(due_seconds, payload)`` sorted by
    due time) through ``send(payload) -> result`` from ``connections``
    threads.  Returns one record per request, in schedule order, with
    ``due``/``sent``/``done`` on the ``clock`` and ``send``'s result.
    """
    records: list[dict | None] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = [0]
    start = clock()

    def sender() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(schedule):
                return
            offset, payload = schedule[index]
            due = start + offset
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            sent = clock()
            result = send(payload)
            records[index] = {"due": due, "sent": sent, "done": clock(), "result": result}

    if connections == 1:
        sender()
    else:
        threads = [threading.Thread(target=sender) for _ in range(connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return records


def http_validate(port: int, timeout: float = 60.0):
    """A ``send`` function posting one ``/v1/validate`` body per call.

    Returns ``(status, response_json_or_None, error_text_or_None)``;
    a connection error is status 0.
    """

    def send(body: bytes):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
        try:
            conn.request("POST", "/v1/validate", body, {"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
        except OSError as exc:
            return 0, None, str(exc)
        finally:
            conn.close()
        try:
            payload = json.loads(raw)
        except ValueError:
            return response.status, None, raw[:200].decode("utf-8", "replace")
        return response.status, payload, None

    return send


def http_get(port: int, path: str, timeout: float = 10.0) -> bytes:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise OSError(f"GET {path}: HTTP {response.status}")
        return body
    finally:
        conn.close()
