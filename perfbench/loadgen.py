"""HTTP load generation with explicit accounting.

Two load patterns share one request helper, each on its own persistent
HTTP/1.1 connection:

* :func:`open_loop` sends request ``i`` when it is due (``start +
  i / rate``) whether or not earlier requests have answered.  On one
  connection a stalled request delays the ones behind it, so every
  request is timed from its *due* time, and how late each one was
  actually sent is kept as the generator's lag.
* :func:`closed_loop` is one client that sends its next operation
  (a short sequence of requests) only after the previous one finished.

A request fails when it times out, the connection errors, or the
status is not 200 (429 and 5xx included); failures count against the
number attempted.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple


@dataclass
class Sample:
    """One request: when it was due, sent and answered, and how."""

    group: int
    kind: str
    due: float
    sent: float
    done: float
    status: int = 0
    error: Optional[str] = None
    source: Optional[str] = None
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return self.error is None and self.status == 200

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return self.sent - self.due


class Client:
    """One persistent connection, reopened after any transport error."""

    def __init__(self, host: str, port: int, timeout: float):
        self.host, self.port, self.timeout = host, port, timeout
        self._conn: "Optional[http.client.HTTPConnection]" = None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(
        self, method: str, path: str, body: "dict | None" = None
    ) -> Tuple[int, dict, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        try:
            self._conn.request(method, path, body=payload, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        except BaseException:
            self.close()
            raise
        return response.status, dict(response.getheaders()), data

    def timed(self, group: int, due: float, path: str, body: dict) -> Sample:
        sample = Sample(group=group, kind=path.rsplit("/", 1)[-1], due=due,
                        sent=time.perf_counter(), done=0.0)
        try:
            status, headers, data = self.request("POST", path, body)
        except socket.timeout:
            sample.error = "timeout"
        except (OSError, http.client.HTTPException) as error:
            sample.error = f"connection: {type(error).__name__}"
        else:
            sample.status = status
            sample.source = headers.get("X-Repro-Source")
            sample.body = data
            if status != 200:
                sample.error = f"status {status}"
        sample.done = time.perf_counter()
        return sample


Request = Tuple[str, dict]


def open_loop(
    client: Client,
    request: Callable[[int], Request],
    rate: float,
    start: float,
    duration: float,
) -> List[Sample]:
    """Send ``request(i)`` at ``start + i / rate`` until ``duration``."""
    samples = []
    index = 0
    while True:
        due = start + index / rate
        if due >= start + duration:
            return samples
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        path, body = request(index)
        samples.append(client.timed(index, due, path, body))
        index += 1


def closed_loop(
    client: Client,
    operation: Callable[[int], Sequence[Request]],
    start: float,
    duration: float,
) -> List[Sample]:
    """Run operations back to back until ``duration`` has passed.

    Each request of operation ``i`` is due when the previous request
    finished; an operation's latency is its last ``done`` minus its
    first ``due``.
    """
    samples = []
    index = 0
    while time.perf_counter() < start + duration:
        for path, body in operation(index):
            samples.append(
                client.timed(index, time.perf_counter(), path, body)
            )
        index += 1
    return samples


def percentile_ms(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (1..99) of seconds, in milliseconds."""
    if not values:
        return 0.0
    if len(values) == 1:
        return 1000.0 * values[0]
    return 1000.0 * statistics.quantiles(values, n=100)[q - 1]


def latencies(samples: Sequence[Sample], failed_as: float) -> List[float]:
    """Per-request latency, a failure counting as ``failed_as`` seconds
    (it missed any latency limit)."""
    return [s.latency if s.ok else failed_as for s in samples]


def operation_latencies(
    samples: Sequence[Sample], failed_as: float
) -> List[float]:
    """Per-operation latency of :func:`closed_loop` samples."""
    groups = {}
    for sample in samples:
        groups.setdefault(sample.group, []).append(sample)
    result = []
    for group in groups.values():
        if all(sample.ok for sample in group):
            result.append(group[-1].done - group[0].due)
        else:
            result.append(failed_as)
    return result
