"""Open-loop request generator.

Requests are due on a fixed schedule (``rate`` per second) whatever
the server does; a bounded set of sender threads, each holding one
keep-alive connection, sends each request as soon as it is due and a
sender is free.  Latency is measured from the due time, so a stall
also charges the wait it imposes on the requests queued behind it;
lateness (send time minus due time) shows how far the generator
itself fell behind.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass


@dataclass
class Outcome:
    due: float
    sent: float
    done: float
    #: ``"ok"``, ``"failed"`` (error answer or connection error),
    #: ``"wrong"`` (an answer that is unverified or differs from the
    #: expected payload) or ``"refused"`` (HTTP 429)
    status: str

    @property
    def latency(self) -> float:
        """Seconds from due to answer; ``inf`` unless the request
        succeeded, so a failure misses any latency limit."""
        return self.done - self.due if self.status == "ok" else math.inf

    @property
    def late(self) -> float:
        return max(0.0, self.sent - self.due)


def open_loop(send, count: int, rate: float, senders: int,
              clock=time.perf_counter, sleep=time.sleep,
              start_delay: float = 0.05) -> list[Outcome]:
    """Send ``count`` requests due every ``1 / rate`` seconds.

    ``send(session, i)`` performs request ``i`` on the calling sender's
    session and returns a status string (see :class:`Outcome`);
    ``session`` is whatever ``send.session()`` returns, closed with
    ``send.close(session)`` when the sender ends.  Returns one
    :class:`Outcome` per request in due order.
    """
    outcomes: list[Outcome | None] = [None] * count
    # one C-level call per index: the senders never draw the same one
    order = itertools.count()
    start = clock() + start_delay

    def sender():
        session = send.session()
        try:
            while True:
                i = next(order)
                if i >= count:
                    return
                due = start + i / rate
                wait = due - clock()
                if wait > 0:
                    sleep(wait)
                sent = clock()
                status = send(session, i)
                outcomes[i] = Outcome(due, sent, clock(), status)
        finally:
            send.close(session)

    threads = [threading.Thread(target=sender, daemon=True)
               for _ in range(max(1, senders))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def backlog_grew(outcomes, limit_s: float) -> bool:
    """True when the generator's median lateness over the last quarter
    of the schedule exceeds ``limit_s``: requests were piling up."""
    tail = sorted(o.late for o in outcomes[-max(1, len(outcomes) // 4):])
    return tail[len(tail) // 2] > limit_s


def closed_loop(send, count: int, seconds: float, senders: int,
                clock=time.perf_counter) -> tuple[list[Outcome], float]:
    """Each sender sends its next request as soon as its last one is
    answered, until ``seconds`` have passed or ``count`` requests were
    sent.  Returns the outcomes (due = sent) in send order and the
    elapsed seconds; completed requests over elapsed seconds is the
    server's capacity on this request mix."""
    outcomes: list[Outcome | None] = [None] * count
    order = itertools.count()
    start = clock()

    def sender():
        session = send.session()
        try:
            while clock() - start < seconds:
                i = next(order)
                if i >= count:
                    return
                sent = clock()
                status = send(session, i)
                outcomes[i] = Outcome(sent, sent, clock(), status)
        finally:
            send.close(session)

    threads = [threading.Thread(target=sender, daemon=True)
               for _ in range(max(1, senders))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [o for o in outcomes if o is not None], clock() - start
