"""A fixed reference simulation that gauges how fast the host runs right now.

The host the benchmark runs on is shared, and its speed drifts by a third
over minutes while the process is never descheduled. So host time alone
says as much about the neighbours as about the program. The worker times
this reference just before and just after every cell of a timed
repetition. A cell's host time divided by the mean of the two is a ratio
in which the host's speed cancels, and a repetition's ratio is the sum
over its cells.

The reference is written here, not in the program, and has three parts:
a small discrete-event simulation (generator processes, a binary-heap
event queue, ``__slots__`` events with callback lists, a bounded FIFO
between producers and consumers, dict bookkeeping), a plain interpreter
loop of dict reads, dict writes and integer arithmetic, and a pointer
chase through a 4 MiB ring that misses the caches. A host slowdown weighs
on these kinds of work differently: the first two alone react more
strongly to it than the program does, and the chase brings the mix
closer. Because the reference never imports the program, a change to the
program cannot make it faster or slower, and a faster program reads as a
smaller ratio. The ring adds about 4 MiB to every process's peak resident
set; ``prepare()`` builds it, once, outside any timed section.
"""

from __future__ import annotations

import heapq
import time
from array import array
from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

#: producer and consumer processes, and items each producer sends
PRODUCERS = 24
CONSUMERS = 8
ITEMS = 200
#: FIFO capacity between producers and consumers
DEPTH = 16
#: iterations of the interpreter loop
LOOPS = 80_000
#: ring slots (4-byte each) and steps of the pointer chase
RING = 1 << 20
CHASE_STEPS = 240_000

#: what ``run()`` returns; anything else means the reference is broken
CHECKSUM = 4003168262


class _Event:
    __slots__ = ("callbacks", "value")

    def __init__(self) -> None:
        self.callbacks: List[Callable[["_Event"], None]] = []
        self.value: Any = None


class _Kernel:
    """Heap-scheduled events driving generator processes."""

    def __init__(self) -> None:
        self.now = 0
        self.seq = 0
        self.queue: List[Tuple[int, int, _Event]] = []

    def schedule(self, event: _Event, delay: int, value: Any = None) -> None:
        event.value = value
        self.seq += 1
        heapq.heappush(self.queue, (self.now + delay, self.seq, event))

    def timeout(self, delay: int) -> _Event:
        event = _Event()
        self.schedule(event, delay)
        return event

    def process(self, gen: Generator[_Event, Any, None]) -> None:
        def resume(event: _Event) -> None:
            try:
                nxt = gen.send(event.value)
            except StopIteration:
                return
            nxt.callbacks.append(resume)

        start = _Event()
        start.callbacks.append(resume)
        self.schedule(start, 0)

    def run(self) -> None:
        queue = self.queue
        while queue:
            self.now, _seq, event = heapq.heappop(queue)
            for callback in event.callbacks:
                callback(event)


class _Fifo:
    """Bounded FIFO whose put and get are events."""

    def __init__(self, kernel: _Kernel, depth: int) -> None:
        self.kernel = kernel
        self.depth = depth
        self.items: Deque[Any] = deque()
        self.putters: Deque[Tuple[_Event, Any]] = deque()
        self.getters: Deque[_Event] = deque()

    def put(self, item: Any) -> _Event:
        event = _Event()
        self.putters.append((event, item))
        self._settle()
        return event

    def get(self) -> _Event:
        event = _Event()
        self.getters.append(event)
        self._settle()
        return event

    def _settle(self) -> None:
        kernel = self.kernel
        while True:
            while self.putters and len(self.items) < self.depth:
                event, item = self.putters.popleft()
                self.items.append(item)
                kernel.schedule(event, 0)
            if not (self.getters and self.items):
                return
            kernel.schedule(self.getters.popleft(), 0, self.items.popleft())


def _simulation() -> int:
    kernel = _Kernel()
    fifo = _Fifo(kernel, DEPTH)
    served: Dict[int, int] = {}
    totals = [0]

    def producer(pid: int) -> Generator[_Event, Any, None]:
        state = pid * 2654435761 + 1
        for n in range(ITEMS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            yield kernel.timeout(1 + state % 37)
            yield fifo.put({"src": pid, "n": n, "size": 64 + state % 4033})

    def consumer(cid: int) -> Generator[_Event, Any, None]:
        for _ in range(PRODUCERS * ITEMS // CONSUMERS):
            item = yield fifo.get()
            yield kernel.timeout(1 + item["size"] // 97)
            served[item["src"]] = served.get(item["src"], 0) + item["size"]
            totals[0] += cid * item["n"]

    for pid in range(PRODUCERS):
        kernel.process(producer(pid))
    for cid in range(CONSUMERS):
        kernel.process(consumer(cid))
    kernel.run()
    return kernel.now * 1_000_003 + sum(served.values()) + totals[0]


def _loop() -> int:
    table: Dict[int, int] = {}
    for i in range(LOOPS):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return sum(table.values())


_ring: Optional[array] = None


def prepare() -> None:
    """Build the chase ring: slot i holds the next slot of one LCG cycle
    through all ``RING`` slots, so each step's load depends on the last."""
    global _ring
    if _ring is None:
        mask = RING - 1
        _ring = array("i", ((i * 1103515245 + 12345) & mask
                            for i in range(RING)))


def _chase() -> int:
    prepare()
    ring = _ring
    slot = 0
    for _ in range(CHASE_STEPS):
        slot = ring[slot]
    return slot


def run() -> int:
    """Run the three parts of the reference once; their checksum."""
    return (_simulation() + _loop() + _chase()) & 0xFFFFFFFF


def timed() -> float:
    """Host seconds of one reference run; raises if its checksum is wrong."""
    start = time.perf_counter()
    checksum = run()
    seconds = time.perf_counter() - start
    if checksum != CHECKSUM:
        raise RuntimeError(f"reference checksum {checksum} != {CHECKSUM}")
    return seconds
