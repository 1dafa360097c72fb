"""Seeded input generators for the benchmark workloads.

Each workload yields *groups*: lists of inputs that, taken whole, always
have the same shape (sizes, zero pages, share of short records), so a
run that stops on a group boundary measures the same mix of work on
every seed. Only the byte values and the order within a group depend on
the seed.
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "byte" or "bit": the codec mode every input runs in
    why: str
    params: dict
    smoke_params: dict
    trace_groups: int  # fixed corpus of the traced run, in groups

    def groups(self, seed: int, smoke: bool = False):
        """Endless stream of input groups for `seed`."""
        params = self.smoke_params if smoke else self.params
        rng = random.Random(f"{self.name}:{seed}")
        make = _GENERATORS[self.name]
        while True:
            yield make(rng, **params)


def _byte_random(rng, file_bytes):
    return [rng.randbytes(file_bytes)]


def _byte_sparse(rng, page_bytes, pages_per_group, zero_pages_per_group,
                 nonzero_bytes_per_page):
    zero_pages = set(rng.sample(range(pages_per_group), zero_pages_per_group))
    pages = []
    for page in range(pages_per_group):
        buf = bytearray(page_bytes)
        if page not in zero_pages:
            for pos in rng.sample(range(page_bytes), nonzero_bytes_per_page):
                buf[pos] = rng.randrange(1, 256)
        pages.append(bytes(buf))
    return pages


def record_sizes(min_bytes, max_bytes, records_per_group):
    """Log-uniform sizes at the midpoints of equal-probability strata."""
    ratio = max_bytes / min_bytes
    return [
        round(min_bytes * ratio ** ((i + 0.5) / records_per_group))
        for i in range(records_per_group)
    ]


def _bit_records(rng, min_bytes, max_bytes, records_per_group, p_one):
    sizes = record_sizes(min_bytes, max_bytes, records_per_group)
    rng.shuffle(sizes)
    masks = [1 << s for s in range(8)]
    draw = rng.random
    return [
        bytes(
            sum(m for m in masks if draw() < p_one) for _ in range(size)
        )
        for size in sizes
    ]


_GENERATORS = {
    "byte-random": _byte_random,
    "byte-sparse": _byte_sparse,
    "bit-records": _bit_records,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="byte-random",
            mode="byte",
            why="incompressible bytes: rank arithmetic and unranking do "
                "nearly all the work, and the frequency table costs most",
            params={"file_bytes": 4096},
            smoke_params={"file_bytes": 1024},
            trace_groups=32,
        ),
        Workload(
            name="byte-sparse",
            mode="byte",
            why="zero-heavy 4 KiB pages, each compressed alone: 40% are "
                "one-symbol blocks, so the per-symbol loop dominates and "
                "big-integer work is small",
            params={"page_bytes": 4096, "pages_per_group": 10,
                    "zero_pages_per_group": 4, "nonzero_bytes_per_page": 123},
            smoke_params={"page_bytes": 4096, "pages_per_group": 2,
                          "zero_pages_per_group": 1,
                          "nonzero_bytes_per_page": 123},
            trace_groups=40,
        ),
        Workload(
            name="bit-records",
            mode="bit",
            why="many small biased-bit records in bit mode: both binary "
                "paths run, and per-call framing shows in latency",
            params={"min_bytes": 16, "max_bytes": 4096,
                    "records_per_group": 64, "p_one": 0.1},
            smoke_params={"min_bytes": 16, "max_bytes": 4096,
                          "records_per_group": 8, "p_one": 0.1},
            trace_groups=8,
        ),
    )
}
