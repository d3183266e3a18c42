"""Synthetic workload generators.

The substitutes for the production traces the paper's motivation appeals to:
sequential streams (batch ingest), uniform and Zipf random writes (the
small-random traffic the placement policy steers to fast superpages), mixed
read/write, and a hot/cold overwrite pattern that exercises GC hard.

All generators are deterministic in their seed and emit
:class:`~repro.workloads.model.Request` lists with Poisson-ish arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.utils.rng import derive_seed
from repro.workloads.model import OpKind, Request


@dataclass(frozen=True)
class ArrivalProcess:
    """Exponential inter-arrival times with a fixed mean (µs)."""

    mean_interarrival_us: float = 50.0

    def times(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if self.mean_interarrival_us <= 0:
            raise ValueError("mean_interarrival_us must be positive")
        gaps = rng.exponential(self.mean_interarrival_us, size=count)
        return np.cumsum(gaps)


def sequential_fill(
    logical_pages: int,
    *,
    start: int = 0,
    pages_per_request: int = 8,
    arrivals: ArrivalProcess = ArrivalProcess(),
    seed: int = 0,
) -> List[Request]:
    """Write the whole logical space once, front to back."""
    # repro.kernels.workload.sequential_fill_prefix deliberately shares this
    # ("seq") stream — its prefix guarantee depends on drawing the same bits.
    rng = np.random.default_rng(derive_seed(seed, "seq"))  # reprolint: disable=RNG010
    lpns = list(range(start, logical_pages, pages_per_request))
    times = arrivals.times(len(lpns), rng).tolist()
    return [
        Request(
            time_us=t,
            op=OpKind.WRITE,
            lpn=lpn,
            pages=min(pages_per_request, logical_pages - lpn),
        )
        for lpn, t in zip(lpns, times)
    ]


def uniform_random_writes(
    logical_pages: int,
    count: int,
    *,
    pages_per_request: int = 1,
    arrivals: ArrivalProcess = ArrivalProcess(),
    seed: int = 0,
) -> List[Request]:
    """Uniformly random single/multi-page overwrites."""
    rng = np.random.default_rng(derive_seed(seed, "uniform"))
    top = max(1, logical_pages - pages_per_request + 1)
    lpns = rng.integers(0, top, size=count).tolist()
    times = arrivals.times(count, rng).tolist()
    return [
        Request(time_us=t, op=OpKind.WRITE, lpn=lpn, pages=pages_per_request)
        for lpn, t in zip(lpns, times)
    ]


def zipf_writes(
    logical_pages: int,
    count: int,
    *,
    theta: float = 1.2,
    pages_per_request: int = 1,
    arrivals: ArrivalProcess = ArrivalProcess(),
    seed: int = 0,
) -> List[Request]:
    """Zipf-skewed overwrites: a small hot set absorbs most writes."""
    if theta <= 1.0:
        raise ValueError("theta must be > 1 for numpy's zipf")
    rng = np.random.default_rng(derive_seed(seed, "zipf"))
    ranks = rng.zipf(theta, size=count)
    # Map ranks onto the logical space via a seeded permutation so the hot
    # pages are scattered, not clustered at lpn 0.
    permutation = rng.permutation(logical_pages)
    lpns = permutation[(ranks - 1) % logical_pages]
    times = arrivals.times(count, rng).tolist()
    top = max(1, logical_pages - pages_per_request + 1)
    return [
        Request(time_us=t, op=OpKind.WRITE, lpn=lpn, pages=pages_per_request)
        for lpn, t in zip(np.minimum(lpns, top - 1).tolist(), times)
    ]


def mixed_read_write(
    logical_pages: int,
    count: int,
    *,
    read_fraction: float = 0.5,
    pages_per_request: int = 1,
    arrivals: ArrivalProcess = ArrivalProcess(),
    seed: int = 0,
) -> List[Request]:
    """Interleaved uniform reads and writes.

    Reads only target pages already written within this workload, so a
    replay never reads unmapped space.
    """
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError("read_fraction must be in [0, 1]")
    rng = np.random.default_rng(derive_seed(seed, "mixed"))
    times = arrivals.times(count, rng)
    top = max(1, logical_pages - pages_per_request + 1)
    written: List[int] = []
    requests: List[Request] = []
    for t in times:
        if written and rng.random() < read_fraction:
            lpn = written[int(rng.integers(len(written)))]
            op = OpKind.READ
        else:
            lpn = int(rng.integers(0, top))
            written.append(lpn)
            op = OpKind.WRITE
        requests.append(
            Request(time_us=float(t), op=op, lpn=lpn, pages=pages_per_request)
        )
    return requests


def hot_cold_writes(
    logical_pages: int,
    count: int,
    *,
    hot_fraction: float = 0.1,
    hot_probability: float = 0.9,
    arrivals: ArrivalProcess = ArrivalProcess(),
    seed: int = 0,
) -> List[Request]:
    """Classic hot/cold overwrite mix: GC's worst enemy.

    ``hot_fraction`` of the space receives ``hot_probability`` of the
    writes; the rest is cold.
    """
    if not 0.0 < hot_fraction < 1.0:
        raise ValueError("hot_fraction must be in (0, 1)")
    if not 0.0 <= hot_probability <= 1.0:
        raise ValueError("hot_probability must be in [0, 1]")
    rng = np.random.default_rng(derive_seed(seed, "hotcold"))
    hot_pages = max(1, int(logical_pages * hot_fraction))
    times = arrivals.times(count, rng)
    requests: List[Request] = []
    for t in times:
        if rng.random() < hot_probability:
            lpn = int(rng.integers(0, hot_pages))
        else:
            lpn = int(rng.integers(hot_pages, logical_pages))
        requests.append(Request(time_us=float(t), op=OpKind.WRITE, lpn=lpn))
    return requests


def small_large_mix(
    logical_pages: int,
    count: int,
    *,
    small_fraction: float = 0.7,
    small_pages: int = 1,
    large_pages: int = 32,
    arrivals: ArrivalProcess = ArrivalProcess(),
    seed: int = 0,
) -> List[Request]:
    """Small random writes mixed with large sequential batches.

    The workload Section V-D's superpage steering targets: small random
    data vs large batch data.
    """
    rng = np.random.default_rng(derive_seed(seed, "smalllarge"))
    times = arrivals.times(count, rng)
    requests: List[Request] = []
    cursor = 0
    for t in times:
        if rng.random() < small_fraction:
            lpn = int(rng.integers(0, max(1, logical_pages - small_pages + 1)))
            requests.append(
                Request(time_us=float(t), op=OpKind.WRITE, lpn=lpn, pages=small_pages)
            )
        else:
            if cursor + large_pages > logical_pages:
                cursor = 0
            requests.append(
                Request(time_us=float(t), op=OpKind.WRITE, lpn=cursor, pages=large_pages)
            )
            cursor += large_pages
    return requests
