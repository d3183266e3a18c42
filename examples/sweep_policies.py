#!/usr/bin/env python3
"""Learned policies vs static QSTR-MED, head-to-head via ``repro sweep``.

Three variants of the same GC-pressured device replay, differing only in
one policy slot of ``SimConfig.policies``:

* **static** — every slot unset: the paper's hand-tuned QSTR-MED behavior;
* **predictor** — ``assembly.predictor``: member choice by *predicted*
  word-line latency, learned online from measured program latencies;
* **bandit** — ``allocation.bandit``: epsilon-greedy fast/slow steering of
  host writes, rewarded by super-word-line completion latency.

Each variant sweeps the same seeds twice — serially and across a two-worker
process pool — and the results are asserted bit-identical, demonstrating
that learned policies keep the sweep substrate's determinism contract
(their only randomness is the seed-derived ``"policy"`` stream, and their
state pickles with the config into each worker).

Run:  python examples/sweep_policies.py
"""

from repro.exp import SimConfig
from repro.exp.sweep import Sweep, dig, run
from repro.ftl import FtlConfig

#: enough write pressure that GC and on-demand assembly both run; small
#: enough that nine cells finish in seconds.
BASE = SimConfig.device(
    seed=11,
    chips=4,
    blocks=28,
    ftl=FtlConfig(
        usable_blocks_per_plane=20,
        overprovision_ratio=0.30,
        gc_low_watermark=2,
        gc_high_watermark=4,
    ),
)

SEEDS = range(3)

VARIANTS = (
    ("static QSTR-MED", None, None),
    ("assembly.predictor", "policies.assembly", "assembly.predictor:warmup=64"),
    ("allocation.bandit", "policies.allocation", "allocation.bandit:epsilon=0.1"),
)


def main() -> None:
    rows = []
    for label, path, spec in VARIANTS:
        config = BASE if path is None else BASE.with_path(path, spec)
        sweep = Sweep("replay", base=config).over("seed", SEEDS)
        serial = run(sweep, workers=1)
        parallel = run(sweep, workers=2)
        assert [c.result for c in serial.cells] == [
            c.result for c in parallel.cells
        ], f"{label}: serial vs parallel sweeps diverged"

        cells = serial.cells
        mean = lambda path: sum(  # noqa: E731 - tiny local reducer
            dig(c.result, path) for c in cells
        ) / len(cells)
        rows.append(
            (
                label,
                config.content_hash(),
                mean("latency.WRITE.mean"),
                mean("latency.WRITE.p99"),
                mean("ftl.extra_program_mean_us"),
                mean("ftl.write_amplification"),
            )
        )

    print(f"replay task, {len(list(SEEDS))} seeds per variant, "
          f"serial == 2-worker pool for every variant\n")
    header = (
        f"{'variant':22s} {'config':18s} {'write mean us':>13s} "
        f"{'write p99 us':>13s} {'extra PGM us':>13s} {'WA':>6s}"
    )
    print(header)
    print("-" * len(header))
    for label, config_hash, w_mean, w_p99, extra, wa in rows:
        print(
            f"{label:22s} {config_hash:18s} {w_mean:13,.1f} "
            f"{w_p99:13,.1f} {extra:13,.2f} {wa:6.3f}"
        )


if __name__ == "__main__":
    main()
