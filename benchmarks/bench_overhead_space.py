"""Section VI-D1 / Equation 2: memory footprint of QSTR-MED metadata.

Paper: 52 bytes per 384-LWL block (4 B latency sum + 48 B eigen bits);
~6.5 MB for a 1 TB SSD of 8 MB blocks — negligible next to SSD DRAM.
"""

from repro.analysis.tables import render_table
from repro.core import FootprintModel, GatheringUnit, QstrMedScheme
from repro.nand import PAPER_GEOMETRY
from repro.utils import derive_seed
from repro.utils.units import TIB, format_bytes

import numpy as np


def test_overhead_space(benchmark):
    model = FootprintModel(PAPER_GEOMETRY)

    footprint = benchmark.pedantic(
        lambda: model.footprint_bytes(TIB), rounds=1, iterations=1
    )

    rows = [
        ["bytes per block (Eq. 2)", f"{model.bytes_per_block} B", "52 B"],
        ["eigen bits per block", f"{PAPER_GEOMETRY.lwls_per_block} bit", "384 bit"],
        ["1 TB SSD footprint", format_bytes(footprint), "6.5 MB (8 MB blocks)"],
        [
            "fraction of 1 GB DRAM",
            f"{model.footprint_fraction_of_dram() * 100:.3f}%",
            "<1%",
        ],
    ]
    print()
    print(render_table(["Quantity", "measured", "paper"], rows))

    assert model.bytes_per_block == 52
    assert footprint < 8 * 1024 * 1024
    assert model.footprint_fraction_of_dram() < 0.01

    # Cross-check Equation 2 against the *runtime* accounting: a scheme
    # holding N records reports N x 52 B plus only the open-block staging.
    scheme = QstrMedScheme(PAPER_GEOMETRY, lanes=[0, 1])
    rng = np.random.default_rng(derive_seed(0, "bench", "overhead_space"))
    count = 8
    for lane in (0, 1):
        for block in range(count):
            matrix = rng.normal(1700, 10, size=(96, 4))
            record = GatheringUnit(PAPER_GEOMETRY).gather_measurement(lane, 0, block, matrix)
            scheme.register_free_block(record)
    assert scheme.metadata_bytes() == 2 * count * model.bytes_per_block
