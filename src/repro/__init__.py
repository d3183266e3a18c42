"""repro — reproduction of "Are Superpages Super-fast?" (HPCA 2024).

Process-variation-aware superblock organization for SSDs: the QSTR-MED
scheme (eigen-sequence similarity check, on-demand fast/slow superblock
assembly, function-based data placement), the eight assembly directions it
was distilled from, and the full substrate needed to evaluate them — a
generative 3D-NAND process-variation model, a characterization harness, a
superblock FTL with GC, an SSD timing layer, and workload generators.

Importing this package loads nothing else; import each name from the
package that exports it.  Quickstart::

    from repro.assembly import RandomAssembler, build_lane_pools, evaluate_assembler
    from repro.core import QstrMedAssembler
    from repro.nand import PAPER_GEOMETRY, FlashChip, VariationModel, VariationParams

    model = VariationModel(PAPER_GEOMETRY, VariationParams(), seed=2024)
    chips = [FlashChip(model.chip_profile(c), PAPER_GEOMETRY) for c in range(4)]
    pools = build_lane_pools(chips, range(100))
    baseline = evaluate_assembler(RandomAssembler(seed=1), pools)
    qstr = evaluate_assembler(QstrMedAssembler(4), pools)
    print(qstr.program_improvement_vs(baseline))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

__version__ = "1.0.0"
