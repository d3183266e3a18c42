"""Ablation: QSTR-MED candidate depth (the paper fixes it at 4).

Depth 1 degenerates to the plain program-latency sort; deeper candidate
lists give the reference block more partners to match, at linearly more
pair checks.  Diminishing returns justify the paper's choice of 4.
"""

from repro.analysis.tables import render_table
from repro.assembly import evaluate_assembler
from repro.core import QstrMedAssembler

DEPTHS = (1, 2, 4, 8)


def test_ablation_candidate_depth(benchmark, pools, evaluator):
    def run():
        return {
            depth: evaluate_assembler(QstrMedAssembler(depth), pools)
            for depth in DEPTHS
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    baseline = evaluator.result("RANDOM")

    body = []
    imp = {}
    for depth in DEPTHS:
        result = results[depth]
        imp[depth] = result.program_improvement_vs(baseline)
        body.append(
            [
                f"depth {depth}",
                f"{imp[depth]:.2f}%",
                f"{result.mean_extra_erase_us:.2f}",
                f"{result.pair_checks / result.superblock_count:.1f}",
            ]
        )
    print()
    print(render_table(["QSTR-MED", "PGM imp", "extra ERS us", "pair checks/SB"], body))

    # Depth helps: 4 clearly beats 1; 8 adds little over 4.
    assert imp[4] > imp[1] + 2.0
    assert imp[8] - imp[4] < (imp[4] - imp[1]) * 0.5
    # All depths beat random.
    assert all(v > 0 for v in imp.values())
