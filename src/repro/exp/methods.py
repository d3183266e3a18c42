"""Assembly-method registry and memoized evaluation.

One place maps the paper's method names — ``"STR-RANK(8)"``,
``"QSTR-MED(4)"``, … — to assembler constructors, replacing the drifted
per-module copies that used to live in ``analysis.experiments`` and
``benchmarks/conftest.py``.  Windowed methods accept any window size in the
name, so sweeps can scan ``STR-RANK(2..8)`` without touching a registry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.assembly import (
    Assembler,
    ErsLatencyAssembler,
    LanePool,
    LwlRankAssembler,
    MethodResult,
    OptimalAssembler,
    PgmLatencyAssembler,
    PwlRankAssembler,
    RandomAssembler,
    SequentialAssembler,
    StrMedianAssembler,
    StrRankAssembler,
    evaluate_assembler,
)
from repro.core import QstrMedAssembler

#: methods with no window parameter; ``RANDOM`` takes the evaluation seed.
_PLAIN_METHODS: Dict[str, Callable[[int], Assembler]] = {
    "RANDOM": lambda seed: RandomAssembler(seed=seed),
    "SEQUENTIAL": lambda seed: SequentialAssembler(),
    "ERS-LTN": lambda seed: ErsLatencyAssembler(),
    "PGM-LTN": lambda seed: PgmLatencyAssembler(),
}

#: windowed methods, named ``BASE(window)``.
_WINDOWED_METHODS: Dict[str, Callable[[int], Assembler]] = {
    "OPTIMAL": OptimalAssembler,
    "LWL-RANK": LwlRankAssembler,
    "PWL-RANK": PwlRankAssembler,
    "STR-RANK": StrRankAssembler,
    "STR-MED": StrMedianAssembler,
    "QSTR-MED": QstrMedAssembler,
}

_WINDOWED_NAME = re.compile(r"^([A-Z-]+)\((\d+)\)$")

#: default method set of the ``methods`` sweep task (the Table V headline rows).
DEFAULT_METHODS: Tuple[str, ...] = (
    "SEQUENTIAL",
    "OPTIMAL(8)",
    "QSTR-MED(4)",
    "STR-MED(4)",
)


def method_names() -> List[str]:
    """Every recognized method spelling (windowed ones at the paper's sizes)."""
    names = sorted(_PLAIN_METHODS)
    names += [f"{base}(4)" for base in sorted(_WINDOWED_METHODS)]
    return names


def make_assembler(name: str, seed: int = 1) -> Assembler:
    """Build the assembler a method name denotes.

    ``seed`` only affects ``RANDOM`` (the paper's baseline keeps seed 1 so
    every method is compared on identical random draws).
    """
    plain = _PLAIN_METHODS.get(name)
    if plain is not None:
        return plain(seed)
    match = _WINDOWED_NAME.match(name)
    if match is not None:
        base, window = match.group(1), int(match.group(2))
        factory = _WINDOWED_METHODS.get(base)
        if factory is not None:
            return factory(window)
    known = ", ".join(sorted(_PLAIN_METHODS) + sorted(_WINDOWED_METHODS))
    raise ValueError(f"unknown method {name!r} (known: {known}, windowed as NAME(w))")


@dataclass
class MethodRow:
    """One table row: a method's outcome next to the shared baseline."""

    name: str
    result: MethodResult
    baseline: MethodResult

    @property
    def reduction_us(self) -> float:
        return self.result.program_reduction_vs(self.baseline)

    @property
    def improvement_pct(self) -> float:
        return self.result.program_improvement_vs(self.baseline)

    @property
    def erase_improvement_pct(self) -> float:
        return self.result.erase_improvement_vs(self.baseline)


class MethodEvaluator:
    """Lazy, memoized per-method evaluation over one set of pools.

    The random baseline (seed ``seed``) is evaluated once and shared by
    every row, matching the paper's methodology: all methods are judged
    against identical random superblocks.
    """

    def __init__(self, pools: Sequence[LanePool], seed: int = 1) -> None:
        self._pools = pools
        self._seed = seed
        self._cache: Dict[str, MethodResult] = {}

    def result(self, name: str) -> MethodResult:
        if name not in self._cache:
            self._cache[name] = evaluate_assembler(
                make_assembler(name, seed=self._seed), self._pools
            )
        return self._cache[name]

    def row(self, name: str) -> MethodRow:
        return MethodRow(
            name=name, result=self.result(name), baseline=self.result("RANDOM")
        )

    def rows(self, names: Iterable[str]) -> Dict[str, MethodRow]:
        return {name: self.row(name) for name in names}
