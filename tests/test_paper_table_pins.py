"""Paper-scale pins of Tables I, II and V: every method's exact outcome.

The frame tests hold the window search to its references on small random
pools; these pin RANDOM and the twelve directions the ``paper_tables``
benchmark runs on two paper-geometry draws of four chips.  The first draw's
pools hold 122-123 blocks and the second's 123, so every window size (8, 6,
4, 2) ends on a narrow last window in one of them.  The windowed directions
are pinned once more with a 64 KiB chunk bound, so their runs of windows
split into several lockstep chunks.

Each pin is a sha256 over the superblocks' member keys, the ``repr`` of
every extra program and erase latency, and both counters, as
``collect_result`` reports them.  The digests were recorded before the
window search ran its windows in lockstep chunks; a change to any method's
picks, values or accounting shows here.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

import pytest

import repro.assembly.base as assembly_base
from repro.assembly import LanePool, WindowedAssembler, collect_result
from repro.exp import SimConfig
from repro.exp.build import build_stack
from repro.exp.methods import make_assembler

DRAWS = (
    SimConfig.testbed(seed=2024, pool_blocks=123),
    SimConfig.testbed(seed=7, pool_blocks=123, pe_cycles=3000),
)

#: method -> (digest on the first draw, digest on the second)
PINS: Dict[str, Tuple[str, str]] = {
    "RANDOM": (
        "0357428b1c451de59529f71099d800d3a841681d683fcb54ae3dd9347766c711",
        "5e556ddf6bd8b87972339e44599e7202d3924d7124c39f861d80a7522976afe7",
    ),
    "SEQUENTIAL": (
        "e4550b9fbbcc4dd75678bf326854120c5ef9acb2cc13ed9b90027cdd8f8ff9ad",
        "a1ffbdb2754f2addc1a60854196c45b1481b4e4bb51f3506b045a378f1398aa8",
    ),
    "ERS-LTN": (
        "616f97640d1b1ef5932ce391cedbd9c891eda435291537cb8876c1c31ae04ee5",
        "f31ec92e871529be1049555e896519de41047b8429746d93ca97c782b3fa891f",
    ),
    "PGM-LTN": (
        "63f6b79761ae9de8f4525eb6e5d68efcf49f135308c3804e81875a03cf3f18dd",
        "de6316d1fbfcee06c00559820c1b8c53b74d92c9bfabdd47e7416548ac3c35bc",
    ),
    "OPTIMAL(8)": (
        "ba49fda373ad23add26b1d67b4e04fa71e70e958f6798bbe4b3f45a846708cb1",
        "ddeaf6cf7330ab7895b10e2a996b37a1880bfb95a1b927be3302df61993844d0",
    ),
    "LWL-RANK(8)": (
        "85417d5077f7e4ea0aa9760144ef5a1a42c38cd58c8d6b9597ae6ef666fca2f1",
        "16f1c443a84559223d30b08e2115d12451ede72326681ce7d55007b93f4cb29c",
    ),
    "PWL-RANK(8)": (
        "07dd58bf3b097c711efae04b99f84193c5df5f115a2f49d964669ee8a9e6b2bf",
        "217feda2d521820108d4154f626c8acc49fb8110bbdde64c296cd303c6d6ea37",
    ),
    "STR-RANK(8)": (
        "70588863b6e892fefd98d21ff1b023c14f48c2fa689746f42bcb6c1043ed37e8",
        "43e60dff317fcf614725632e4ce488777e3a165a41ab4e04121f05d90b664151",
    ),
    "STR-MED(4)": (
        "cd41d256e3bc1c62af00bd7d892aa1f3f0a076a8bc68b90f90e24592aff2d100",
        "ec19b48d627e553d5bd3cc1c759e139fdf98fd6686f248b6eae8787ab965499d",
    ),
    "STR-RANK(6)": (
        "7c262ad93b1b4cccebcbcc252c455c36c2a35a8c052eb7492c94fb8d4e5db263",
        "7d17c156330e4ea2126b999d9979a9370d2aaa8dfef4eedb52e1e624e96f2dc2",
    ),
    "STR-RANK(4)": (
        "8260f92092e4cca029dec7c80cbc8115315aa5a742bb21b836813f1ef0644d4b",
        "27e975da09f72d57580a179a553eb62612769359591320026fe0f0339696e890",
    ),
    "STR-RANK(2)": (
        "566ecd9389663392f405fd25aeadebfa02ddbf0dd748d3a553700e3d5581b6cc",
        "fbd90289d265b8426723767a29906623f8c718f7b4f7deb083d5a320ecc196b3",
    ),
    "QSTR-MED(4)": (
        "06ff2e9ec91c6207fec8d821e0aad5df689389da9aab716254e4aab9e7622102",
        "fbc5c8334891fc08671bc1fe1c9da2e7a22eb6fb02bd7410918248cc5b9863e5",
    ),
}


@pytest.fixture(scope="module")
def draws() -> List[List[LanePool]]:
    return [build_stack(config).pools() for config in DRAWS]


def _fingerprint(pools: List[LanePool], name: str) -> str:
    assembler = make_assembler(name)
    superblocks = assembler.assemble(pools)
    result = collect_result(name, superblocks, assembler)
    digest = hashlib.sha256()
    digest.update(repr([sb.member_keys() for sb in superblocks]).encode())
    digest.update(repr(result.extra_program_us).encode())
    digest.update(repr(result.extra_erase_us).encode())
    digest.update(repr((result.combinations_checked, result.pair_checks)).encode())
    return digest.hexdigest()


def test_draws_end_every_window_size_on_a_narrow_window(draws):
    counts = [min(len(pool) for pool in pools) for pools in draws]
    for window in (8, 6, 4, 2):
        assert any(count % window for count in counts), (counts, window)


@pytest.mark.parametrize("name", sorted(PINS))
def test_paper_scale_outcome_is_pinned(draws, name):
    got = tuple(_fingerprint(pools, name) for pools in draws)
    assert got == PINS[name], f"{name}: outcome changed at paper scale"


WINDOWED = sorted(
    name for name in PINS if isinstance(make_assembler(name), WindowedAssembler)
)


@pytest.mark.parametrize("name", WINDOWED)
def test_paper_scale_outcome_holds_across_chunks(draws, name, monkeypatch):
    monkeypatch.setattr(assembly_base, "CHUNK_BYTES", 1 << 16)
    got = tuple(_fingerprint(pools, name) for pools in draws)
    assert got == PINS[name], f"{name}: outcome changed with smaller chunks"
