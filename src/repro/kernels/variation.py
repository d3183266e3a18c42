"""Batch twins of the per-page latency/variation model (Section III).

The scalar reference is :class:`repro.nand.variation.ChipVariationProfile`:
one ``(layers, strings)`` latency matrix per ``(plane, block, pe)``, one
erase latency per block.  The kernels here assemble *stacks* of those
matrices and reduce them the way the FTL's MP-program hot path does:

* completion of super word-line ``lwl`` = max over member latencies,
* extra latency = max - min (the gap the paper optimizes),
* slowest/fastest member = first argmax/argmin (Python ``max(range, key)``
  tie-break),
* block program total = the *sequential* left-to-right sum the gathering
  unit accumulates (``np.cumsum`` pairs operands in exactly that order,
  unlike ``np.sum``'s pairwise reduction — see DESIGN.md §13); that fold
  lives with the gathering unit,
  :func:`repro.core.gathering.block_program_totals`.

Erase latencies batch the scalar chain with the identical binary-operation
order, elementwise, so results are bit-identical to
:meth:`ChipVariationProfile.erase_latency`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.nand.variation import ChipVariationProfile, _quantize


def block_latency_stack(
    profile: ChipVariationProfile,
    plane: int,
    blocks: Sequence[int],
    pe: Union[int, Sequence[int]] = 0,
) -> np.ndarray:
    """Program-latency matrices of several blocks, shape ``(k, layers, strings)``.

    ``pe`` is one cycle count for all blocks or one per block.  Rows are the
    profile's own cached (read-only) matrices stacked, so each row is
    *exactly* ``block_program_latencies(plane, block, pe)``.
    """
    pe_list = [pe] * len(blocks) if isinstance(pe, int) else list(pe)
    if len(pe_list) != len(blocks):
        raise ValueError("pe must be an int or match blocks in length")
    if not blocks:
        geometry = profile._geometry
        return np.zeros(
            (0, geometry.layers_per_block, geometry.strings_per_layer)
        )
    return np.stack(
        [
            profile.block_program_latencies(plane, block, cycles)
            for block, cycles in zip(blocks, pe_list)
        ]
    )


@dataclass(frozen=True)
class SuperwlStats:
    """Per-super-word-line MP reductions over one member latency table.

    All arrays have length ``lwls``; ``completion_us[lwl]`` is the max over
    members, ``extra_us`` the max-min gap, ``slowest``/``fastest`` the first
    arg-extreme member index (the scalar ``max(range(n), key=...)``
    tie-break).
    """

    completion_us: np.ndarray
    extra_us: np.ndarray
    slowest: np.ndarray
    fastest: np.ndarray


def superwl_stats(member_latencies: np.ndarray) -> SuperwlStats:
    """MP-completion statistics of a ``(members, lwls)`` latency table."""
    table = np.asarray(member_latencies, dtype=float)
    if table.ndim != 2:
        raise ValueError(f"expected a (members, lwls) table, got {table.shape}")
    if table.shape[0] == 0:
        raise ValueError("need at least one member lane")
    completion = table.max(axis=0)
    extra = completion - table.min(axis=0)
    return SuperwlStats(
        completion_us=completion,
        extra_us=extra,
        slowest=table.argmax(axis=0),
        fastest=table.argmin(axis=0),
    )


def batch_erase_latencies(
    profile: ChipVariationProfile,
    plane: int,
    blocks: Sequence[int],
    pe: Union[int, Sequence[int]] = 0,
) -> np.ndarray:
    """tBERS of several blocks at once, bit-identical to the scalar chain.

    Gathers each block's static draws (identical cached values the scalar
    accessor uses), then applies the scalar accessor's sum in the same
    left-to-right binary-operation order, elementwise — every IEEE-754
    rounding step matches, so ``out[i] == erase_latency(plane, blocks[i])``.
    """
    pe_list = [pe] * len(blocks) if isinstance(pe, int) else list(pe)
    if len(pe_list) != len(blocks):
        raise ValueError("pe must be an int or match blocks in length")
    if not blocks:
        return np.zeros(0)
    geometry = profile._geometry
    geometry.check_plane(plane)
    for block in blocks:
        geometry.check_block(block)
    params = profile._params
    shared = profile._shared
    statics = [profile._block_statics(plane, block) for block in blocks]
    resid = np.array([s.resid_offset for s in statics])
    # keep the per-block dot product scalar, exactly as the reference does
    latent_dot = np.array(
        [float(s.latent @ shared.ers_latent_dir) for s in statics]
    )
    noise = np.array([s.ers_noise for s in statics])
    slope = np.array([s.ers_pe_slope for s in statics])
    cycles = np.array(pe_list, dtype=float)
    raw = (
        params.base_ers_us
        + profile._chip_ers_offset
        + params.ers_resid_coupling * resid
        + params.ers_latent_coupling_us * latent_dot
        + noise
        + slope * cycles
    )
    return _quantize(raw, params.ers_quant_us)
