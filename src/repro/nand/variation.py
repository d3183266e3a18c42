"""Generative process-variation model for 3D NAND latencies.

This module is the repo's substitute for the paper's 24 physical SK hynix
chips (DESIGN.md Section 2).  It synthesizes per-word-line program latencies
and per-block erase latencies with the statistical structure the paper's
characterization (Section III, Figure 5) reports:

* **Quantized latencies** — program/erase complete in whole ISPP pulse /
  erase-loop quanta, so nearby word-lines often share exactly the same
  latency (the flat line segments of Figure 5).
* **Common layer shape** — the V-shaped bit-line channel makes latency a
  strong, chip-independent function of the PWL layer.  Common structure
  cancels in *extra latency* (a max-min across chips) but dominates the raw
  tPROG curves.
* **Chip-level word-line profile** — each chip deviates from the common
  layer shape by its own smooth profile.  No block choice can remove this
  component, which is why even the paper's brute-force OPTIMAL assembly only
  reclaims ~19.5% of the random extra latency.
* **Block speed offsets** — each block is uniformly faster/slower; part of
  this offset is a wafer-level drift along the block index shared by all
  chips (this is what makes SEQUENTIAL assembly worth ~10%), the rest is
  per-chip residual (what the PGM-latency sort recovers).
* **String patterns** — vendor layer-grouping leaves each block with a
  per-(layer-group, string) speed *pattern*: a mixture of a few wafer-shared
  basis patterns weighted by the block's latent coordinates.  Coordinates
  form a continuum — blocks are similar to the degree their coordinates are
  close — and drift slowly along the block index (wafer-shared plus per-chip
  smooth components).  Matching patterns is exactly what the STR-rank /
  STR-MED / QSTR-MED eigen-sequence machinery recovers coarsely, and what
  the brute-force OPTIMAL matches exactly.
* **Erase coupling** — erase latency is driven by the block's per-chip
  residual speed offset and its latent string-pattern coordinate (both of
  which program-similarity grouping aligns), plus chip-level and private
  noise terms that bound the achievable reduction.  It deliberately does
  NOT follow the wafer-level program drift, which is why sequential
  assembly barely improves erase (Table V).
* **Wear** — per-block aging slopes (program speeds up, erase slows down
  with P/E cycles) whose block-to-block spread grows the random extra
  latency at high P/E while similarity-aware grouping keeps tracking it
  (Figure 15).

All latencies are microseconds.  Everything is deterministic in
``(root seed, chip id, plane, block, P/E count)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Tuple, Union

import numpy as np

from repro.nand.geometry import NandGeometry, PageType
from repro.nand.reliability import ReliabilityParams, rber
from repro.perf.profiler import profiled
from repro.utils.rng import RngFactory


@dataclass(frozen=True)
class VariationParams:
    """Magnitudes of every variation component (µs unless noted).

    Defaults are calibrated (see EXPERIMENTS.md) so that superblocks of four
    chips reproduce the paper's headline numbers: random extra program
    latency ~13,000 µs per superblock, random extra erase latency ~42 µs,
    and the method ordering of Tables I/II/V.
    """

    # -- program latency ----------------------------------------------------
    base_prog_us: float = 1665.0
    layer_shape_amp_us: float = 250.0
    sigma_chip_offset_us: float = 3.0
    sigma_plane_offset_us: float = 1.8
    sigma_chip_profile_us: float = 7.0
    profile_smooth_layers: float = 5.0
    sigma_block_layer_us: float = 8.0
    block_layer_smooth_layers: float = 6.0
    sigma_block_drift_us: float = 7.0
    drift_smooth_blocks: float = 45.0
    sigma_block_resid_us: float = 4.6
    layer_groups: int = 8
    string_basis_count: int = 1
    latent_shared_frac: float = 0.55
    latent_chip_smooth_frac: float = 0.20
    latent_smooth_blocks: float = 40.0
    sigma_string_us: float = 9.8
    sigma_wl_noise_us: float = 6.2
    prog_quant_us: float = 6.1

    # -- erase latency --------------------------------------------------------
    base_ers_us: float = 3500.0
    sigma_chip_ers_us: float = 7.5
    ers_resid_coupling: float = 2.4
    ers_latent_coupling_us: float = 16.0
    sigma_ers_noise_us: float = 4.5
    ers_quant_us: float = 4.0

    # -- read latency -----------------------------------------------------------
    base_read_us: float = 61.0
    sigma_read_us: float = 1.5
    read_quant_us: float = 0.5

    # -- wear (per P/E cycle) -----------------------------------------------------
    prog_pe_slope_us: float = -0.008
    sigma_prog_pe_slope_us: float = 0.0009
    ers_pe_slope_us: float = 0.050
    sigma_ers_pe_slope_us: float = 0.004

    # -- reliability ---------------------------------------------------------------
    endurance_cycles: int = 5000
    endurance_sigma_log: float = 0.12
    factory_bad_ratio: float = 0.002
    reliability: ReliabilityParams = ReliabilityParams()

    def __post_init__(self) -> None:
        if self.string_basis_count < 1:
            raise ValueError("string_basis_count must be >= 1")
        if self.latent_shared_frac < 0 or self.latent_chip_smooth_frac < 0:
            raise ValueError("latent variance fractions must be non-negative")
        if self.latent_shared_frac + self.latent_chip_smooth_frac > 1.0:
            raise ValueError("latent variance fractions must sum to <= 1")
        if self.prog_quant_us <= 0 or self.ers_quant_us <= 0:
            raise ValueError("quantization steps must be positive")
        if self.layer_groups < 1:
            raise ValueError("layer_groups must be >= 1")
        if self.endurance_cycles <= 0:
            raise ValueError("endurance_cycles must be positive")

    def scaled_noise(self, factor: float) -> "VariationParams":
        """A copy with all *noise-like* terms scaled — used in ablations."""
        return replace(
            self,
            sigma_wl_noise_us=self.sigma_wl_noise_us * factor,
            sigma_ers_noise_us=self.sigma_ers_noise_us * factor,
        )


def _smooth_noise(rng: np.random.Generator, length: int, sigma: float, smooth: float) -> np.ndarray:
    """Gaussian field with pointwise std ``sigma`` and correlation scale ``smooth``.

    White noise convolved with an L2-normalized Gaussian kernel: the output
    has *exactly* std ``sigma`` at every point and zero mean in expectation,
    for any field length (short fields — e.g. the block axis of a scaled-down
    test geometry — must not pick up spurious offsets or inflated variance).
    """
    if length <= 0:
        return np.zeros(0)
    if smooth <= 1.0:
        return rng.normal(0.0, sigma, size=length)
    radius = max(1, int(round(3 * smooth)))
    kernel = np.exp(-0.5 * (np.arange(-radius, radius + 1) / smooth) ** 2)
    kernel /= math.sqrt(float((kernel**2).sum()))
    raw = rng.normal(0.0, 1.0, size=length + 2 * radius)
    return np.convolve(raw, kernel, mode="valid") * sigma


def _quantize(values: Union[float, "np.ndarray"], step: float) -> "np.ndarray":
    """Snap to the physical pulse/loop quantum."""
    return np.round(np.asarray(values, dtype=float) / step) * step


class SharedWaferField:
    """Wafer/lot-level structure shared by every chip of a model instance."""

    def __init__(self, geometry: NandGeometry, params: VariationParams, rng_factory: RngFactory) -> None:
        self._geometry = geometry
        self._params = params
        layers = geometry.layers_per_block
        blocks = geometry.blocks_per_plane

        shape_rng = rng_factory.generator("wafer", "layer_shape")
        # V-shape channel: larger apertures (faster programming) near the top,
        # tightest (slowest) near the bottom, plus a smooth common ripple.
        positions = np.linspace(-1.0, 1.0, layers)
        vee = params.layer_shape_amp_us * (positions**2 - positions.mean() ** 2)
        ripple = _smooth_noise(shape_rng, layers, params.layer_shape_amp_us * 0.15, 6.0)
        self.layer_shape = vee + ripple - (vee + ripple).mean()

        drift_rng = rng_factory.generator("wafer", "block_drift")
        self.block_drift = _smooth_noise(
            drift_rng, blocks, params.sigma_block_drift_us, params.drift_smooth_blocks
        )

        # String-pattern basis: each block's per-(layer-group, string) speed
        # pattern is a mixture of a few wafer-shared basis patterns weighted
        # by the block's *latent coordinates* (a continuum — two blocks are
        # similar to the degree their coordinates are close, there are no
        # discrete "families").  Rows are centered per (basis, group) so a
        # string pattern reorders word-lines within a layer without shifting
        # the block's mean latency.
        basis_rng = rng_factory.generator("wafer", "string_basis")
        strings = geometry.strings_per_layer
        d = params.string_basis_count
        basis = basis_rng.normal(
            0.0, 1.0, size=(d, params.layer_groups, strings)
        )
        basis -= basis.mean(axis=2, keepdims=True)
        # Normalize so a unit-variance latent vector yields string effects of
        # std ~ sigma_string_us overall.
        energy = math.sqrt(float((basis**2).sum(axis=0).mean()))
        if energy > 0:
            basis *= params.sigma_string_us / energy
        self.string_basis = basis

        # Wafer-shared latent drift along the block index: nearby blocks on
        # *any* chip lean toward the same string pattern (this is what makes
        # SEQUENTIAL assembly worth ~10%).
        latent_rng = rng_factory.generator("wafer", "latent_drift")
        self.latent_drift = np.stack(
            [
                _smooth_noise(latent_rng, blocks, 1.0, params.latent_smooth_blocks)
                for _ in range(d)
            ]
        )  # (d, blocks), unit variance per component

        # Fixed direction coupling the latent coordinates into erase latency,
        # so pattern-similar blocks also erase alike.
        dir_rng = rng_factory.generator("wafer", "ers_latent_dir")
        direction = dir_rng.normal(0.0, 1.0, size=d)
        norm = float(np.linalg.norm(direction))
        self.ers_latent_dir = direction / norm if norm > 0 else direction

        groups = params.layer_groups
        bounds = np.linspace(0, layers, groups + 1).astype(int)
        group_of_layer = np.zeros(layers, dtype=int)
        for g in range(groups):
            group_of_layer[bounds[g] : bounds[g + 1]] = g
        self.group_of_layer = group_of_layer


class ChipVariationProfile:
    """All latency behaviour of one physical chip.

    The only public surface the rest of the system should use is the latency
    accessors; :meth:`block_latent` exposes the generative ground truth for
    tests and analysis and must never be read by an assembly policy.
    """

    def __init__(
        self,
        chip_id: int,
        geometry: NandGeometry,
        params: VariationParams,
        shared: SharedWaferField,
        rng_factory: RngFactory,
    ) -> None:
        self.chip_id = chip_id
        self._geometry = geometry
        self._params = params
        self._shared = shared
        self._rng = rng_factory.child("chip", chip_id)

        chip_rng = self._rng.generator("statics")
        self._chip_offset = float(chip_rng.normal(0.0, params.sigma_chip_offset_us))
        self._plane_offset = chip_rng.normal(
            0.0, params.sigma_plane_offset_us, size=geometry.planes_per_chip
        )
        self._chip_profile = _smooth_noise(
            self._rng.generator("profile"),
            geometry.layers_per_block,
            params.sigma_chip_profile_us,
            params.profile_smooth_layers,
        )
        self._chip_ers_offset = float(chip_rng.normal(0.0, params.sigma_chip_ers_us))
        # layer-to-layer reliability texture (log-space), smooth like the
        # latency profile: some layers are leakier than others
        self._rber_layer_log = _smooth_noise(
            self._rng.generator("rber_layers"),
            geometry.layers_per_block,
            params.reliability.sigma_layer_log,
            6.0,
        )

        # Per-chip smooth latent deviation along the block index (shared by
        # the chip's planes): blocks of one chip resemble each other more
        # than blocks of different chips — the paper's process similarity.
        latent_rng = self._rng.generator("latent_chip")
        self._latent_chip = np.stack(
            [
                _smooth_noise(
                    latent_rng,
                    geometry.blocks_per_plane,
                    1.0,
                    params.latent_smooth_blocks,
                )
                for _ in range(params.string_basis_count)
            ]
        )  # (d, blocks)

        self._block_cache: Dict[Tuple[int, int], "_BlockStatics"] = {}
        self._noise_cache: Dict[tuple, np.ndarray] = {}
        self._latency_cache: Dict[Tuple[int, int, int], np.ndarray] = {}
        #: tR by LWL: it depends on the chip and the LWL's layer alone
        self._read_latencies: Dict[int, float] = {}

    # -- per-block static draws ------------------------------------------------

    def _block_statics(self, plane: int, block: int) -> "_BlockStatics":
        key = (plane, block)
        cached = self._block_cache.get(key)
        if cached is not None:
            return cached
        params = self._params
        rng = self._rng.generator("block", plane, block)
        shared_frac = params.latent_shared_frac
        chip_frac = params.latent_chip_smooth_frac
        white_frac = max(0.0, 1.0 - shared_frac - chip_frac)
        latent = (
            math.sqrt(shared_frac) * self._shared.latent_drift[:, block]
            + math.sqrt(chip_frac) * self._latent_chip[:, block]
            + math.sqrt(white_frac)
            * rng.normal(0.0, 1.0, size=params.string_basis_count)
        )
        rel = params.reliability
        statics = _BlockStatics(
            latent=latent,
            rber_log=float(
                rng.normal(0.0, rel.sigma_block_log)
                + rel.latent_log_coupling * float(latent[0])
            ),
            resid_offset=float(rng.normal(0.0, params.sigma_block_resid_us)),
            prog_pe_slope=params.prog_pe_slope_us
            + float(rng.normal(0.0, params.sigma_prog_pe_slope_us)),
            ers_pe_slope=params.ers_pe_slope_us
            + float(rng.normal(0.0, params.sigma_ers_pe_slope_us)),
            ers_noise=float(rng.normal(0.0, params.sigma_ers_noise_us)),
            factory_bad=bool(rng.random() < params.factory_bad_ratio),
            endurance=int(
                round(
                    params.endurance_cycles
                    * math.exp(rng.normal(0.0, params.endurance_sigma_log))
                )
            ),
        )
        self._block_cache[key] = statics
        return statics

    def _block_layer_profile(self, plane: int, block: int) -> np.ndarray:
        """Per-block vertical-channel deviation: one smooth offset per layer.

        Constant across the strings of a layer, so it never changes
        within-layer string orderings (STR signatures are immune), but it
        scrambles layer orderings (what LWL-/PWL-rank compare) and is
        private to the block (no assembly policy can align it).
        """
        key = ("blklayer", plane, block)
        cached = self._noise_cache.get(key)
        if cached is not None:
            return cached
        params = self._params
        profile = _smooth_noise(
            self._rng.generator("block_layer", plane, block),
            self._geometry.layers_per_block,
            params.sigma_block_layer_us,
            params.block_layer_smooth_layers,
        )
        profile -= profile.mean()
        self._noise_cache[key] = profile
        return profile

    def _wl_noise(self, plane: int, block: int) -> np.ndarray:
        key = (plane, block)
        cached = self._noise_cache.get(key)
        if cached is not None:
            return cached
        geometry = self._geometry
        rng = self._rng.generator("wl_noise", plane, block)
        noise = rng.normal(
            0.0,
            self._params.sigma_wl_noise_us,
            size=(geometry.layers_per_block, geometry.strings_per_layer),
        )
        self._noise_cache[key] = noise
        return noise

    # -- latency accessors --------------------------------------------------------

    @profiled("nand.variation")
    def block_program_latencies(self, plane: int, block: int, pe: int = 0) -> np.ndarray:
        """tPROG of every LWL in a block, shape ``(layers, strings)``, µs.

        The returned array is cached and must be treated as read-only.
        """
        cached = self._latency_cache.get((plane, block, pe))
        if cached is not None:
            return cached
        geometry = self._geometry
        geometry.check_plane(plane)
        geometry.check_block(block)
        params = self._params
        shared = self._shared
        statics = self._block_statics(plane, block)

        base = (
            params.base_prog_us
            + self._chip_offset
            + self._plane_offset[plane]
            + shared.block_drift[block]
            + statics.resid_offset
            + statics.prog_pe_slope * pe
        )
        per_layer = (
            shared.layer_shape
            + self._chip_profile
            + self._block_layer_profile(plane, block)
        )  # (layers,)
        # String pattern: the block's latent coordinates mix the wafer-shared
        # basis patterns into a per-(layer group, string) speed offset.
        pattern = np.tensordot(statics.latent, shared.string_basis, axes=1)
        string_eff = pattern[shared.group_of_layer]  # (layers, strings)
        raw = base + per_layer[:, None] + string_eff + self._wl_noise(plane, block)
        latencies = _quantize(raw, params.prog_quant_us)
        latencies.setflags(write=False)
        if len(self._latency_cache) >= 8192:
            self._latency_cache.clear()
        self._latency_cache[(plane, block, pe)] = latencies
        return latencies

    def program_latency(self, plane: int, block: int, layer: int, string: int, pe: int = 0) -> float:
        """tPROG of a single LWL, µs."""
        self._geometry.check_layer(layer)
        self._geometry.check_string(string)
        return float(self.block_program_latencies(plane, block, pe)[layer, string])

    def block_program_total(self, plane: int, block: int, pe: int = 0) -> float:
        """Sum of all LWL tPROG in the block (the paper's BLK PGM LTN), µs."""
        return float(self.block_program_latencies(plane, block, pe).sum())

    def erase_latency(self, plane: int, block: int, pe: int = 0) -> float:
        """tBERS of a block, µs."""
        geometry = self._geometry
        geometry.check_plane(plane)
        geometry.check_block(block)
        params = self._params
        statics = self._block_statics(plane, block)
        # Erase speed is driven by the block's local electrical properties:
        # the per-chip residual speed offset and the latent string-pattern
        # coordinates (both of which program-similarity grouping aligns),
        # NOT the wafer-level program-drift pattern — which is why the
        # sequential assembly barely improves erase (Table V).
        raw = (
            params.base_ers_us
            + self._chip_ers_offset
            + params.ers_resid_coupling * statics.resid_offset
            + params.ers_latent_coupling_us
            * float(statics.latent @ self._shared.ers_latent_dir)
            + statics.ers_noise
            + statics.ers_pe_slope * pe
        )
        return float(_quantize(raw, params.ers_quant_us))

    def read_latency(self, plane: int, block: int, lwl: int) -> float:
        """tR of a page, µs (mild layer dependence plus chip offset).

        Neither term depends on the plane or block, so the value is memoized
        per LWL, after the argument checks.
        """
        geometry = self._geometry
        geometry.check_plane(plane)
        geometry.check_block(block)
        geometry.check_lwl(lwl)
        latency = self._read_latencies.get(lwl)
        if latency is not None:
            return latency
        params = self._params
        layer, _ = geometry.lwl_components(lwl)
        layer_term = self._shared.layer_shape[layer] / params.layer_shape_amp_us
        raw = (
            params.base_read_us
            + 0.02 * self._chip_offset
            + params.sigma_read_us * layer_term
        )
        latency = self._read_latencies[lwl] = float(_quantize(raw, params.read_quant_us))
        return latency

    # -- reliability ------------------------------------------------------------------

    def page_rber(
        self,
        plane: int,
        block: int,
        lwl: int,
        page_type: PageType,
        pe: int = 0,
        retention_hours: float = 0.0,
    ) -> float:
        """Raw bit error rate of one page right now."""
        geometry = self._geometry
        geometry.check_plane(plane)
        geometry.check_block(block)
        geometry.check_lwl(lwl)
        geometry.check_page_type(page_type)
        layer, _ = geometry.lwl_components(lwl)
        statics = self._block_statics(plane, block)
        return rber(
            self._params.reliability,
            pe=pe,
            retention_hours=retention_hours,
            page_type=page_type,
            layer_factor_log=float(self._rber_layer_log[layer]),
            block_factor_log=statics.rber_log,
        )

    def is_factory_bad(self, plane: int, block: int) -> bool:
        self._geometry.check_plane(plane)
        self._geometry.check_block(block)
        return self._block_statics(plane, block).factory_bad

    def endurance_limit(self, plane: int, block: int) -> int:
        """P/E cycles this block survives before erase failure."""
        return self._block_statics(plane, block).endurance

    # -- ground truth (tests/analysis only) ----------------------------------------------

    def block_latent(self, plane: int, block: int) -> np.ndarray:
        """Latent string-pattern coordinates.  Never consult from a policy."""
        return self._block_statics(plane, block).latent.copy()


@dataclass
class _BlockStatics:
    latent: np.ndarray
    rber_log: float
    resid_offset: float
    prog_pe_slope: float
    ers_pe_slope: float
    ers_noise: float
    factory_bad: bool
    endurance: int


class VariationModel:
    """Factory of :class:`ChipVariationProfile` sharing one wafer field."""

    def __init__(
        self,
        geometry: NandGeometry,
        params: VariationParams = None,
        seed: int = 2024,
    ) -> None:
        self.geometry = geometry
        self.params = params if params is not None else VariationParams()
        self.seed = seed
        self._factory = RngFactory(seed)
        self._shared = SharedWaferField(geometry, self.params, self._factory)
        self._profiles: Dict[int, ChipVariationProfile] = {}

    def chip_profile(self, chip_id: int) -> ChipVariationProfile:
        """The (cached) variation profile of chip ``chip_id``."""
        profile = self._profiles.get(chip_id)
        if profile is None:
            profile = ChipVariationProfile(
                chip_id, self.geometry, self.params, self._shared, self._factory
            )
            self._profiles[chip_id] = profile
        return profile

    @property
    def shared_field(self) -> SharedWaferField:
        return self._shared
