"""Process-variation model tests: determinism and statistical structure.

These pin the properties the whole reproduction rests on (DESIGN.md §4):
quantization, within-chip similarity vs cross-chip variation, string-pattern
latents, erase coupling, wear trends.
"""

import math

import numpy as np
import pytest

from repro.nand import PAPER_GEOMETRY, SMALL_GEOMETRY, VariationModel, VariationParams
from repro.nand.variation import _quantize, _smooth_noise


@pytest.fixture(scope="module")
def model():
    return VariationModel(SMALL_GEOMETRY, VariationParams(), seed=99)


class TestParams:
    def test_defaults_valid(self):
        VariationParams()

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            VariationParams(latent_shared_frac=0.8, latent_chip_smooth_frac=0.3)
        with pytest.raises(ValueError):
            VariationParams(latent_shared_frac=-0.1)

    def test_rejects_bad_quant(self):
        with pytest.raises(ValueError):
            VariationParams(prog_quant_us=0)

    def test_rejects_bad_basis(self):
        with pytest.raises(ValueError):
            VariationParams(string_basis_count=0)

    def test_scaled_noise(self):
        params = VariationParams()
        scaled = params.scaled_noise(2.0)
        assert scaled.sigma_wl_noise_us == pytest.approx(2 * params.sigma_wl_noise_us)
        assert scaled.sigma_string_us == params.sigma_string_us


class TestHelpers:
    def test_quantize_grid(self):
        step = 6.1
        values = _quantize(np.array([0.0, 3.0, 6.2, 100.0]), step)
        assert np.allclose(np.round(values / step), values / step)

    def test_smooth_noise_std(self):
        # pointwise std is sigma in expectation: estimate over many fields
        samples = np.concatenate(
            [
                _smooth_noise(np.random.default_rng(i), 50, sigma=4.0, smooth=10.0)
                for i in range(200)
            ]
        )
        assert samples.std() == pytest.approx(4.0, rel=0.05)
        assert abs(samples.mean()) < 0.2

    def test_smooth_noise_short_fields_unbiased(self):
        # Regression: fields much shorter than the smoothing radius must not
        # pick up large mean offsets or inflated variance (this once skewed
        # every scaled-down test geometry).
        means = [
            _smooth_noise(np.random.default_rng(i), 16, sigma=1.0, smooth=40.0).mean()
            for i in range(300)
        ]
        assert abs(np.mean(means)) < 0.15
        assert np.std(means) < 1.5

    def test_smooth_noise_empty(self):
        assert _smooth_noise(np.random.default_rng(0), 0, 1.0, 5.0).size == 0

    def test_smooth_noise_correlation(self):
        rng = np.random.default_rng(0)
        field = _smooth_noise(rng, 2000, sigma=1.0, smooth=20.0)
        lag1 = np.corrcoef(field[:-1], field[1:])[0, 1]
        assert lag1 > 0.9  # heavily smoothed

    def test_smooth_noise_unsmoothed(self):
        rng = np.random.default_rng(0)
        field = _smooth_noise(rng, 100, sigma=2.0, smooth=0.5)
        assert field.shape == (100,)


class TestDeterminism:
    def test_same_seed_identical(self):
        a = VariationModel(SMALL_GEOMETRY, VariationParams(), seed=5)
        b = VariationModel(SMALL_GEOMETRY, VariationParams(), seed=5)
        la = a.chip_profile(0).block_program_latencies(0, 3)
        lb = b.chip_profile(0).block_program_latencies(0, 3)
        assert np.array_equal(la, lb)
        assert a.chip_profile(1).erase_latency(1, 7) == b.chip_profile(1).erase_latency(1, 7)

    def test_different_seed_differs(self):
        a = VariationModel(SMALL_GEOMETRY, VariationParams(), seed=5)
        b = VariationModel(SMALL_GEOMETRY, VariationParams(), seed=6)
        assert not np.array_equal(
            a.chip_profile(0).block_program_latencies(0, 3),
            b.chip_profile(0).block_program_latencies(0, 3),
        )

    def test_cache_returns_same_array(self, model):
        profile = model.chip_profile(0)
        first = profile.block_program_latencies(0, 1)
        second = profile.block_program_latencies(0, 1)
        assert first is second
        assert not first.flags.writeable

    def test_chip_profile_cached(self, model):
        assert model.chip_profile(2) is model.chip_profile(2)


def _reference_smooth_noise(rng, length, sigma, smooth):
    """``_smooth_noise`` as first written: the kernel built on every call."""
    if length <= 0:
        return np.zeros(0)
    if smooth <= 1.0:
        return rng.normal(0.0, sigma, size=length)
    radius = max(1, int(round(3 * smooth)))
    kernel = np.exp(-0.5 * (np.arange(-radius, radius + 1) / smooth) ** 2)
    kernel /= math.sqrt(float((kernel**2).sum()))
    raw = rng.normal(0.0, 1.0, size=length + 2 * radius)
    return np.convolve(raw, kernel, mode="valid") * sigma


def _reference_program_latencies(profile, plane, block, pe):
    """The per-block arithmetic of ``block_program_latencies``, nothing hoisted.

    Every term is rebuilt from the profile's RNG streams and static draws,
    and summed left to right in the original order.
    """
    params, shared, geometry = profile._params, profile._shared, profile._geometry
    statics = profile._block_statics(plane, block)
    chip_profile = _reference_smooth_noise(
        profile._rng.generator("profile"),
        geometry.layers_per_block,
        params.sigma_chip_profile_us,
        params.profile_smooth_layers,
    )
    block_layer = _reference_smooth_noise(
        profile._rng.generator("block_layer", plane, block),
        geometry.layers_per_block,
        params.sigma_block_layer_us,
        params.block_layer_smooth_layers,
    )
    block_layer -= block_layer.mean()
    wl_noise = profile._rng.generator("wl_noise", plane, block).normal(
        0.0,
        params.sigma_wl_noise_us,
        size=(geometry.layers_per_block, geometry.strings_per_layer),
    )
    base = (
        params.base_prog_us
        + profile._chip_offset
        + profile._plane_offset[plane]
        + shared.block_drift[block]
        + statics.resid_offset
        + statics.prog_pe_slope * pe
    )
    per_layer = shared.layer_shape + chip_profile + block_layer
    pattern = np.tensordot(statics.latent, shared.string_basis, axes=1)
    raw = base + per_layer[:, None] + pattern[shared.group_of_layer] + wl_noise
    return np.round(np.asarray(raw, dtype=float) / params.prog_quant_us) * params.prog_quant_us


def _reference_erase_latency(profile, plane, block, pe):
    params, statics = profile._params, profile._block_statics(plane, block)
    raw = (
        params.base_ers_us
        + profile._chip_ers_offset
        + params.ers_resid_coupling * statics.resid_offset
        + params.ers_latent_coupling_us * float(statics.latent @ profile._shared.ers_latent_dir)
        + statics.ers_noise
        + statics.ers_pe_slope * pe
    )
    return float(np.round(np.asarray(raw, dtype=float) / params.ers_quant_us) * params.ers_quant_us)


#: (geometry, params): both string-basis widths (the paper pins exercise
#: only d = 1), and white-noise chip and block layer profiles.
ORACLE_CASES = {
    "small-d1": (SMALL_GEOMETRY, {}),
    "small-d3": (SMALL_GEOMETRY, {"string_basis_count": 3}),
    "paper-d1": (PAPER_GEOMETRY, {}),
    "paper-d3": (PAPER_GEOMETRY, {"string_basis_count": 3}),
    "small-unsmoothed": (
        SMALL_GEOMETRY,
        {"profile_smooth_layers": 1.0, "block_layer_smooth_layers": 0.5},
    ),
}
#: A quantum below one ulp of any latency: quantizing then changes nothing,
#: so the comparison sees every rounding of the sums, not just the few that
#: move a value across a 6.1 µs step.
EXACT_QUANTA = {"prog_quant_us": 2.0**-44, "ers_quant_us": 2.0**-44}


class TestLatencyOracle:
    """Program and erase latencies equal the unhoisted arithmetic, byte for byte."""

    @pytest.mark.parametrize("quanta", ["paper", "exact"])
    @pytest.mark.parametrize("seed", [5, 2024])
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_latencies_match_the_reference(self, case, seed, quanta):
        geometry, knobs = ORACLE_CASES[case]
        params = VariationParams(**knobs, **(EXACT_QUANTA if quanta == "exact" else {}))
        model = VariationModel(geometry, params, seed=seed)
        for chip in range(2):
            profile = model.chip_profile(chip)
            for plane in range(geometry.planes_per_chip):
                for block in range(0, geometry.blocks_per_plane, geometry.blocks_per_plane // 16):
                    for pe in (0, 500):
                        got = profile.block_program_latencies(plane, block, pe)
                        want = _reference_program_latencies(profile, plane, block, pe)
                        assert got.tobytes() == want.tobytes(), (chip, plane, block, pe)
                        erase = profile.erase_latency(plane, block, pe)
                        want_erase = _reference_erase_latency(profile, plane, block, pe)
                        assert np.float64(erase).tobytes() == np.float64(want_erase).tobytes()


class TestProgramLatencies:
    def test_shape_and_positivity(self, model):
        latencies = model.chip_profile(0).block_program_latencies(0, 0)
        g = SMALL_GEOMETRY
        assert latencies.shape == (g.layers_per_block, g.strings_per_layer)
        assert (latencies > 0).all()

    def test_quantized(self, model):
        params = model.params
        latencies = model.chip_profile(0).block_program_latencies(1, 4)
        ratios = latencies / params.prog_quant_us
        assert np.allclose(ratios, np.round(ratios))

    def test_single_lwl_matches_matrix(self, model):
        profile = model.chip_profile(0)
        matrix = profile.block_program_latencies(0, 2)
        assert profile.program_latency(0, 2, 3, 1) == matrix[3, 1]

    def test_block_total(self, model):
        profile = model.chip_profile(1)
        assert profile.block_program_total(0, 5) == pytest.approx(
            profile.block_program_latencies(0, 5).sum()
        )

    def test_bounds_checked(self, model):
        profile = model.chip_profile(0)
        with pytest.raises(ValueError):
            profile.block_program_latencies(9, 0)
        with pytest.raises(ValueError):
            profile.program_latency(0, 0, 99, 0)

    def test_wear_speeds_up_programming(self, model):
        profile = model.chip_profile(0)
        fresh = profile.block_program_latencies(0, 6, pe=0).mean()
        worn = profile.block_program_latencies(0, 6, pe=3000).mean()
        assert worn < fresh  # negative program slope


class TestStructure:
    """The paper's Figure 5 structure claims, on the synthetic chips."""

    def test_within_chip_blocks_correlate_more(self, model):
        # Per-LWL curves of two blocks on the SAME chip should correlate
        # better (after removing the common shape) than across chips;
        # averaged over all block pairs to beat the small-geometry noise.
        profiles = [model.chip_profile(c) for c in range(4)]
        curves = {
            (c, b): profiles[c].block_program_latencies(0, b).reshape(-1)
            for c in range(4)
            for b in range(6)
        }
        common = np.mean(list(curves.values()), axis=0)

        def corr(x, y):
            xr, yr = x - common, y - common
            return float(np.corrcoef(xr, yr)[0, 1])

        within = [
            corr(curves[(c, a)], curves[(c, b)])
            for c in range(4)
            for a in range(6)
            for b in range(a + 1, 6)
        ]
        across = [
            corr(curves[(c1, b)], curves[(c2, b)])
            for c1 in range(4)
            for c2 in range(c1 + 1, 4)
            for b in range(6)
        ]
        assert np.mean(within) > np.mean(across) + 0.1

    def test_latent_drives_string_pattern(self, model):
        # Blocks with close latents must have more similar string patterns
        # than blocks with distant latents.
        profile = model.chip_profile(0)
        blocks = range(20)
        latents = {b: profile.block_latent(0, b) for b in blocks}
        def pattern(b):
            matrix = profile.block_program_latencies(0, b)
            return (matrix - matrix.mean(axis=1, keepdims=True)).reshape(-1)
        pairs = [(a, b) for a in blocks for b in blocks if a < b]
        close = [p for p in pairs if np.linalg.norm(latents[p[0]] - latents[p[1]]) < 0.3]
        far = [p for p in pairs if np.linalg.norm(latents[p[0]] - latents[p[1]]) > 1.5]
        if not close or not far:
            pytest.skip("seed produced no usable pairs")
        def mismatch(ps):
            return np.mean([np.abs(pattern(a) - pattern(b)).mean() for a, b in ps])
        assert mismatch(close) < mismatch(far)

    def test_latent_copy_isolated(self, model):
        profile = model.chip_profile(0)
        latent = profile.block_latent(0, 0)
        latent[:] = 99.0
        assert profile.block_latent(0, 0)[0] != 99.0


class TestEraseLatency:
    def test_positive_and_quantized(self, model):
        params = model.params
        value = model.chip_profile(0).erase_latency(0, 3)
        assert value > 0
        assert value / params.ers_quant_us == pytest.approx(
            round(value / params.ers_quant_us)
        )

    def test_wear_slows_erase(self, model):
        profile = model.chip_profile(0)
        assert profile.erase_latency(0, 4, pe=3000) > profile.erase_latency(0, 4, pe=0)

    def test_couples_to_program_speed(self):
        # Across many blocks, erase latency correlates with the block's
        # program-speed components (resid + latent), enabling Table V's
        # erase gains from program-similarity grouping.
        model = VariationModel(SMALL_GEOMETRY, VariationParams(), seed=11)
        profile = model.chip_profile(0)
        ers = np.array([profile.erase_latency(0, b) for b in range(32)])
        pgm = np.array([profile.block_program_total(0, b) for b in range(32)])
        assert abs(np.corrcoef(ers, pgm)[0, 1]) > 0.2


class TestReliability:
    def test_endurance_positive(self, model):
        profile = model.chip_profile(0)
        assert profile.endurance_limit(0, 0) > 0

    def test_factory_bad_rate_reasonable(self):
        params = VariationParams(factory_bad_ratio=0.2)
        model = VariationModel(SMALL_GEOMETRY, params, seed=3)
        profile = model.chip_profile(0)
        bad = sum(
            profile.is_factory_bad(p, b)
            for p in range(SMALL_GEOMETRY.planes_per_chip)
            for b in range(SMALL_GEOMETRY.blocks_per_plane)
        )
        total = SMALL_GEOMETRY.planes_per_chip * SMALL_GEOMETRY.blocks_per_plane
        assert 0.05 < bad / total < 0.5

    def test_read_latency_positive(self, model):
        profile = model.chip_profile(0)
        assert profile.read_latency(0, 0, 5) > 0
        with pytest.raises(ValueError):
            profile.read_latency(0, 0, SMALL_GEOMETRY.lwls_per_block)

    def test_read_latency_memo_matches_a_fresh_evaluation(self):
        # tR depends on the chip and the LWL's layer alone, so it is memoized
        # per LWL: any plane and block must read what a profile that never
        # evaluated anything computes for that address.
        g = SMALL_GEOMETRY

        def fresh_profile():
            return VariationModel(g, VariationParams(), seed=99).chip_profile(1)

        memo = fresh_profile()
        for lwl in range(g.lwls_per_block):
            memo.read_latency(0, 0, lwl)
        for plane, block in [(0, 0), (1, 17), (g.planes_per_chip - 1, g.blocks_per_plane - 1)]:
            for lwl in reversed(range(g.lwls_per_block)):
                assert memo.read_latency(plane, block, lwl) == fresh_profile().read_latency(
                    plane, block, lwl
                )
        # the memo sits after the argument checks
        for args in [
            (g.planes_per_chip, 0, 0),
            (-1, 0, 0),
            (0, g.blocks_per_plane, 0),
            (0, -1, 0),
            (0, 0, g.lwls_per_block),
            (0, 0, -1),
        ]:
            with pytest.raises(ValueError):
                memo.read_latency(*args)
