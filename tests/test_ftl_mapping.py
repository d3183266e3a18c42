"""PageMapper tests, including a hypothesis model-based check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ftl.mapping import MappingError, PageMapper, PhysicalSlot


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            PageMapper(0)
        mapper = PageMapper(10)
        with pytest.raises(MappingError):
            mapper.check_lpn(10)
        with pytest.raises(MappingError):
            mapper.check_lpn(-1)

    def test_map_and_lookup(self):
        mapper = PageMapper(10)
        assert mapper.map_page(3, PhysicalSlot(0, 5)) is None
        assert mapper.lookup(3) == PhysicalSlot(0, 5)
        assert mapper.lpn_at(0, 5) == 3
        assert mapper.valid_count(0) == 1
        assert mapper.mapped_pages == 1

    def test_remap_invalidates_stale(self):
        mapper = PageMapper(10)
        mapper.map_page(3, PhysicalSlot(0, 5))
        stale = mapper.map_page(3, PhysicalSlot(1, 0))
        assert stale == PhysicalSlot(0, 5)
        assert mapper.valid_count(0) == 0
        assert mapper.valid_count(1) == 1
        assert mapper.lpn_at(0, 5) is None

    def test_slot_collision_rejected(self):
        mapper = PageMapper(10)
        mapper.map_page(1, PhysicalSlot(0, 0))
        with pytest.raises(MappingError):
            mapper.map_page(2, PhysicalSlot(0, 0))

    def test_unmap(self):
        mapper = PageMapper(10)
        mapper.map_page(4, PhysicalSlot(2, 7))
        assert mapper.unmap_page(4) == PhysicalSlot(2, 7)
        assert mapper.lookup(4) is None
        assert mapper.unmap_page(4) is None
        assert mapper.valid_count(2) == 0

    def test_valid_slots_sorted(self):
        mapper = PageMapper(10)
        mapper.map_page(1, PhysicalSlot(0, 9))
        mapper.map_page(2, PhysicalSlot(0, 2))
        mapper.map_page(3, PhysicalSlot(1, 0))
        assert mapper.valid_slots(0, 10) == [(2, 2), (9, 1)]
        # only the superblock's own slot range is probed
        assert mapper.valid_slots(0, 9) == [(2, 2)]
        assert mapper.valid_slots(1, 10) == [(0, 3)]

    def test_drop_superblock_guard(self):
        mapper = PageMapper(10)
        mapper.map_page(1, PhysicalSlot(0, 0))
        with pytest.raises(MappingError):
            mapper.drop_superblock(0)
        mapper.unmap_page(1)
        mapper.drop_superblock(0)  # now fine

    def test_iter_mapped(self):
        mapper = PageMapper(4)
        mapper.map_page(0, PhysicalSlot(0, 0))
        assert dict(mapper.iter_mapped()) == {0: PhysicalSlot(0, 0)}


class MapModel:
    """Reference model: plain dicts."""

    def __init__(self):
        self.l2p = {}

    def map(self, lpn, sb, slot):
        self.l2p[lpn] = (sb, slot)

    def unmap(self, lpn):
        self.l2p.pop(lpn, None)


@st.composite
def operations(draw):
    ops = []
    used_slots = set()
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["map", "unmap"]))
        lpn = draw(st.integers(0, 15))
        if kind == "map":
            slot = draw(st.integers(0, 200))
            if slot in used_slots:
                continue
            used_slots.add(slot)
            ops.append(("map", lpn, 0, slot))
        else:
            ops.append(("unmap", lpn))
    return ops


class TestModelBased:
    @settings(max_examples=60)
    @given(operations())
    def test_matches_reference_model(self, ops):
        mapper = PageMapper(16)
        model = MapModel()
        for op in ops:
            if op[0] == "map":
                _, lpn, sb, slot = op
                mapper.map_page(lpn, PhysicalSlot(sb, slot))
                model.map(lpn, sb, slot)
            else:
                _, lpn = op
                mapper.unmap_page(lpn)
                model.unmap(lpn)
        for lpn in range(16):
            expected = model.l2p.get(lpn)
            actual = mapper.lookup(lpn)
            if expected is None:
                assert actual is None
            else:
                assert (actual.superblock_id, actual.slot) == expected
        assert mapper.mapped_pages == len(model.l2p)
        # valid counts consistent with the model
        counts = {}
        for sb, slot in model.l2p.values():
            counts[sb] = counts.get(sb, 0) + 1
        for sb, count in counts.items():
            assert mapper.valid_count(sb) == count
