"""Tests for the rectangle algebra underlying droplets and zones."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.rect import Rect, manhattan, rect_from_center


def rects(max_coord: int = 30) -> st.SearchStrategy[Rect]:
    return st.tuples(
        st.integers(0, max_coord),
        st.integers(0, max_coord),
        st.integers(0, 8),
        st.integers(0, 8),
    ).map(lambda t: Rect(t[0], t[1], t[0] + t[2], t[1] + t[3]))


class TestConstruction:
    def test_valid_rect(self):
        r = Rect(3, 2, 7, 5)
        assert (r.xa, r.ya, r.xb, r.yb) == (3, 2, 7, 5)

    def test_single_cell_rect(self):
        r = Rect(4, 4, 4, 4)
        assert r.area == 1

    def test_degenerate_x_rejected(self):
        with pytest.raises(ValueError):
            Rect(5, 2, 4, 5)

    def test_degenerate_y_rejected(self):
        with pytest.raises(ValueError):
            Rect(3, 6, 7, 5)

    def test_ordering_is_total(self):
        assert Rect(1, 1, 2, 2) < Rect(2, 1, 3, 2)

    @given(rects())
    def test_hash_is_the_field_tuple_hash(self, r):
        # The cached hash must equal the generated dataclass hash, so set
        # and dict orders — and every route built from them — stay put.
        assert hash(r) == hash(r.as_tuple())

    def test_hash_survives_pickle_round_trip(self):
        import pickle

        r = Rect(3, 2, 7, 5)
        back = pickle.loads(pickle.dumps(r))
        assert back == r and hash(back) == hash(r.as_tuple())
        assert {back: 1}[r] == 1

    def test_strategy_token_rect_hashes_like_constructed(self):
        from repro.modelcheck.strategy import _state_from_token, _state_token

        r = Rect(3, 2, 7, 5)
        back = _state_from_token(_state_token(r))
        assert back == r and hash(back) == hash(r)

    @given(rects(), st.integers(-5, 5), st.integers(-5, 5))
    def test_trusted_rect_is_a_constructed_rect(self, r, dx, dy):
        # The validated-corners fast path (translations, action
        # successors, model states) must be indistinguishable from the
        # dataclass constructor: equality, ordering, hash and repr.
        from repro.geometry.rect import _trusted_rect

        fast = _trusted_rect(*r.as_tuple())
        assert fast == r and hash(fast) == hash(r) and repr(fast) == repr(r)
        assert not fast < r and not r < fast
        moved = Rect(r.xa + dx, r.ya + dy, r.xb + dx, r.yb + dy)
        assert r.translated(dx, dy) == moved
        assert hash(r.translated(dx, dy)) == hash(moved.as_tuple())
        assert {moved: 1}[r.translated(dx, dy)] == 1


class TestPaperExample1:
    """Example 1: droplet (3, 2, 7, 5) has w=5, h=4, A=20, AR=5/4."""

    def test_width(self):
        assert Rect(3, 2, 7, 5).width == 5

    def test_height(self):
        assert Rect(3, 2, 7, 5).height == 4

    def test_area(self):
        assert Rect(3, 2, 7, 5).area == 20

    def test_aspect_ratio(self):
        assert Rect(3, 2, 7, 5).aspect_ratio == pytest.approx(5 / 4)

    def test_center_matches_mo_center_convention(self):
        # Table IV: the 4x4 droplet (16, 1, 19, 4) has center (17.5, 2.5).
        assert Rect(16, 1, 19, 4).center == (17.5, 2.5)


class TestContainment:
    def test_contains_itself(self):
        r = Rect(2, 2, 5, 5)
        assert r.contains(r)

    def test_contains_inner(self):
        assert Rect(1, 1, 9, 9).contains(Rect(3, 3, 5, 5))

    def test_not_contains_partial_overlap(self):
        assert not Rect(1, 1, 4, 4).contains(Rect(3, 3, 6, 6))

    def test_contains_cell(self):
        r = Rect(2, 3, 4, 5)
        assert r.contains_cell(2, 3)
        assert r.contains_cell(4, 5)
        assert not r.contains_cell(5, 5)
        assert not r.contains_cell(2, 2)


class TestOverlapAdjacency:
    def test_overlap_true(self):
        assert Rect(1, 1, 4, 4).overlaps(Rect(4, 4, 6, 6))

    def test_overlap_false_diagonal(self):
        assert not Rect(1, 1, 3, 3).overlaps(Rect(4, 4, 6, 6))

    def test_adjacent_with_gap_one(self):
        # Gap of exactly one cell in x: droplets would merge under EWOD.
        assert Rect(1, 1, 3, 3).adjacent_or_overlapping(Rect(5, 1, 7, 3))

    def test_not_adjacent_with_gap_two(self):
        assert not Rect(1, 1, 3, 3).adjacent_or_overlapping(Rect(6, 1, 8, 3))

    def test_adjacent_diagonal_corner(self):
        assert Rect(1, 1, 3, 3).adjacent_or_overlapping(Rect(4, 4, 6, 6))

    def test_intersection(self):
        inter = Rect(1, 1, 5, 5).intersection(Rect(4, 4, 8, 8))
        assert inter == Rect(4, 4, 5, 5)

    def test_intersection_disjoint_is_none(self):
        assert Rect(1, 1, 2, 2).intersection(Rect(5, 5, 6, 6)) is None

    def test_union_bbox(self):
        assert Rect(1, 1, 2, 2).union_bbox(Rect(5, 6, 7, 8)) == Rect(1, 1, 7, 8)


class TestTransforms:
    def test_translated(self):
        assert Rect(1, 2, 3, 4).translated(2, -1) == Rect(3, 1, 5, 3)

    def test_expanded(self):
        assert Rect(3, 3, 5, 5).expanded(2) == Rect(1, 1, 7, 7)

    def test_clamped(self):
        assert Rect(0, 0, 10, 10).clamped(Rect(1, 1, 8, 8)) == Rect(1, 1, 8, 8)

    def test_clamped_disjoint_raises(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 2, 2).clamped(Rect(5, 5, 8, 8))


class TestDistances:
    def test_manhattan_gap_overlapping_is_zero(self):
        assert Rect(1, 1, 4, 4).manhattan_gap(Rect(3, 3, 6, 6)) == 0

    def test_manhattan_gap_axis(self):
        assert Rect(1, 1, 3, 3).manhattan_gap(Rect(6, 1, 8, 3)) == 2

    def test_manhattan_gap_diagonal(self):
        assert Rect(1, 1, 2, 2).manhattan_gap(Rect(5, 6, 7, 8)) == 2 + 3

    def test_center_manhattan(self):
        assert Rect(1, 1, 2, 2).center_manhattan(Rect(5, 1, 6, 2)) == 4.0

    def test_manhattan_cells(self):
        assert manhattan((0, 0), (3, 4)) == 7


class TestRectFromCenter:
    def test_odd_size_exact(self):
        r = rect_from_center(5.0, 5.0, 3, 3)
        assert r == Rect(4, 4, 6, 6)
        assert r.center == (5.0, 5.0)

    def test_even_size_half_center(self):
        r = rect_from_center(17.5, 2.5, 4, 4)
        assert r == Rect(16, 1, 19, 4)

    def test_cells_iteration_count(self):
        assert len(list(Rect(2, 2, 4, 5).cells())) == 12


class TestProperties:
    @given(rects())
    def test_area_consistency(self, r: Rect):
        assert r.area == len(list(r.cells())) == r.width * r.height

    @given(rects(), rects())
    def test_overlap_symmetry(self, a: Rect, b: Rect):
        assert a.overlaps(b) == b.overlaps(a)

    @given(rects(), rects())
    def test_adjacency_symmetry(self, a: Rect, b: Rect):
        assert a.adjacent_or_overlapping(b) == b.adjacent_or_overlapping(a)

    @given(rects(), rects())
    def test_overlap_iff_shared_cell(self, a: Rect, b: Rect):
        shared = set(a.cells()) & set(b.cells())
        assert a.overlaps(b) == bool(shared)

    @given(rects(), rects())
    def test_adjacency_matches_expanded_overlap(self, a: Rect, b: Rect):
        assert a.adjacent_or_overlapping(b) == a.expanded(1).overlaps(
            b.expanded(1)
        )

    @given(rects(), rects())
    def test_union_bbox_contains_both(self, a: Rect, b: Rect):
        bbox = a.union_bbox(b)
        assert bbox.contains(a) and bbox.contains(b)

    @given(rects(), rects())
    def test_manhattan_gap_zero_iff_touching_or_overlap(self, a: Rect, b: Rect):
        gap = a.manhattan_gap(b)
        if a.overlaps(b):
            assert gap == 0

    @given(rects(), st.integers(-5, 5), st.integers(-5, 5))
    def test_translation_preserves_shape(self, r: Rect, dx: int, dy: int):
        t = r.translated(dx, dy)
        assert (t.width, t.height) == (r.width, r.height)

    @given(rects(), rects())
    def test_contains_implies_overlap(self, a: Rect, b: Rect):
        if a.contains(b):
            assert a.overlaps(b)
            assert a.area >= b.area
