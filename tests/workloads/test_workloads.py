"""Unit tests for the workload generators."""

import pytest

from repro.geometry import Rect
from repro.workloads import (
    TABLE1_J_VALUES,
    TABLE1_UNIVERSE,
    build_us_map,
    clustered_points,
    random_point_probes,
    random_windows,
    uniform_points,
    uniform_rects,
    windows_of_selectivity,
)


class TestUniform:
    def test_determinism(self):
        assert uniform_points(50, seed=5) == uniform_points(50, seed=5)
        assert uniform_points(50, seed=5) != uniform_points(50, seed=6)

    def test_within_universe(self):
        for p in uniform_points(200, seed=1):
            assert TABLE1_UNIVERSE.contains_point(p)

    def test_count(self):
        assert len(uniform_points(0)) == 0
        assert len(uniform_points(17)) == 17

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            uniform_points(-1)

    def test_table1_constants(self):
        assert TABLE1_UNIVERSE == Rect(0, 0, 1000, 1000)
        assert TABLE1_J_VALUES[0] == 10
        assert TABLE1_J_VALUES[-1] == 900
        assert len(TABLE1_J_VALUES) == 17  # the paper's 17 rows

    def test_uniform_rects_clipped(self):
        for r in uniform_rects(100, max_side=50, seed=2):
            assert TABLE1_UNIVERSE.contains(r)
            assert r.width <= 50 and r.height <= 50

    def test_uniform_rects_validation(self):
        with pytest.raises(ValueError):
            uniform_rects(-1)
        with pytest.raises(ValueError):
            uniform_rects(5, max_side=0)


class TestClustered:
    def test_determinism(self):
        assert clustered_points(30, seed=9) == clustered_points(30, seed=9)

    def test_within_universe(self):
        for p in clustered_points(200, clusters=4, seed=1):
            assert TABLE1_UNIVERSE.contains_point(p)

    def test_clustering_reduces_nn_distance(self):
        """Clustered points are locally denser than uniform ones."""
        def mean_nn(pts):
            total = 0.0
            for p in pts:
                total += min(p.distance_to(q) for q in pts if q != p)
            return total / len(pts)

        uni = uniform_points(100, seed=3)
        clu = clustered_points(100, clusters=5, spread=10.0, seed=3)
        assert mean_nn(clu) < mean_nn(uni)

    def test_validation(self):
        with pytest.raises(ValueError):
            clustered_points(10, clusters=0)
        with pytest.raises(ValueError):
            clustered_points(-1)
        with pytest.raises(ValueError):
            clustered_points(10, spread=-1.0)


class TestQueries:
    def test_probes_inside_universe(self):
        for p in random_point_probes(100, seed=2):
            assert TABLE1_UNIVERSE.contains_point(p)

    def test_probes_inside_given_universe(self):
        u = Rect(100, 200, 300, 400)
        for p in random_point_probes(100, u, seed=1):
            assert u.contains_point(p)

    def test_probes_deterministic(self):
        u = Rect(0, 0, 10, 10)
        assert random_point_probes(5, u, seed=9) == random_point_probes(
            5, u, seed=9)
        assert random_point_probes(5, u, seed=9) != random_point_probes(
            5, u, seed=10)

    def test_windows_clamped(self):
        for w in random_windows(100, max_extent=300, seed=2):
            assert TABLE1_UNIVERSE.contains(w)

    def test_selectivity_window_area(self):
        for w in windows_of_selectivity(20, 0.01, seed=4):
            assert w.area() == pytest.approx(0.01 * TABLE1_UNIVERSE.area())
            assert TABLE1_UNIVERSE.contains(w)

    def test_selectivity_bounds(self):
        with pytest.raises(ValueError):
            windows_of_selectivity(5, 0.0)
        with pytest.raises(ValueError):
            windows_of_selectivity(5, 1.5)

    def test_full_selectivity(self):
        [w] = windows_of_selectivity(1, 1.0)
        assert w.area() == pytest.approx(TABLE1_UNIVERSE.area())


class TestUsMap:
    def test_determinism(self):
        a = build_us_map(seed=13)
        b = build_us_map(seed=13)
        assert [c.name for c in a.cities] == [c.name for c in b.cities]
        assert [c.loc for c in a.cities] == [c.loc for c in b.cities]

    def test_shapes(self):
        m = build_us_map(seed=1, states_x=3, states_y=2,
                         cities_per_state=5, lakes=4, highways=2)
        assert len(m.states) == 6
        assert len(m.cities) == 30
        assert len(m.lakes) == 4
        assert len(m.time_zones) == 4
        assert len({h.hwy_name for h in m.highways}) == 2

    def test_city_names_unique(self):
        m = build_us_map(seed=2)
        names = [c.name for c in m.cities]
        assert len(names) == len(set(names))

    def test_cities_inside_their_state(self):
        m = build_us_map(seed=3)
        state_by_name = {s.name: s.loc for s in m.states}
        for c in m.cities:
            assert state_by_name[c.state].contains_point(c.loc)

    def test_time_zones_tile_universe(self):
        m = build_us_map(seed=4)
        total = sum(z.loc.area() for z in m.time_zones)
        assert total == pytest.approx(m.universe.area())

    def test_highway_sections_form_chains(self):
        m = build_us_map(seed=5)
        by_name: dict[str, list] = {}
        for h in m.highways:
            by_name.setdefault(h.hwy_name, []).append(h)
        for sections in by_name.values():
            sections.sort(key=lambda h: h.hwy_section)
            for a, b in zip(sections, sections[1:]):
                assert a.loc.end == b.loc.start  # consecutive sections meet

    def test_item_helpers(self):
        m = build_us_map(seed=6)
        assert len(m.city_items()) == len(m.cities)
        rect, city = m.city_items()[0]
        assert rect.contains_point(city.loc)
        for helper in (m.state_items, m.time_zone_items, m.lake_items,
                       m.highway_items):
            for rect, record in helper():
                assert rect.is_valid()

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            build_us_map(states_x=0)
