"""Unit tests for Pareto and convex frontiers."""

from repro.machine import (
    Configuration,
    ConfigPoint,
    convex_frontier,
    measure_task_space,
    pareto_frontier,
)


def pt(power: float, duration: float) -> ConfigPoint:
    return ConfigPoint(Configuration(2.0, 4), duration, power)


class TestParetoFrontier:
    def test_empty(self):
        assert pareto_frontier([]) == []

    def test_single(self):
        p = pt(10, 1)
        assert pareto_frontier([p]) == [p]

    def test_dominated_removed(self):
        good, bad = pt(10, 1.0), pt(12, 1.5)
        assert pareto_frontier([good, bad]) == [good]

    def test_frontier_sorted_and_tradeoff(self):
        pts = [pt(10, 3.0), pt(20, 1.5), pt(15, 2.0), pt(25, 1.0), pt(18, 2.5)]
        front = pareto_frontier(pts)
        powers = [p.power_w for p in front]
        durs = [p.duration_s for p in front]
        assert powers == sorted(powers)
        assert durs == sorted(durs, reverse=True)
        assert pt(18, 2.5) not in front  # dominated by (15, 2.0)

    def test_no_member_dominated(self, kernel, power_model):
        points = measure_task_space(kernel, power_model)
        front = pareto_frontier(points)
        for a in front:
            assert not any(b.dominates(a) for b in points)

    def test_duplicates_collapse(self):
        front = pareto_frontier([pt(10, 1.0), pt(10, 1.0)])
        assert len(front) == 1


class TestConvexFrontier:
    def test_subset_of_pareto(self, kernel, power_model):
        points = measure_task_space(kernel, power_model)
        pareto = pareto_frontier(points)
        convex = convex_frontier(points)
        pareto_keys = {(p.power_w, p.duration_s) for p in pareto}
        assert all((p.power_w, p.duration_s) in pareto_keys for p in convex)
        assert len(convex) <= len(pareto)

    def test_convexity(self, kernel, power_model):
        """Successive slopes (d duration / d power) must be non-decreasing."""
        convex = convex_frontier(measure_task_space(kernel, power_model))
        slopes = [
            (b.duration_s - a.duration_s) / (b.power_w - a.power_w)
            for a, b in zip(convex, convex[1:])
        ]
        assert all(s < 0 for s in slopes)  # more power is always faster
        assert all(b >= a - 1e-12 for a, b in zip(slopes, slopes[1:]))

    def test_interior_point_removed(self):
        # Middle point lies above the chord between the extremes.
        pts = [pt(10, 3.0), pt(20, 2.5), pt(30, 1.0)]
        convex = convex_frontier(pts)
        assert [p.power_w for p in convex] == [10, 30]

    def test_point_below_chord_kept(self):
        pts = [pt(10, 3.0), pt(20, 1.2), pt(30, 1.0)]
        convex = convex_frontier(pts)
        assert [p.power_w for p in convex] == [10, 20, 30]

    def test_endpoints_always_kept(self, kernel, power_model):
        points = measure_task_space(kernel, power_model)
        pareto = pareto_frontier(points)
        convex = convex_frontier(points)
        assert convex[0].power_w == pareto[0].power_w
        assert convex[-1].power_w == pareto[-1].power_w

    def test_max_threads_dominates_high_frequencies(self, kernel, power_model):
        """Paper Table 1: away from the lowest frequencies, only full-width
        (8-thread) configurations are Pareto-efficient for CoMD-like tasks."""
        convex = convex_frontier(measure_task_space(kernel, power_model))
        high = [p for p in convex if p.config.freq_ghz >= 1.8]
        assert high and all(p.config.threads == 8 for p in high)
