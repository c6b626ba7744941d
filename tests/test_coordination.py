import numpy as np
import pytest

from cpfsim.coordination import (ZERO_CROSS_EPS, OvertakeEvent, batch_overtake_counts,
                                 batch_relation, chain_coordination, detect_overtaking,
                                 update_pre_neighbors)
from cpfsim.paths import LinePath
from cpfsim.simulator import Trace

from conftest import SPACING


def pre_of(relation):
    return {uav_id: pre for uav_id, (pre, _, _) in relation.items()}


class TestPreNeighbors:
    def test_cycle_on_closed_path(self, circle):
        rel = update_pre_neighbors([(1, 0.0, 0.0), (2, 100.0, 0.0), (3, 200.0, 0.0)],
                                   circle, SPACING)
        assert pre_of(rel) == {1: 2, 2: 3, 3: 1}

    def test_coincident_projection_tie_by_label(self, circle):
        rel = update_pre_neighbors([(5, 300.0, 0.0), (2, 300.0, 0.0)],
                                   circle, SPACING)
        assert rel[2][0] == 5

    def test_far_uav_excluded(self, circle):
        r0 = circle.r0
        rel = update_pre_neighbors(
            [(1, 0.0, 0.0), (2, 100.0, r0 + 1.0), (3, 200.0, 0.0)],
            circle, SPACING)
        assert rel[2] == (None, SPACING, None)
        assert pre_of(rel) == {1: 3, 3: 1, 2: None}

    def test_single_uav_has_none(self, circle):
        rel = update_pre_neighbors([(1, 10.0, 0.0)], circle, SPACING)
        assert rel == {1: (None, SPACING, None)}

    def test_chain_on_open_path(self):
        line = LinePath((0.0, 0.0), 0.0)
        rel = update_pre_neighbors([(1, 50.0, 0.0), (2, 10.0, 0.0), (3, 90.0, 0.0)],
                                   line, SPACING)
        # head of the chain has no one in front
        assert pre_of(rel) == {2: 1, 1: 3, 3: None}

    def test_out_degree_one_cycle(self, circle):
        rng = np.random.default_rng(2)
        projections = [(i, float(s), 0.0)
                       for i, s in enumerate(rng.uniform(0, circle.total_length, 12))]
        rel = update_pre_neighbors(projections, circle, SPACING)
        seen = set()
        node = 0
        for _ in range(12):
            node = rel[node][0]
            assert node is not None
            seen.add(node)
        assert seen == set(range(12))


class TestZeta:
    def test_forward_distance(self, circle):
        rel = update_pre_neighbors([(1, 0.0, 0.0), (2, 1047.2, 0.0)],
                                   circle, SPACING)
        assert rel[1][1] == pytest.approx(1047.2)

    def test_no_pre_neighbor_uses_desired_spacing(self, circle):
        rel = update_pre_neighbors([(1, 0.0, 0.0)], circle, SPACING)
        assert rel[1][1] == pytest.approx(1047.1975511965976)

    def test_coincident_is_zero(self, circle):
        rel = update_pre_neighbors([(1, 500.0, 0.0), (2, 500.0, 0.0)],
                                   circle, SPACING)
        assert rel[1] == (2, 0.0, 0.0)

    def test_cycle_sums_to_circumference(self, circle):
        rng = np.random.default_rng(9)
        projections = [(i, float(s), 0.0)
                       for i, s in enumerate(rng.uniform(0, circle.total_length, 8))]
        rel = update_pre_neighbors(projections, circle, SPACING)
        total = sum(rel[i][1] for i in range(8))
        assert total == pytest.approx(circle.total_length)

    def test_gap_wraps_to_half_length(self, circle):
        # zeta is the forward distance in [0, L); the gap is zeta wrapped to +-L/2
        length = circle.total_length
        rel = update_pre_neighbors([(1, 0.0, 0.0), (2, 900.0, 0.0)], circle, SPACING)
        assert rel[1] == (2, 900.0, 900.0)
        assert rel[2] == (1, -900.0 % length, -900.0 % length - length)
        assert rel[2][2] == pytest.approx(-900.0)

    def test_signed_on_open_path(self):
        line = LinePath((0.0, 0.0), 0.0)
        rel = chain_coordination([(1, 50.0, 0.0), (2, 80.0, 0.0)], {2: 1},
                                 line, 0.0)
        assert rel[2] == (1, -30.0, -30.0)  # parent behind


class TestChain:
    def test_fixed_parents(self, circle):
        rel = chain_coordination(
            [(1, 300.0, 0.0), (2, 200.0, 0.0), (3, 100.0, 0.0)],
            {2: 1, 3: 2}, circle, 0.0)
        assert pre_of(rel) == {1: None, 2: 1, 3: 2}
        assert rel[2][1] == pytest.approx(100.0)

    def test_eligibility_still_applies(self, circle):
        r0 = circle.r0
        rel = chain_coordination(
            [(1, 300.0, r0 + 5.0), (2, 200.0, 0.0)], {2: 1}, circle, 123.0)
        assert rel[2] == (None, 123.0, None)

    def test_parent_not_yet_spawned(self, circle):
        rel = chain_coordination([(2, 200.0, 0.0)], {2: 1}, circle, 123.0)
        assert rel == {2: (None, 123.0, None)}


class TestOvertaking:
    def test_identical_states_no_events(self, circle):
        s = update_pre_neighbors([(1, 0.0, 0.0), (2, 100.0, 0.0)], circle, SPACING)
        assert detect_overtaking(s, s, circle, 0.0) == []

    def test_pre_neighbor_change_event(self, circle):
        before = update_pre_neighbors(
            [(1, 0.0, 0.0), (2, 100.0, 0.0), (3, 50.0, 0.0)], circle, SPACING)
        after = update_pre_neighbors(
            [(1, 0.0, 0.0), (2, 100.0, 0.0), (3, 150.0, 0.0)], circle, SPACING)
        events = detect_overtaking(before, after, circle, 1.5)
        assert OvertakeEvent(1.5, 1, "pre_neighbor_change", "3 -> 2") in events

    def test_zero_cross_event(self, circle, tmp_path):
        # the two UAVs swap places along the arc without a pre-neighbor
        # change; the detail is each one's signed gap before and after
        before = update_pre_neighbors([(1, 100.0, 0.0), (2, 100.5, 0.0)], circle, SPACING)
        after = update_pre_neighbors([(1, 101.0, 0.0), (2, 100.6, 0.0)], circle, SPACING)
        trace = Trace()
        trace.events += detect_overtaking(before, after, circle, 2.5)
        assert trace.events == [
            OvertakeEvent(2.5, 1, "zeta_zero_cross", "0.500000 -> -0.400000"),
            OvertakeEvent(2.5, 2, "zeta_zero_cross", "-0.500000 -> 0.400000")]
        trace.write_events_csv(tmp_path / "events.csv")
        assert (tmp_path / "events.csv").read_text() == (
            "t,uav,kind,detail\n"
            "2.5,1,zeta_zero_cross,0.500000 -> -0.400000\n"
            "2.5,2,zeta_zero_cross,-0.500000 -> 0.400000\n")

    def test_spawn_not_an_event_for_others(self, circle):
        before = update_pre_neighbors([(1, 0.0, 0.0)], circle, SPACING)
        after = update_pre_neighbors([(1, 0.0, 0.0), (2, 900.0, 0.0)], circle, SPACING)
        events = detect_overtaking(before, after, circle, 0.0)
        assert [ev.uav_id for ev in events] == [1]


class TestBatchRelation:
    """``batch_relation`` and ``batch_overtake_counts`` against the scalar relation.

    Fleets random-walk on a coarse arc grid, so equal arc positions are
    common; some UAVs sit half a closed path apart, so the wrapped gap jumps
    sign; lateral errors hop across the uniqueness radius.  Runs leave the
    batch at random steps, as they do in the no-overtaking suite.
    """

    @staticmethod
    def walk(path, n_runs, n_uavs, n_steps, seed):
        rng = np.random.default_rng(seed)
        r0, half = path.r0, 0.5 * path.total_length
        base = rng.choice(np.arange(-6.0, 6.5, 0.5), (n_runs, n_uavs))
        s = base + rng.choice([0.0, 0.0, half, -half, 2.0 * half], (n_runs, n_uavs))
        rho_grid = np.array([0.0, 10.0, -0.5 * r0, np.nextafter(r0, 0.0), -r0, r0, 2.0 * r0])
        for _ in range(n_steps):
            rho = rng.choice(rho_grid, (n_runs, n_uavs), p=[0.4, 0.2, 0.1, 0.1, 0.1, 0.05, 0.05])
            yield s, rho
            s = s + rng.choice([-1.0, -0.5, 0.0, 0.0, 0.5, 1.0], (n_runs, n_uavs))

    @pytest.mark.parametrize("n_uavs", [1, 2, 3, 6])
    @pytest.mark.parametrize("closed", [True, False])
    def test_equals_scalar_relation(self, circle, closed, n_uavs):
        path = circle if closed else LinePath((0.0, 0.0), 0.0)
        n_runs = 12
        rng = np.random.default_rng(n_uavs)
        runs = np.arange(n_runs)
        prev = scalar_prev = None
        events = np.zeros(n_runs, dtype=int)
        scalar_events = [0] * n_runs
        kinds, ties = set(), 0
        for s_all, rho_all in self.walk(path, n_runs, n_uavs, 400, seed=10 + n_uavs):
            if runs.size > 1 and rng.random() < 0.02:
                keep = np.ones(runs.size, dtype=bool)
                keep[rng.integers(runs.size)] = False
                runs, prev = runs[keep], tuple(x[keep] for x in prev)
            s, rho = s_all[runs], rho_all[runs]
            pre, zeta, gap = batch_relation(s, rho, path, SPACING)
            if prev is not None:
                events[runs] += batch_overtake_counts(*prev, pre, gap, path)
            prev = pre, gap
            relations = {}
            for k, run in enumerate(runs.tolist()):
                rel = update_pre_neighbors(
                    [(i, float(s[k, i]), float(rho[k, i])) for i in range(n_uavs)],
                    path, SPACING)
                # the batch marks "no pre-neighbor" as -1 and leaves its gap unset
                batch = [(p, z, g) if p >= 0 else (None, z, None)
                         for p, z, g in zip(pre[k].tolist(), zeta[k].tolist(),
                                            gap[k].tolist())]
                assert [rel[i] for i in range(n_uavs)] == batch
                if scalar_prev is not None:
                    evs = detect_overtaking(scalar_prev[run], rel, path, 0.0)
                    scalar_events[run] += len(evs)
                    kinds |= {ev.kind for ev in evs}
                relations[run] = rel
                elig = s[k][np.abs(rho[k]) < path.r0]
                ties += len(path.wrap_s(elig)) - len(set(path.wrap_s(elig).tolist()))
            scalar_prev = relations
            assert events.tolist() == scalar_events
        assert runs.size < n_runs
        if n_uavs > 1:
            # the pre-neighbor is the successor in arc order, so only the
            # wrap of a closed path can turn its gap negative
            assert ties > 0
            assert kinds == ({"pre_neighbor_change", "zeta_zero_cross"} if closed
                             else {"pre_neighbor_change"})

    def test_jump_guard_and_eps(self, circle):
        # a half-length sign flip of the wrapped gap is no crossing; a move
        # within ZERO_CROSS_EPS of zero is none either
        half = 0.5 * circle.total_length
        rho = np.zeros((3, 2))
        before = np.array([[0.0, half - 0.5], [0.0, 2.0], [0.0, 0.5 * ZERO_CROSS_EPS]])
        after = np.array([[0.0, half + 0.5], [0.0, -2.0], [0.0, -2.0]])
        b = batch_relation(before, rho, circle, SPACING)
        a = batch_relation(after, rho, circle, SPACING)
        assert batch_overtake_counts(b[0], b[2], a[0], a[2], circle).tolist() == [0, 2, 0]
