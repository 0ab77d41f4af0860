"""Tests for the design-space exploration extension."""

import random

import pytest

from repro.apps.otsu.app import buildable_hw_sets
from repro.dse import (
    CampaignConfig,
    Candidate,
    EvalPoint,
    all_pipelined_candidate,
    evaluate_candidate,
    greedy_partition,
    otsu_space,
    pareto_front,
    run_campaign,
)
from repro.dse.pareto import ParetoFront, dominates, dominates_vec, point_objectives


def make_point(candidate, *, lut, cycles, ff=0, bram18=0, dsp=0):
    return EvalPoint(
        candidate=candidate, lut=lut, ff=ff, bram18=bram18, dsp=dsp,
        cycles=cycles, correct=True, dma_cells=0, fn_cache_hits=0,
        fn_cache_misses=0,
    )


def P(name, lut, cycles, **objectives):
    """A synthetic point named *name* (its candidate is ``{name: ...}``)."""
    return make_point(Candidate.make({"name": name}), lut=lut, cycles=cycles,
                      **objectives)


def name_of(point):
    return point.candidate.get("name")


def random_cloud(seed, n, *, spread=6):
    """Seeded random 5-objective point cloud with unique identities.

    A small *spread* forces duplicate objective vectors, exercising the
    tie-break path.
    """
    rng = random.Random(seed)
    return [
        P(
            f"p{i:03d}",
            lut=rng.randrange(spread),
            ff=rng.randrange(spread),
            bram18=rng.randrange(spread),
            dsp=rng.randrange(spread),
            cycles=rng.randrange(spread),
        )
        for i in range(n)
    ]


class TestPareto:
    def test_dominates(self):
        a = P("x", 100, 100)
        b = P("y", 200, 200)
        c = P("z", 100, 200)
        assert dominates(a, b)
        assert dominates(a, c)
        assert not dominates(c, a)
        assert not dominates(a, a)

    def test_front_extraction(self):
        pts = [
            P("a", 0, 100),
            P("b", 50, 50),
            P("c", 100, 10),
            P("d", 60, 60),  # dominated by b
            P("e", 120, 10),  # dominated by c
        ]
        front = pareto_front(pts)
        assert {name_of(p) for p in front} == {"a", "b", "c"}

    def test_front_sorted_and_deduped(self):
        pts = [P("a", 10, 5), P("b", 10, 5), P("c", 5, 10)]
        front = pareto_front(pts)
        assert [p.lut for p in front] == [5, 10]

    def test_dominates_all_five_objectives(self):
        a = P("a", 1, 1, ff=1, bram18=1, dsp=1)
        b = P("b", 1, 1, ff=1, bram18=2, dsp=1)
        assert dominates(a, b)
        assert not dominates(b, a)
        assert not dominates(a, a)
        assert dominates_vec((0, 0), (0, 1))
        with pytest.raises(ValueError):
            dominates_vec((0, 0), (0, 0, 0))


class TestParetoProperties:
    """Seeded random-cloud properties of the frontier extractors."""

    SEEDS = range(12)

    def test_no_frontier_point_dominated(self):
        for seed in self.SEEDS:
            front = pareto_front(random_cloud(seed, 60))
            for p in front:
                assert not any(dominates(q, p) for q in front if q is not p)

    def test_every_pruned_point_dominated_or_tied(self):
        for seed in self.SEEDS:
            pts = random_cloud(seed, 60)
            front = pareto_front(pts)
            front_vecs = {point_objectives(p) for p in front}
            kept = set(map(id, front))
            for p in pts:
                if id(p) in kept:
                    continue
                assert any(
                    dominates(q, p) for q in front
                ) or point_objectives(p) in front_vecs

    def test_permutation_invariance(self):
        for seed in self.SEEDS:
            pts = random_cloud(seed, 60)
            base = pareto_front(pts)
            for shuffle_seed in range(4):
                shuffled = pts[:]
                random.Random(shuffle_seed).shuffle(shuffled)
                assert pareto_front(shuffled) == base

    def test_duplicates_collapse_to_min_identity(self):
        pts = [P("zz", 1, 1), P("aa", 1, 1), P("mm", 1, 1)]
        min_cid = min(p.cid for p in pts)
        for order in (pts, pts[::-1], [pts[2], pts[0], pts[1]]):
            front = pareto_front(order)
            assert len(front) == 1
            assert front[0].cid == min_cid

    def test_streaming_equals_batch_any_order(self):
        for seed in self.SEEDS:
            pts = random_cloud(seed, 60)
            base = pareto_front(pts)
            for shuffle_seed in range(4):
                shuffled = pts[:]
                random.Random(shuffle_seed).shuffle(shuffled)
                stream = ParetoFront()
                stream.extend(shuffled)
                assert stream.front() == base
                assert stream.seen == len(pts)

    def test_streaming_counters(self):
        stream = ParetoFront()
        assert stream.add(P("a", 10, 10))
        assert not stream.add(P("b", 11, 11))  # dominated on arrival
        assert stream.add(P("c", 5, 5))  # evicts a
        assert len(stream) == 1
        assert stream.pruned == 1
        assert stream.evicted == 1

    def test_streaming_tie_keeps_min_identity_both_orders(self):
        min_cid = min(P(name, 3, 3).cid for name in ("zz", "aa"))
        for order in (("zz", "aa"), ("aa", "zz")):
            stream = ParetoFront()
            for name in order:
                stream.add(P(name, 3, 3))
            assert [p.cid for p in stream.front()] == [min_cid]

    def test_single_and_empty_inputs(self):
        assert pareto_front([]) == []
        only = P("a", 1, 2)
        assert pareto_front([only]) == [only]

    def test_streaming_front_emits_events_and_counters(self):
        from repro.obs.events import capture

        with capture() as (bus, registry):
            stream = ParetoFront()
            winner, loser = sorted([P("c", 5, 5), P("c2", 5, 5)],
                                   key=lambda p: p.cid)
            stream.add(P("a", 10, 10))
            stream.add(P("b", 11, 11))  # pruned as dominated
            stream.add(winner)  # admitted, evicts a
            stream.add(loser)  # tie, loses to the smaller cid
            cats = [e.category for e in bus.events()]
            assert cats.count("dse.point") == 2
            assert cats.count("dse.prune") == 3
            prune = [e for e in bus.events() if e.category == "dse.prune"]
            assert sorted(e.field("reason") for e in prune) == [
                "dominated", "evicted", "tie",
            ]
            assert registry.counter("dse.frontier_admissions_total").value == 2
            assert registry.counter("dse.pruned_total").value == 3


class TestEvaluate:
    def test_all_sw_point(self):
        point = evaluate_candidate(all_pipelined_candidate(()), width=8, height=8)
        assert point.objectives()[:4] == (0, 0, 0, 0)
        assert point.correct
        assert point.dma_cells == 0
        assert point.candidate.get("hw") == ()

    def test_hw_point(self):
        point = evaluate_candidate(
            all_pipelined_candidate({"histogram"}), width=8, height=8
        )
        assert point.lut > 0
        assert point.correct
        assert point.dma_cells > 0
        assert point.candidate.get("pipelined") == ("computeHistogram",)

    def test_explore_small_space(self):
        partitions = [
            frozenset(),
            frozenset({"histogram"}),
            frozenset({"histogram", "otsuMethod"}),
        ]
        points = [
            evaluate_candidate(all_pipelined_candidate(hw), width=8, height=8)
            for hw in partitions
        ]
        assert all(p.correct for p in points)
        # More hardware -> more area.
        luts = [p.lut for p in points]
        assert luts[0] == 0 < luts[1] < luts[2]


class TestGreedy:
    def make_evaluator(self):
        """Synthetic cost surface: each function buys cycles for LUTs."""
        lut_cost = {"grayScale": 700, "histogram": 600, "otsuMethod": 2500,
                    "binarization": 400}
        cycle_gain = {"grayScale": 50_000, "histogram": 25_000,
                      "otsuMethod": 12_000, "binarization": 18_000}
        base = 120_000

        def evaluator(candidate):
            hw = candidate.get("hw")
            return make_point(
                candidate,
                lut=sum(lut_cost[f] for f in hw),
                cycles=base - sum(cycle_gain[f] for f in hw),
            )

        return evaluator

    def test_trajectory_improves(self):
        traj = greedy_partition(evaluator=self.make_evaluator())
        assert len(traj) >= 2
        cycles = [p.cycles for p in traj]
        assert all(a > b for a, b in zip(cycles, cycles[1:]))

    def test_respects_contiguity(self):
        traj = greedy_partition(evaluator=self.make_evaluator())
        buildable = set(buildable_hw_sets())
        for p in traj:
            assert frozenset(p.candidate.get("hw")) in buildable
            assert p.candidate == all_pipelined_candidate(p.candidate.get("hw"))

    def test_budget_limits_growth(self):
        unlimited = greedy_partition(evaluator=self.make_evaluator())
        tight = greedy_partition(evaluator=self.make_evaluator(), lut_budget=1500)
        assert tight[-1].lut <= 1500
        assert tight[-1].lut <= unlimited[-1].lut

    def test_default_evaluator_routes_shared_fn_store(self, tmp_path):
        traj = greedy_partition(width=8, height=8, fn_cache_dir=str(tmp_path / "fn"))
        assert traj[0].candidate.get("hw") == ()
        assert len(traj) >= 2
        assert (tmp_path / "fn").is_dir()

    def test_greedy_point_not_dominated_in_synthetic_space(self):
        evaluator = self.make_evaluator()
        traj = greedy_partition(evaluator=evaluator)
        all_points = [
            evaluator(all_pipelined_candidate(hw)) for hw in buildable_hw_sets()
        ]
        front = pareto_front(all_points)
        final = traj[-1]
        assert not any(dominates(q, final) for q in front)


class TestGreedyOverCampaign:
    """The greedy walk is a walk through the paired-DMA campaign space."""

    def test_own_evaluator_equals_campaign_lookup(self, tmp_path):
        own = greedy_partition(
            width=8, height=8, fn_cache_dir=str(tmp_path / "greedy-fn")
        )
        result = run_campaign(
            CampaignConfig(
                space=otsu_space(dma_policies=("paired",)),
                width=8,
                height=8,
                fn_cache_dir=str(tmp_path / "campaign-fn"),
            )
        )
        by_cid = {p.cid: p for p in result.points}
        looked_up = greedy_partition(evaluator=lambda c: by_cid[c.cid])
        assert len(own) >= 2
        assert [p.record() for p in own] == [p.record() for p in looked_up]
