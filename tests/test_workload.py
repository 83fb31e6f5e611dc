"""Workload generation: seeded corpora, cosine band placement, Zipf traffic, rollups."""

from __future__ import annotations

import math
import re
import uuid
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np
import pytest

from coforget.core import ConfigError, FaultKind, FaultProfile, MemoryRecord, spec_from_items
from coforget.relevance import relevance
from coforget.workload import (
    AGENT_IDS,
    FAR_COS,
    NEAR_COS,
    EmptyPopulation,
    SummaryMetrics,
    WorkloadSpec,
    ZipfSampler,
    _draw_records,
    aggregate,
    default_agents,
    epoch_traffic,
    generate_initial,
    horizon_problem,
    make_arrivals,
    make_context,
    traffic_stream,
)


def spec(**kwargs) -> WorkloadSpec:
    defaults = dict(initial_items=50, dimension=16, seed=0)
    defaults.update(kwargs)
    return WorkloadSpec(**defaults)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


@dataclass
class FakeReport:
    memories_start: int = 100
    memories_end: int = 100
    additions: int = 0
    consensus_reached: int = 0
    consensus_failed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    deletion_rate: float = 0.0
    deleted: int = 0


class TestWorkloadSpec:
    def test_defaults(self):
        ws = WorkloadSpec()
        assert ws.initial_items == 1000
        assert ws.arrivals_per_epoch == (10, 20)
        assert ws.dimension == 768

    def test_scalar_arrivals_normalize_to_range(self):
        assert WorkloadSpec(arrivals_per_epoch=5).arrivals_per_epoch == (5, 5)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("initial_items", -1),
            ("arrivals_per_epoch", (5, 2)),
            ("arrivals_per_epoch", (-1, 2)),
            ("arrivals_per_epoch", (1, 2, 3)),
            ("access_skew", 0.0),
            ("access_skew", math.nan),
            ("access_skew", math.inf),
            ("accesses_per_interaction", -1),
            ("relevance_mix", 1.5),
            ("relevance_mix", math.nan),
            ("dimension", 0),
            ("dimension", 1),
            ("history_window_s", -1.0),
            ("history_window_s", math.nan),
            ("history_window_s", math.inf),
            ("interaction_interval_s", 0.0),
            ("interaction_interval_s", math.nan),
            ("interaction_interval_s", math.inf),
            ("seed", -1),
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises(ValueError):
            WorkloadSpec(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("initial_items", 2.5),
            ("accesses_per_interaction", True),
            ("dimension", 64.0),
            ("seed", 1.5),
            ("arrivals_per_epoch", (0.9, 1.9)),
            ("arrivals_per_epoch", (1, 2.0)),
            ("arrivals_per_epoch", 2.5),
        ],
    )
    def test_non_integer_counts_rejected(self, field, value):
        # int() truncated (0.9, 1.9) to (0, 1); a float initial_items or
        # seed built a spec that numpy then refused mid-run.
        with pytest.raises(ValueError, match=f"^{field} must be (an integer|integers), got {re.escape(repr(value))}$"):
            WorkloadSpec(**{field: value})

    def test_numpy_integer_counts_become_python_ints(self):
        ws = WorkloadSpec(
            initial_items=np.int64(5),
            arrivals_per_epoch=(np.int32(1), np.int64(2)),
            accesses_per_interaction=np.int64(2),
            dimension=np.int16(4),
            seed=np.uint8(3),
        )
        counts = (ws.initial_items, *ws.arrivals_per_epoch, ws.accesses_per_interaction, ws.dimension, ws.seed)
        assert counts == (5, 1, 2, 2, 4, 3)
        assert {type(v) for v in counts} == {int}
        assert WorkloadSpec(arrivals_per_epoch=np.int64(7)).arrivals_per_epoch == (7, 7)

    def test_negative_zero_history_window_becomes_zero(self):
        # -0.0 passes the range check, but as the high end of the corpus's
        # t_last draw it is below the low end 0.0.
        ws = WorkloadSpec(initial_items=3, dimension=4, history_window_s=-0.0)
        assert math.copysign(1.0, ws.history_window_s) == 1.0
        assert [r.t_last for r in generate_initial(ws)] == [0.0, 0.0, 0.0]

    def test_from_items_builds(self):
        ws = spec_from_items(WorkloadSpec, {"initial_items": 10, "access_skew": 1.3}, "workload.")
        assert ws.initial_items == 10
        assert ws.access_skew == 1.3

    def test_from_items_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="churn"):
            spec_from_items(WorkloadSpec, {"churn": 2}, "workload.")

    def test_from_items_wraps_value_errors(self):
        with pytest.raises(ConfigError):
            spec_from_items(WorkloadSpec, {"relevance_mix": 7.0}, "workload.")


class TestContext:
    def test_context_is_deterministic_and_unit_norm(self):
        a = make_context(spec())
        b = make_context(spec())
        np.testing.assert_array_equal(a.embedding, b.embedding)
        assert np.linalg.norm(a.embedding) == pytest.approx(1.0)

    def test_context_equality_and_hash_go_by_identity(self):
        # A generated __eq__ would compare the ndarray field and raise.
        a = make_context(spec())
        b = make_context(spec())
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert {a: 1, b: 2}[a] == 1

    def test_context_varies_with_seed(self):
        a = make_context(spec(seed=1))
        b = make_context(spec(seed=2))
        assert not np.array_equal(a.embedding, b.embedding)


class TestGenerateInitial:
    def test_zero_items(self):
        assert generate_initial(spec(initial_items=0)) == []

    def test_exact_count_and_unique_valid_ids(self):
        records = generate_initial(spec(initial_items=80))
        assert len(records) == 80
        ids = {r.id for r in records}
        assert len(ids) == 80
        for mid in ids:
            assert uuid.UUID(mid).version == 4

    def test_same_seed_reproduces_the_corpus(self):
        a = generate_initial(spec())
        b = generate_initial(spec())
        assert [r.id for r in a] == [r.id for r in b]
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.embedding, rb.embedding)
            assert (ra.t_last, ra.salience, ra.agent_id) == (rb.t_last, rb.salience, rb.agent_id)

    def test_cosines_land_in_the_two_bands(self):
        ws = spec(initial_items=300)
        context_unit = make_context(ws).embedding
        near = far = 0
        for rec in generate_initial(ws):
            c = cosine(rec.embedding, context_unit)
            if NEAR_COS[0] - 1e-9 <= c <= NEAR_COS[1] + 1e-9:
                near += 1
            elif FAR_COS[0] - 1e-9 <= c <= FAR_COS[1] + 1e-9:
                far += 1
            else:
                pytest.fail(f"cosine {c} outside both bands")
        # mix=0.5 over 300 draws: a 6-sigma band around 150 is ~±52.
        assert abs(near - 150) < 52
        assert far == 300 - near

    def test_relevance_mix_extremes(self):
        ws = spec(initial_items=40, relevance_mix=1.0)
        context = make_context(ws)
        for rec in generate_initial(ws):
            assert relevance(rec, context) >= 0.80 - 1e-9
        ws = spec(initial_items=40, relevance_mix=0.0)
        context = make_context(ws)
        for rec in generate_initial(ws):
            assert relevance(rec, context) <= 0.55 + 1e-9

    def test_field_ranges(self):
        ws = spec(initial_items=100, history_window_s=500.0)
        for rec in generate_initial(ws):
            assert 0.0 <= rec.t_last <= 500.0
            assert 0.0 <= rec.salience <= 1.0
            assert rec.agent_id in AGENT_IDS
            norm = float(np.linalg.norm(rec.embedding))
            assert 0.4 <= norm <= 2.1  # uniform(0.5, 2.0) magnitude, pre-normalization

    def test_arrivals_start_at_now(self):
        # Each arrival's t_last is its own instant, in the order given.
        ws = spec()
        rng = traffic_stream(ws)
        instants = [123.5, 124.0, 124.0, 130.25, 131.0]
        arrivals = make_arrivals(ws, rng, instants, context=make_context(ws))
        assert [r.t_last for r in arrivals] == instants


class ParallelFirst:
    """A generator whose first standard normal lies along `along`; the rest come from `rng`."""

    def __init__(self, rng: np.random.Generator, along: np.ndarray):
        self.rng, self.along, self.normals = rng, along, 0

    def standard_normal(self, size):
        self.normals += 1
        return 2.0 * self.along if self.normals == 1 else self.rng.standard_normal(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestDrawRecords:
    N = 120

    def draw(self, ws, n=N, rng=None):
        rng = rng or traffic_stream(ws)
        return _draw_records(ws, rng, make_context(ws).embedding, [float(i) for i in range(n)])

    def test_cosine_and_norm_are_the_drawn_ones(self):
        ws = spec(relevance_mix=0.5)
        records = self.draw(ws)
        # The cosines and magnitudes are the second and third array draws.
        twin = traffic_stream(ws)
        near = twin.random(self.N) < ws.relevance_mix
        lo = np.where(near, NEAR_COS[0], FAR_COS[0])
        cosines = twin.uniform(lo, np.where(near, NEAR_COS[1], FAR_COS[1]))
        magnitudes = twin.uniform(0.5, 2.0, self.N)
        context_unit = make_context(ws).embedding
        for rec, want_cos, want_norm in zip(records, cosines, magnitudes):
            assert abs(cosine(rec.embedding, context_unit) - want_cos) <= 1e-12
            norm = float(np.linalg.norm(rec.embedding))
            assert 0.5 <= norm <= 2.0
            assert norm == pytest.approx(want_norm, abs=1e-12)

    def test_embeddings_are_read_only_and_unshared(self):
        ws = spec()
        records = self.draw(ws, n=40)
        context_unit = make_context(ws).embedding
        for rec in records:
            assert rec.embedding.dtype == np.float64
            assert not rec.embedding.flags.writeable
            assert not np.shares_memory(rec.embedding, context_unit)
        for a, b in combinations(records, 2):
            assert not np.shares_memory(a.embedding, b.embedding)

    def test_ids_are_unique_uuid4_strings(self):
        ids = [r.id for r in self.draw(spec())]
        assert len(set(ids)) == self.N
        for mid in ids:
            parsed = uuid.UUID(mid)
            assert str(parsed) == mid
            assert parsed.version == 4
            assert parsed.variant == uuid.RFC_4122

    def test_agents_come_from_the_roster(self):
        assert {r.agent_id for r in self.draw(spec())} == set(AGENT_IDS)

    @pytest.mark.parametrize("mix,band", [(0.0, FAR_COS), (1.0, NEAR_COS)], ids=["far", "near"])
    def test_relevance_mix_extremes_pick_one_band(self, mix, band):
        ws = spec(relevance_mix=mix)
        context_unit = make_context(ws).embedding
        for rec in self.draw(ws):
            assert band[0] - 1e-12 <= cosine(rec.embedding, context_unit) <= band[1] + 1e-12

    def test_no_records_draw_nothing(self):
        ws = spec()
        rng = traffic_stream(ws)
        rng.integers(0, 5)  # a buffered 32-bit half, which a zero-length bytes draw would drop
        state = rng.bit_generator.state
        assert self.draw(ws, n=0, rng=rng) == []
        assert rng.bit_generator.state == state

    def test_a_normal_along_the_context_is_redrawn_once(self):
        ws = spec(dimension=4)
        context_unit = np.eye(4)[0]
        stub = ParallelFirst(traffic_stream(ws), context_unit)
        [got] = _draw_records(ws, stub, context_unit, [1.0])
        [want] = _draw_records(ws, traffic_stream(ws), context_unit, [1.0])
        assert stub.normals == 2
        assert record_fields([got]) == record_fields([want])


class TestZipfSampler:
    def test_empty_population_rejected(self):
        with pytest.raises(EmptyPopulation):
            ZipfSampler(0, 1.0)

    def test_single_id_always_rank_zero(self):
        sampler = ZipfSampler(1, 1.0)
        rng = np.random.default_rng(0)
        assert set(sampler.sample(rng, 100)) == {0}

    def test_low_ranks_dominate(self):
        sampler = ZipfSampler(100, 1.0)
        rng = np.random.default_rng(1)
        draws = sampler.sample(rng, 10_000)
        counts = np.bincount(draws, minlength=100)
        assert counts[0] > counts[9] > counts[49]

    def test_frequencies_match_analytic_mass(self):
        population, skew = 50, 1.2
        sampler = ZipfSampler(population, skew)
        rng = np.random.default_rng(2)
        draws = sampler.sample(rng, 50_000)
        counts = np.bincount(draws, minlength=population)
        weights = np.arange(1, population + 1, dtype=float) ** -skew
        expected = weights / weights.sum()
        observed = counts / counts.sum()
        # Top ranks carry enough mass for a tight relative check.
        for rank in range(5):
            assert observed[rank] == pytest.approx(expected[rank], rel=0.1)

    def test_draws_stay_in_range(self):
        sampler = ZipfSampler(7, 2.0)
        rng = np.random.default_rng(3)
        assert set(sampler.sample(rng, 1000)) <= set(range(7))


def reference_records(ws, rng, context_unit, t_last):
    """Stream v2's records one scalar draw at a time: every near flag, cosine,
    magnitude, agent and salience in turn, then the ids 16 bytes at a time,
    then each record's normal vector, redrawn while it lies along the context."""
    n = len(t_last)
    if not n:
        return []
    near = [rng.random() < ws.relevance_mix for _ in range(n)]
    cosines = [rng.uniform(*(NEAR_COS if flag else FAR_COS)) for flag in near]
    magnitudes = [rng.uniform(0.5, 2.0) for _ in range(n)]
    agents = [AGENT_IDS[int(rng.integers(len(AGENT_IDS)))] for _ in range(n)]
    saliences = [rng.random() for _ in range(n)]
    ids = [str(uuid.UUID(bytes=rng.bytes(16), version=4)) for _ in range(n)]
    records = []
    for i in range(n):
        ortho = np.zeros(1)
        while not ortho.any():
            raw = rng.standard_normal(len(context_unit))
            ortho = raw - raw.dot(context_unit) * context_unit
        norm = math.sqrt(ortho.dot(ortho))
        scale = math.sqrt(1.0 - cosines[i] * cosines[i]) * magnitudes[i] / norm
        embedding = ortho * scale + cosines[i] * magnitudes[i] * context_unit
        records.append(MemoryRecord(ids[i], embedding, agents[i], t_last[i], saliences[i]))
    return records


def reference_traffic(ws, live, rng, context, interactions, now):
    """Stream v2's epoch one interaction at a time: the arrival count, each
    arrival's slot, each interaction's Zipf draws by a plain searchsorted over
    the mass, then the arrival records at their slots' instants."""
    lo, hi = ws.arrivals_per_epoch
    count = int(rng.integers(lo, hi + 1))
    slots = sorted(int(rng.integers(0, interactions)) for _ in range(count))
    k = ws.accesses_per_interaction
    ranks = np.arange(1, len(live) + 1, dtype=np.float64)
    cumulative = np.cumsum(ranks**-ws.access_skew)
    accesses, instants = [], []
    for _ in range(interactions):
        now += ws.interaction_interval_s
        instants.append(now)
        if live and k:
            draws = rng.random(k) * cumulative[-1]
            indexes = np.searchsorted(cumulative, draws, side="right")
            accesses.append((tuple(live[int(i)] for i in indexes), now))
    arrivals = reference_records(ws, rng, context.embedding, [instants[slot] for slot in slots])
    return accesses, arrivals, now


def record_fields(records):
    return [(r.id, r.agent_id, r.t_last, r.salience, tuple(r.embedding)) for r in records]


class TestEpochTraffic:
    @pytest.mark.parametrize("k", [0, 1, 4])
    @pytest.mark.parametrize("population", [0, 1, 40])
    @pytest.mark.parametrize(
        "arrival_range", [(0, 0), (1, 1), (3, 6), (20, 20)], ids=["0..0", "1..1", "3..6", "20..20"]
    )
    def test_stream_matches_straight_line_reference(self, k, population, arrival_range):
        # Same ids at the same instant for every read, the same arrival
        # records, the same last instant and the same RNG state afterwards.
        ws = spec(
            accesses_per_interaction=k,
            access_skew=1.3,
            interaction_interval_s=0.1,
            arrivals_per_epoch=arrival_range,
        )
        context = make_context(ws)
        live = tuple(f"m{i}" for i in range(population))
        rng, twin = traffic_stream(ws), traffic_stream(ws)
        rng.integers(0, 5)  # leave a buffered 32-bit half in both streams
        twin.integers(0, 5)
        reads = []
        arrivals, end = epoch_traffic(
            ws,
            live,
            rng,
            lambda ids, instant: reads.append((tuple(ids), instant)),
            context=context,
            interactions=30,
            now=7200.0,
        )
        want_reads, want_arrivals, want_end = reference_traffic(ws, live, twin, context, 30, 7200.0)
        assert reads == want_reads
        assert len(reads) == (30 if population and k else 0)
        assert record_fields(arrivals) == record_fields(want_arrivals)
        assert arrival_range[0] <= len(arrivals) <= arrival_range[1]
        assert end == want_end
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_early_ids_are_popular(self):
        ws = spec(accesses_per_interaction=1, access_skew=1.2, arrivals_per_epoch=(0, 0))
        live = [f"m{i}" for i in range(30)]
        hits = {mid: 0 for mid in live}

        def access(ids, instant):
            for mid in ids:
                hits[mid] += 1

        epoch_traffic(
            ws,
            live,
            traffic_stream(ws),
            access,
            context=make_context(ws),
            interactions=3000,
            now=0.0,
        )
        assert sum(hits.values()) == 3000
        assert hits["m0"] > hits["m15"]


class TestDefaultAgents:
    def test_reference_roster(self):
        agents = default_agents()
        assert tuple(a.agent_id for a in agents) == AGENT_IDS
        assert [a.weight for a in agents] == [1.5, 1.5, 1.0, 1.0]
        assert all(a.confidence == 1.0 and a.active for a in agents)
        assert all(a.fault.kind is FaultKind.HONEST for a in agents)

    def test_fault_assignment(self):
        fault = FaultProfile(FaultKind.SILENT_HALF, coin_seed=3)
        agents = default_agents({"planner-2": fault})
        by_id = {a.agent_id: a for a in agents}
        assert by_id["planner-2"].fault == fault
        assert by_id["planner-1"].fault.kind is FaultKind.HONEST


class TestHorizonProblem:
    def test_network_clock_bound_counts_every_live_memory(self):
        # 10 epochs start with at most 1000, 1020, ..., 1180 memories: 10,900 rounds.
        ws = WorkloadSpec(arrivals_per_epoch=(10, 20))
        assert horizon_problem(ws, 100, 10, 1e306) is None
        problem = horizon_problem(ws, 100, 10, 1e307)
        assert problem.startswith("network clock overflows: 10900 round(s) in 10 epoch(s)")

    def test_round_count_past_the_float_range(self):
        problem = horizon_problem(WorkloadSpec(history_window_s=0.0), 0, 10**200, 5.0)
        assert problem.startswith("network clock overflows: ") and " = inf s" in problem

    def test_both_clocks_report_one_line_each(self):
        lines = horizon_problem(WorkloadSpec(interaction_interval_s=1e308), 100, 1, 1e308).splitlines()
        assert [line.partition(":")[0] for line in lines] == ["run clock overflows", "network clock overflows"]


class TestAggregate:
    def test_requires_reports(self):
        with pytest.raises(ValueError, match="at least one"):
            aggregate([])

    def test_footprint_reduction(self):
        # Baseline: the first epoch's start plus every epoch's arrivals.
        reports = [
            FakeReport(memories_start=100, additions=10, memories_end=110),
            FakeReport(memories_start=110, additions=10, memories_end=60),
        ]
        summary = aggregate(reports)
        assert summary.footprint_reduction == pytest.approx(1.0 - 60 / 120)
        assert summary.final_footprint == 60
        assert summary.final_baseline_footprint == 120

    def test_zero_baseline_means_zero_reduction(self):
        summary = aggregate([FakeReport(memories_start=0, memories_end=0)])
        assert summary.footprint_reduction == 0.0

    def test_default_success_rate_counts_vacuous_epochs(self):
        reports = [
            FakeReport(consensus_reached=0, consensus_failed=0),  # vacuous: success
            FakeReport(consensus_reached=5, consensus_failed=0),
            FakeReport(consensus_reached=4, consensus_failed=1),
        ]
        summary = aggregate(reports)
        assert summary.pbft_success_rate == pytest.approx(2 / 3)
        # A run with no instances at all succeeded in every epoch.
        assert aggregate([FakeReport(), FakeReport()]).pbft_success_rate == 1.0

    def test_success_rate_example(self):
        reports = [FakeReport(consensus_reached=1) for _ in range(480)]
        reports += [FakeReport(consensus_reached=0, consensus_failed=2) for _ in range(20)]
        summary = aggregate(reports)
        assert summary.pbft_success_rate == pytest.approx(0.96)

    def test_cache_hit_rate_pools_all_epochs(self):
        reports = [
            FakeReport(cache_hits=70, cache_misses=30),
            FakeReport(cache_hits=0, cache_misses=0),
            FakeReport(cache_hits=30, cache_misses=70),
        ]
        summary = aggregate(reports)
        assert summary.cache_hit_rate == pytest.approx(0.5)

    def test_no_traffic_means_zero_hit_rate(self):
        summary = aggregate([FakeReport()])
        assert summary.cache_hit_rate == 0.0

    def test_deletion_rollups(self):
        reports = [
            FakeReport(deletion_rate=0.2, deleted=20),
            FakeReport(deletion_rate=0.0, deleted=0),
        ]
        summary = aggregate(reports)
        assert summary.mean_deletion_rate == pytest.approx(0.1)
        assert summary.total_deleted == 20
        assert summary.epochs == 2
        assert isinstance(summary, SummaryMetrics)
