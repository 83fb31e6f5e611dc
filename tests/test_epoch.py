"""Epoch orchestration end to end: proposals, consensus rounds, deletion commits.

The epoch's four phases are pinned against straight-line recomputation of the
same formulas, and run_simulation is checked for determinism and conservation
of the memory population.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

import coforget.consensus
import coforget.epoch
from coforget.core import AgentProfile, FaultBoundViolation, ProtocolConfig, MemoryRecord
from coforget.decay import decay_score
from coforget.epoch import EpochReport, run_epoch, run_simulation
from coforget.relevance import ContextProfile, ExternalScorer, relevance
from coforget.store import MemoryStore, MetadataTable
from coforget.transport import NetworkConfig, SimulatedNetwork
from coforget.voting import vote_rule
from coforget.workload import WorkloadSpec, default_agents

DIM = 8
CFG = ProtocolConfig(cache_capacity=50, batch_size=10, batch_interval_s=30.0)
AGENTS = default_agents()
Q = (2.0 / 3.0) * 5.0  # alpha times the reference roster's total weight


def context() -> ContextProfile:
    vec = np.zeros(DIM)
    vec[0] = 1.0
    return ContextProfile(embedding=vec, label="ctx")


def record(memory_id: str, *, cos: float, t_last: float) -> MemoryRecord:
    # First axis is the context direction; second keeps the norm at 1.
    vec = np.zeros(DIM)
    vec[0] = cos
    vec[1] = math.sqrt(max(0.0, 1.0 - cos * cos))
    return MemoryRecord(
        id=memory_id, embedding=vec, agent_id="planner-1", t_last=t_last, salience=0.5
    )


def fresh_store(records, now: float) -> MemoryStore:
    st = MemoryStore.from_config(CFG, DIM)
    for rec in records:
        st.put(rec, now)
    st.commit(now)
    return st


def lossless() -> SimulatedNetwork:
    return SimulatedNetwork(NetworkConfig(drop_prob=0.0, seed=0))


class TestRunEpochOutcomes:
    def test_fresh_memories_produce_no_proposals(self):
        # At zero age the decay term alone clears the vote threshold.
        records = [record(f"m{i}", cos=-0.5, t_last=100.0) for i in range(5)]
        st = fresh_store(records, now=100.0)
        report = run_epoch(st, AGENTS, context(), CFG, lossless(), now=100.0)
        assert report.proposed == 0
        assert report.consensus_reached == 0
        assert report.consensus_failed == 0
        assert report.deleted == 0
        assert report.memories_start == report.memories_end == 5
        assert report.per_memory_audit == []
        assert st.count() == 5

    def test_ancient_far_memories_are_deleted_unanimously(self):
        records = [record(f"m{i}", cos=0.0, t_last=0.0) for i in range(3)]
        st = fresh_store(records, now=0.0)
        report = run_epoch(st, AGENTS, context(), CFG, lossless(), now=1e6)
        assert report.proposed == 3
        assert report.consensus_reached == 3
        assert report.deleted == 3
        assert st.count() == 0
        assert report.deletion_rate == pytest.approx(1.0)
        for audit in report.per_memory_audit:
            assert audit.decision == "forget"
            assert audit.outcome == "deleted"
            assert audit.commit_count == 4
            assert audit.s_m == pytest.approx(5.0)
            assert audit.q == pytest.approx(Q)
            assert audit.votes == tuple(
                (a, "forget") for a in ("percept-1", "percept-2", "planner-1", "planner-2")
            )

    def test_minority_forget_stalls_and_retains(self):
        # Planners see the memory as irrelevant, percepts do not. Their forget
        # weight (3.0) clears neither the 2f prepare bar nor the keep side, so
        # the round times out and the memory is kept for the next epoch.
        rec = record("m0", cos=0.9, t_last=0.0)
        st = fresh_store([rec], now=0.0)
        scorers = {
            "planner-1": ExternalScorer(lambda m, c: 0.0),
            "planner-2": ExternalScorer(lambda m, c: 0.0),
            "percept-1": ExternalScorer(lambda m, c: 1.0),
            "percept-2": ExternalScorer(lambda m, c: 1.0),
        }
        report = run_epoch(
            st, AGENTS, context(), CFG, lossless(), now=1e6, scorer=scorers
        )
        assert report.proposed == 1
        assert report.consensus_failed == 1
        assert report.consensus_reached == 0
        assert report.deleted == 0
        assert st.count() == 1
        audit = report.per_memory_audit[0]
        assert audit.decision == "timeout"
        assert audit.outcome == "retained"
        assert audit.s_m == pytest.approx(3.0)
        assert audit.q == pytest.approx(Q)
        assert dict(audit.votes) == {
            "planner-1": "forget",
            "planner-2": "forget",
            "percept-1": "keep",
            "percept-2": "keep",
        }

    def test_decided_forget_below_the_weighted_quorum_retains(self):
        # Three light agents out-vote the heavy one in the round (2f+1 = 3
        # COMMITs), but their forget weight 3.0 stays below Q = 2/3 * 13, so
        # the deletion gate keeps the memory.
        roster = (
            AgentProfile("boss", weight=10.0),
            *(AgentProfile(f"w{i}", weight=1.0) for i in (1, 2, 3)),
        )
        scorers = {"boss": ExternalScorer(lambda m, c: 1.0)}
        scorers.update({f"w{i}": ExternalScorer(lambda m, c: 0.0) for i in (1, 2, 3)})
        st = fresh_store([record("m0", cos=0.0, t_last=0.0)], now=0.0)
        report = run_epoch(st, roster, context(), CFG, lossless(), now=1e6, scorer=scorers)
        assert (report.proposed, report.consensus_reached, report.deleted) == (1, 1, 0)
        audit = report.per_memory_audit[0]
        assert audit.decision == "forget"
        assert audit.s_m == pytest.approx(3.0)
        assert audit.q == pytest.approx(8.667, abs=1e-3)
        assert audit.commit_count == 3
        assert audit.outcome == "retained"
        assert st.ids() == ("m0",)

    def test_total_message_loss_retains_everything(self):
        records = [record(f"m{i}", cos=0.0, t_last=0.0) for i in range(4)]
        st = fresh_store(records, now=0.0)
        net = SimulatedNetwork(NetworkConfig(drop_prob=1.0, seed=0))
        report = run_epoch(st, AGENTS, context(), CFG, net, now=1e6)
        assert report.proposed == 4
        assert report.consensus_failed == 4
        assert report.deleted == 0
        assert st.count() == 4
        assert all(a.decision == "timeout" for a in report.per_memory_audit)

    def test_elapsed_time_is_the_clock_advance_over_the_rounds(self, monkeypatch):
        rounds = []

        def recording_run_round(*args, **kwargs):
            rounds.append(coforget.consensus.run_round(*args, **kwargs))
            return rounds[-1]

        monkeypatch.setattr(coforget.epoch, "run_round", recording_run_round)
        net = SimulatedNetwork(NetworkConfig(drop_prob=0.1, seed=3))
        for now in (1e6, 2e6):
            st = fresh_store([record(f"m{i}", cos=0.0, t_last=0.0) for i in range(6)], now=0.0)
            rounds.clear()
            clock_before = net.clock
            report = run_epoch(st, AGENTS, context(), CFG, net, now=now)
            assert report.proposed == len(rounds) == 6
            assert report.elapsed_virtual_s == net.clock - clock_before > 0.0
            assert report.elapsed_virtual_s == pytest.approx(sum(r.elapsed_virtual_s for r in rounds), rel=1e-12)
        # No proposal, no round: the clock stands still.
        clock_before = net.clock
        st = fresh_store([record("fresh", cos=-0.5, t_last=100.0)], now=100.0)
        assert run_epoch(st, AGENTS, context(), CFG, net, now=100.0).elapsed_virtual_s == 0.0
        assert net.clock == clock_before

    def test_arrivals_join_after_deletion(self):
        # An arrival that would itself qualify for forgetting still survives
        # the epoch it arrives in: the snapshot was taken before it landed.
        old = record("old", cos=0.0, t_last=0.0)
        st = fresh_store([old], now=0.0)
        arrival = record("new", cos=0.0, t_last=0.0)
        report = run_epoch(
            st, AGENTS, context(), CFG, lossless(), now=1e6, arrivals=[arrival]
        )
        assert report.deleted == 1
        assert report.additions == 1
        assert report.memories_start == 1
        assert report.memories_end == 1
        assert st.ids() == ("new",)

    def test_mixed_corpus_proposal_soundness(self):
        # The proposal set must be exactly the ids whose recomputed combined
        # confidence falls below the vote threshold.
        now = 5000.0
        records = [
            record("ancient-far", cos=0.0, t_last=0.0),
            record("ancient-near", cos=0.9, t_last=0.0),
            record("recent-far", cos=0.0, t_last=now),
            record("recent-near", cos=0.9, t_last=now),
        ]
        st = fresh_store(records, now=now)
        ctx = context()
        expected_forget = set()
        for rec in records:
            d = decay_score(rec.t_last, now, CFG).combined
            r = relevance(rec, ctx)
            if vote_rule(d, r, CFG)[1]:
                expected_forget.add(rec.id)
        assert expected_forget == {"ancient-far"}  # the setup must discriminate
        report = run_epoch(st, AGENTS, ctx, CFG, lossless(), now=now)
        assert {a.memory_id for a in report.per_memory_audit} == expected_forget
        assert report.proposed == len(expected_forget)
        # Survivors stay live.
        assert {rec.id for rec in records} - expected_forget <= set(st.ids())

    def test_deletions_always_carry_quorum_evidence(self):
        rng = np.random.default_rng(7)
        now = 3000.0
        records = [
            record(f"m{i}", cos=float(rng.uniform(-0.8, 0.95)), t_last=float(rng.uniform(0.0, now)))
            for i in range(30)
        ]
        st = fresh_store(records, now=now)
        report = run_epoch(st, AGENTS, context(), CFG, lossless(), now=now + 400.0)
        for audit in report.per_memory_audit:
            if audit.outcome == "deleted":
                assert audit.decision == "forget"
                assert audit.s_m >= audit.q
                assert audit.commit_count >= 2 * CFG.f + 1
            if audit.decision == "timeout":
                assert audit.outcome == "retained"
        deleted_ids = {a.memory_id for a in report.per_memory_audit if a.outcome == "deleted"}
        assert report.deleted == len(deleted_ids)
        assert set(st.ids()) == {r.id for r in records} - deleted_ids

    @pytest.mark.parametrize("per_agent", [False, True], ids=["shared", "per_agent"])
    def test_exact_boundary_vote_keeps(self, per_agent):
        # Age 0 gives D = 1.0 and relevance 0.0 gives C = 0.4 = vote_threshold,
        # which keeps; a microsecond of age puts C just below and forgets.
        assert decay_score(100.0, 100.0, CFG).combined == 1.0
        assert vote_rule(1.0, 0.0, CFG) == (CFG.vote_threshold, False)
        zero = ExternalScorer(lambda m, c: 0.0)
        scorer = {a.agent_id: ExternalScorer(lambda m, c: 0.0) for a in AGENTS} if per_agent else zero
        st = fresh_store([record("m0", cos=0.0, t_last=100.0)], now=100.0)
        at_boundary = run_epoch(st, AGENTS, context(), CFG, lossless(), now=100.0, scorer=scorer)
        assert at_boundary.proposed == 0
        assert at_boundary.per_memory_audit == []
        assert st.count() == 1
        below = run_epoch(st, AGENTS, context(), CFG, lossless(), now=100.000001, scorer=scorer)
        assert below.proposed == 1
        assert below.per_memory_audit[0].votes == tuple(
            (a, "forget") for a in ("percept-1", "percept-2", "planner-1", "planner-2")
        )

    @pytest.mark.parametrize("mode", ["shared", "per_agent", "one_scorer_mapping"])
    def test_relevance_columns_hold_the_snapshot_ids(self, mode):
        # The store keeps one column per (scorer, context): ids deleted in or
        # between epochs drop out, and only ids the column lacks are scored,
        # once per distinct scorer object.
        scored: list[str] = []

        def zero(memory, ctx):
            scored.append(memory.id)
            return 0.0

        records = [record(f"m{i}", cos=0.0, t_last=0.0) for i in range(3)]
        records += [record("kept", cos=0.9, t_last=1e6), record("gone", cos=0.9, t_last=1e6)]
        st = fresh_store(records, now=1e6)
        one = ExternalScorer(zero)
        scorer = {
            "shared": one,
            "per_agent": {a.agent_id: ExternalScorer(zero) for a in AGENTS},
            "one_scorer_mapping": {a.agent_id: one for a in AGENTS},
        }[mode]
        ctx = context()
        keys = [(s, ctx) for s in scorer.values()] if mode == "per_agent" else [(one, ctx)]
        first = run_epoch(
            st, AGENTS, ctx, CFG, lossless(), now=1e6, scorer=scorer,
            arrivals=[record("new", cos=0.5, t_last=1e6)],
        )
        assert first.deleted == 3
        st.delete(["gone"])
        snapshot = [memory_id for memory_id, _ in st.scan_t_last()]
        assert snapshot == ["kept", "new"]
        del scored[:]
        second = run_epoch(st, AGENTS, ctx, CFG, lossless(), now=1e6, scorer=scorer)
        assert second.deleted == 0
        columns = st.relevance_columns
        assert {key: list(column) for key, column in columns.items()} == {key: snapshot for key in keys}
        assert scored == ["new"] * len(keys)

    def test_relevance_columns_keep_only_this_epochs_scorers(self):
        # A replaced scorer gets a fresh column: its scores are not the old
        # scorer's, and the old column is dropped, so the store stays bounded.
        st = fresh_store([record(f"m{i}", cos=0.0, t_last=0.0) for i in range(3)], now=0.0)
        ctx = context()
        keep = ExternalScorer(lambda m, c: 1.0)
        first = run_epoch(st, AGENTS, ctx, CFG, lossless(), now=1e6, scorer=keep)
        assert first.proposed == 0 and list(st.relevance_columns) == [(keep, ctx)]
        forget = ExternalScorer(lambda m, c: 0.0)
        second = run_epoch(st, AGENTS, ctx, CFG, lossless(), now=1e6, scorer=forget)
        assert second.proposed == 3
        assert list(st.relevance_columns) == [(forget, ctx)]

    def test_relevance_columns_rescore_under_a_new_context(self):
        # A memory relevant to one context is scored afresh under an
        # orthogonal one, not read back from the first context's column.
        st = fresh_store([record("m0", cos=1.0, t_last=0.0)], now=0.0)
        along, across = context(), ContextProfile(embedding=np.eye(DIM)[2], label="other")
        # Fully decayed, C = 0.6 R: R = 1 along the context keeps, R = 0.5 across it forgets.
        first = run_epoch(st, AGENTS, along, CFG, lossless(), now=1e6)
        assert first.proposed == 0
        second = run_epoch(st, AGENTS, across, CFG, lossless(), now=1e6)
        assert second.proposed == 1
        assert list(st.relevance_columns) == [(None, across)]

    def test_a_re_put_memory_is_scored_afresh(self):
        # Kept while near the context; re-put under the same id as far, it is
        # scored again rather than read back from its old column.
        st = fresh_store([record("m0", cos=0.95, t_last=0.0)], now=0.0)
        ctx = context()
        first = run_epoch(st, AGENTS, ctx, CFG, lossless(), now=1e6)
        assert first.proposed == first.deleted == 0
        st.put(record("m0", cos=-0.8, t_last=0.0), now=1e6)
        second = run_epoch(st, AGENTS, ctx, CFG, lossless(), now=1e6)
        assert second.proposed == second.deleted == 1
        assert st.count() == 0

    def test_each_memory_is_scored_once_per_put(self):
        # Planners and percepts use one scorer each, so the store keeps two
        # columns; a memory is scored once by each per put, not per epoch.
        calls: dict[str, int] = {}

        def keep(memory, ctx):
            calls[memory.id] = calls.get(memory.id, 0) + 1
            return 1.0

        planner, percept = ExternalScorer(keep), ExternalScorer(keep)
        scorer = {a.agent_id: planner if a.agent_id.startswith("planner") else percept for a in AGENTS}
        st = fresh_store([record(f"m{i}", cos=0.0, t_last=0.0) for i in range(3)], now=0.0)
        ctx = context()
        run_epoch(st, AGENTS, ctx, CFG, lossless(), now=1e6, scorer=scorer)
        assert calls == {"m0": 2, "m1": 2, "m2": 2}
        st.put(record("m1", cos=0.5, t_last=0.0), now=1e6)
        st.delete(["m2"])
        assert len(st.relevance_columns) == 2
        assert all(list(column) == ["m0"] for column in st.relevance_columns.values())
        for _ in range(2):
            report = run_epoch(st, AGENTS, ctx, CFG, lossless(), now=1e6, scorer=scorer)
            assert report.proposed == 0
            assert calls == {"m0": 2, "m1": 4, "m2": 2}
        assert {key: list(column) for key, column in st.relevance_columns.items()} == {
            (planner, ctx): ["m0", "m1"],
            (percept, ctx): ["m0", "m1"],
        }

    def test_empty_store_epoch_is_a_no_op(self):
        st = MemoryStore.from_config(CFG, DIM)
        report = run_epoch(st, AGENTS, context(), CFG, lossless(), now=0.0)
        assert report.memories_start == 0
        assert report.memories_end == 0
        assert report.proposed == 0
        assert report.deletion_rate == 0.0

    @pytest.mark.parametrize("now", [math.inf, math.nan, -1.0])
    def test_a_bad_clock_raises_before_any_phase(self, now):
        # Checked only at the commit, an infinite clock would first delete
        # every memory it decays to nothing and then leave the store uncommitted.
        records = [record(f"m{i}", cos=0.0, t_last=0.0) for i in range(20)]
        st = fresh_store(records, now=0.0)
        before = (st.count(), st.scan_t_last(), [st.record(r.id) for r in records])
        arrival = record("new", cos=0.0, t_last=0.0)
        with pytest.raises(ValueError, match="now must be finite"):
            run_epoch(st, AGENTS, context(), CFG, lossless(), now=now, arrivals=[arrival])
        assert (st.count(), st.scan_t_last(), [st.record(r.id) for r in records]) == before
        assert st.record("new") is None

    def test_direct_epoch_reports_no_cache_reads(self):
        # Reads belong to the traffic between epochs; the epoch makes none.
        st = fresh_store([record(f"m{i}", cos=0.5, t_last=10.0) for i in range(3)], now=10.0)
        for _ in range(5):
            st.get("m0", now=10.0)
        counters = (st.hits, st.misses)
        report = run_epoch(st, AGENTS, context(), CFG, lossless(), now=1e6)
        assert (report.cache_hits, report.cache_misses) == (0, 0)
        assert (st.hits, st.misses) == counters


class TestRunSimulation:
    SPEC = WorkloadSpec(
        initial_items=60,
        arrivals_per_epoch=(2, 5),
        dimension=DIM,
        history_window_s=1800.0,
        seed=3,
    )
    SIM_CFG = replace(CFG, epoch_interactions=20)

    def test_rejects_bad_epoch_count(self):
        with pytest.raises(ValueError, match="epochs"):
            run_simulation(self.SIM_CFG, self.SPEC, 0)

    def test_rejects_a_roster_outside_the_fault_bound(self):
        # N is the roster's size: f = 1 needs 4 or 5 agents, f = 0 at most 1.
        with pytest.raises(FaultBoundViolation, match="N ≥ 3f\\+1 violated: N=3, f=1"):
            run_simulation(self.SIM_CFG, self.SPEC, 1, agents=AGENTS[:3])
        with pytest.raises(FaultBoundViolation, match="N ≤ 4f\\+1 violated: N=4, f=0"):
            run_simulation(replace(self.SIM_CFG, f=0), self.SPEC, 1)

    def test_rejects_a_roster_with_too_few_active_agents(self, monkeypatch):
        # Two of four agents inactive at f = 1: every round would time out.
        epochs_run = []
        monkeypatch.setattr(coforget.epoch, "run_epoch", lambda *a, **k: epochs_run.append(a))
        agents = [replace(a, active=a.agent_id.startswith("planner")) for a in AGENTS]
        with pytest.raises(FaultBoundViolation, match="2 active agents"):
            run_simulation(self.SIM_CFG, self.SPEC, 5, agents=agents)
        assert epochs_run == []

    def test_rejects_a_repeated_agent_id_before_any_epoch(self, monkeypatch):
        # Without the check, the repeated id crashes the first consensus round.
        epochs_run = []
        monkeypatch.setattr(coforget.epoch, "run_epoch", lambda *a, **k: epochs_run.append(a))
        agents = [AgentProfile("a", 1.5), AgentProfile("a", 1.5), AgentProfile("b"), AgentProfile("c")]
        with pytest.raises(FaultBoundViolation, match="'a' appears more than once"):
            run_simulation(self.SIM_CFG, self.SPEC, 5, agents=agents)
        assert epochs_run == []

    def test_identical_runs_are_identical(self):
        a = run_simulation(self.SIM_CFG, self.SPEC, 4)
        b = run_simulation(self.SIM_CFG, self.SPEC, 4)
        assert [asdict(r) for r in a.reports] == [asdict(r) for r in b.reports]
        assert a.baseline_footprints == b.baseline_footprints
        assert a.summary == b.summary

    def test_population_conservation_and_baseline(self):
        result = run_simulation(self.SIM_CFG, self.SPEC, 5)
        previous_end = self.SPEC.initial_items
        baseline = self.SPEC.initial_items
        for report, footprint in zip(result.reports, result.baseline_footprints):
            assert report.memories_start == previous_end
            assert report.memories_end == (
                report.memories_start + report.additions - report.deleted
            )
            baseline += report.additions
            assert footprint == baseline
            previous_end = report.memories_end
        assert result.summary.final_footprint == result.reports[-1].memories_end
        assert result.summary.final_footprint <= result.baseline_footprints[-1]

    def test_cache_counts_come_from_the_traffic(self):
        # Epoch 0 starts empty, so its window has no reads; later windows read
        # accesses_per_interaction ids per interaction.
        spec = replace(self.SPEC, initial_items=0, accesses_per_interaction=3)
        result = run_simulation(self.SIM_CFG, spec, 4)
        assert result.reports[0].memories_start == 0 < result.reports[-1].memories_start
        for report in result.reports:
            reads = self.SIM_CFG.epoch_interactions * 3 if report.memories_start else 0
            assert report.cache_hits + report.cache_misses == reads

    def test_arrival_counts_respect_the_spec_range(self):
        result = run_simulation(self.SIM_CFG, self.SPEC, 5)
        lo, hi = self.SPEC.arrivals_per_epoch
        for report in result.reports:
            assert lo <= report.additions <= hi

    def test_empty_workload_runs_clean(self):
        ws = WorkloadSpec(
            initial_items=0, arrivals_per_epoch=(0, 0), dimension=DIM, seed=0
        )
        result = run_simulation(self.SIM_CFG, ws, 2)
        assert all(r.memories_end == 0 for r in result.reports)
        assert result.summary.footprint_reduction == 0.0
        assert result.summary.pbft_success_rate == 1.0

    def test_forgetting_reduces_footprint_on_aged_corpus(self):
        # With enough epochs the stale unaccessed tail is reaped, so the
        # protocol run ends strictly below the no-forgetting baseline.
        result = run_simulation(self.SIM_CFG, self.SPEC, 8)
        assert result.summary.total_deleted > 0
        assert result.summary.final_footprint < result.baseline_footprints[-1]
        assert 0.0 < result.summary.footprint_reduction < 1.0

    def test_reports_are_epoch_indexed(self):
        result = run_simulation(self.SIM_CFG, self.SPEC, 3)
        assert [r.epoch_index for r in result.reports] == [0, 1, 2]
        assert all(isinstance(r, EpochReport) for r in result.reports)

    def test_snapshot_written_once_per_run(self, tmp_path, monkeypatch):
        calls = []
        write_snapshot = MetadataTable.write_snapshot

        def counted(table, path):
            calls.append(path)
            return write_snapshot(table, path)

        monkeypatch.setattr(MetadataTable, "write_snapshot", counted)
        path = tmp_path / "metadata.csv"
        run_simulation(self.SIM_CFG, self.SPEC, 4, snapshot_path=path)
        assert calls == [path]
        run_simulation(self.SIM_CFG, self.SPEC, 4)
        assert calls == [path]

    def test_snapshot_is_the_final_commit(self, tmp_path, monkeypatch):
        # A batch smaller than the arrivals makes the final epoch's arrivals
        # size-flush into the table after its commit; the snapshot must not
        # hold them.
        final_call = {}

        def recording_run_epoch(*args, **kwargs):
            final_call.update(store=args[0], arrivals=kwargs["arrivals"])
            return run_epoch(*args, **kwargs)

        monkeypatch.setattr(coforget.epoch, "run_epoch", recording_run_epoch)
        path = tmp_path / "metadata.csv"
        cfg = replace(self.SIM_CFG, batch_size=2)
        result = run_simulation(cfg, self.SPEC, 3, snapshot_path=path)
        arrival_ids = {record.id for record in final_call["arrivals"]}
        assert arrival_ids & set(final_call["store"].table.rows)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        last = result.reports[-1]
        assert len(rows) == last.memories_end - last.additions
        assert not arrival_ids & {row["id"] for row in rows}
