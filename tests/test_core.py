"""Domain types, config validation, and the flat config file format."""

import dataclasses
import math
import random

import numpy as np
import pytest

from coforget.core import (
    AgentProfile,
    ConfigError,
    FaultBoundViolation,
    FaultKind,
    FaultProfile,
    InvalidQuorumFraction,
    LengthMismatch,
    MemoryRecord,
    ProtocolConfig,
    Vote,
    WeightSumViolation,
    config_violations,
    make_embedding,
    parse_config_text,
    spec_from_items,
    validate_config,
    validate_roster,
)
from coforget.transport import NetworkConfig
from coforget.workload import WorkloadSpec


def roster_of(n: int) -> list[AgentProfile]:
    return [AgentProfile(f"a{i}") for i in range(n)]


def record(memory_id: str = "m1", dim: int = 4, **kwargs) -> MemoryRecord:
    defaults = dict(
        id=memory_id,
        embedding=np.ones(dim),
        agent_id="a1",
        t_last=0.0,
        salience=0.5,
    )
    defaults.update(kwargs)
    return MemoryRecord(**defaults)


class TestVote:
    def test_exactly_two_values(self):
        assert {v.value for v in Vote} == {"keep", "forget"}

    def test_inverted(self):
        assert Vote.KEEP.inverted() is Vote.FORGET
        assert Vote.FORGET.inverted() is Vote.KEEP


class TestMemoryRecord:
    def test_equality_and_hash_by_id(self):
        a = record("m1", t_last=0.0)
        b = record("m1", t_last=99.0)
        c = record("m2")
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_embedding_is_read_only(self):
        r = record()
        with pytest.raises(ValueError):
            r.embedding[0] = 5.0

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            record("")

    def test_rejects_negative_t_last(self):
        with pytest.raises(ValueError):
            record(t_last=-1.0)

    def test_rejects_out_of_range_salience(self):
        with pytest.raises(ValueError):
            record(salience=1.5)

    def test_rejects_matrix_embedding(self):
        with pytest.raises(ValueError):
            record(embedding=np.ones((2, 2)))

    def test_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            record().t_last = 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_embedding(self, bad):
        # A NaN cosine clamps to relevance 1.0, so the memory could never be forgotten.
        with pytest.raises(ValueError, match="embedding must be finite"):
            record(embedding=[bad, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("t_last", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_t_last(self, t_last):
        # A NaN t_last would make the memory's decay NaN, so no agent could
        # ever vote to forget it; an infinite one fails later, mid-run.
        with pytest.raises(ValueError, match="t_last must be finite"):
            record(t_last=t_last)



def test_make_embedding_coerces_to_float64_readonly():
    v = make_embedding([1, 2, 3])
    assert v.dtype == np.float64
    assert not v.flags.writeable


def test_make_embedding_keeps_canonical_arrays_and_copies_the_rest():
    canonical = make_embedding([1.0, 2.0])
    assert make_embedding(canonical) is canonical
    writeable = np.array([1.0, 2.0])
    frozen = make_embedding(writeable)
    assert frozen is not writeable and writeable.flags.writeable
    np.testing.assert_array_equal(make_embedding(np.array([1, 2], dtype=np.int32)), canonical)
    # A strided read-only view is copied, so every embedding is contiguous.
    strided = make_embedding([1.0, 0.0, 2.0, 0.0])[::2]
    contiguous = make_embedding(strided)
    assert contiguous is not strided and contiguous.flags.c_contiguous
    np.testing.assert_array_equal(contiguous, canonical)
    with pytest.raises(ValueError, match="one-dimensional"):
        make_embedding(make_embedding([1.0]).reshape(1, 1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_make_embedding_rejects_non_finite_on_both_paths(bad):
    with pytest.raises(ValueError, match="finite"):
        make_embedding([1.0, bad])
    as_is = np.array([1.0, bad])
    as_is.flags.writeable = False  # the canonical form, which is kept as is
    with pytest.raises(ValueError, match="finite"):
        make_embedding(as_is)


class TestFaultProfile:
    @pytest.mark.parametrize("kind", ["honest", "silent_half", None])
    def test_rejects_a_kind_that_is_not_a_fault_kind(self, kind):
        # The string "honest" is not FaultKind.HONEST; accepted, it made the
        # agent equivocate in half of its rounds.
        with pytest.raises(TypeError, match="FaultKind"):
            FaultProfile(kind=kind)

    def test_accepts_every_fault_kind(self):
        for kind in FaultKind:
            assert FaultProfile(kind=kind, coin_seed=3).kind is kind

    @pytest.mark.parametrize("coin_seed", [-1, 1.5, True, "3"])
    def test_rejects_a_coin_seed_numpy_cannot_seed_with(self, coin_seed):
        # The coins come from np.random.default_rng((coin_seed, epoch)), which
        # raised mid-epoch on a negative seed.
        with pytest.raises(ValueError, match="coin_seed"):
            FaultProfile(kind=FaultKind.SILENT_HALF, coin_seed=coin_seed)


class TestAgentProfile:
    def test_defaults(self):
        a = AgentProfile("a1")
        assert a.weight == 1.0 and a.confidence == 1.0 and a.active
        assert a.fault.kind is FaultKind.HONEST

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            AgentProfile("a1", weight=0.0)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="finite"):
            AgentProfile("a1", weight=weight)

    def test_rejects_confidence_outside_unit(self):
        with pytest.raises(ValueError):
            AgentProfile("a1", confidence=-0.1)


class TestValidateConfig:
    def test_reference_parameter_set_accepted(self):
        cfg = ProtocolConfig()
        assert validate_config(cfg) is cfg
        assert cfg.f == 1
        assert cfg.alpha == pytest.approx(2.0 / 3.0)
        assert cfg.decay_scales == (10.0, 60.0, 3600.0)
        assert cfg.decay_weights == (0.2, 0.3, 0.5)
        assert cfg.vote_threshold == 0.4
        assert cfg.omega_d == 0.4 and cfg.omega_r == 0.6

    def test_fault_bound_violation(self):
        # The whole fault bound, f's sign included, is the roster check's.
        with pytest.raises(FaultBoundViolation, match="^f must be >= 0, got -1$"):
            validate_roster(ProtocolConfig(f=-1), roster_of(4))
        assert config_violations(ProtocolConfig(f=-1)) == []
        with pytest.raises(FaultBoundViolation):
            validate_roster(ProtocolConfig(f=1), roster_of(3))

    @pytest.mark.parametrize("f", [1.0, 1.5, True])
    def test_non_integer_f_rejected(self, f):
        # f = 1.0 passed every bound and ran with a float 2f.
        with pytest.raises(FaultBoundViolation, match=f"^f must be an integer, got {f!r}$"):
            validate_roster(ProtocolConfig(f=f), roster_of(4))
        validate_roster(ProtocolConfig(f=np.int64(1)), roster_of(4))

    @pytest.mark.parametrize("field", ["epoch_interactions", "cache_capacity", "batch_size"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    def test_non_integer_count_violates(self, field, value):
        # epoch_interactions = 2.5 validated and then broke range() mid-run;
        # cache_capacity = 1.5 validated and ran with a capacity of 1.
        cfg = ProtocolConfig(**{field: value})
        assert config_violations(cfg) == [(ConfigError, f"{field} must be an integer, got {value!r}")]
        with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
            validate_config(cfg)
        assert config_violations(ProtocolConfig(**{field: np.int64(3)})) == []

    def test_fault_bound_message_names_the_rule(self):
        with pytest.raises(FaultBoundViolation, match="N ≥ 3f\\+1 violated: N=3, f=1"):
            validate_roster(ProtocolConfig(f=1), roster_of(3))

    @pytest.mark.parametrize("n, f", [(4, 0), (6, 1), (7, 1), (10, 2)])
    def test_agreement_bound_violation(self, n, f):
        # Above 4f+1, two 2f+1 commit quorums can back different votes.
        with pytest.raises(FaultBoundViolation, match="N ≤ 4f\\+1"):
            validate_roster(ProtocolConfig(f=f), roster_of(n))

    def test_roster_needs_2f_plus_1_active_agents(self):
        # N counts inactive agents too, but only active ones vote: with two of
        # four inactive at f = 1 no 2f+1 commit quorum can ever form.
        roster = roster_of(4)
        two_down = roster[:2] + [dataclasses.replace(a, active=False) for a in roster[2:]]
        with pytest.raises(FaultBoundViolation, match="2 active agents cannot form a 2f\\+1 commit quorum"):
            validate_roster(ProtocolConfig(f=1), two_down)
        validate_roster(ProtocolConfig(f=1), roster[:3] + [dataclasses.replace(roster[3], active=False)])

    @pytest.mark.parametrize("n, f", [(1, 0), (4, 1), (5, 1), (7, 2), (9, 2), (10, 3)])
    def test_fault_bounds_are_inclusive(self, n, f):
        cfg = ProtocolConfig(f=f)
        assert config_violations(cfg) == []
        validate_roster(cfg, roster_of(n))

    def test_weight_sum_violation(self):
        with pytest.raises(WeightSumViolation):
            validate_config(ProtocolConfig(decay_weights=(0.5, 0.5, 0.5)))

    def test_quorum_fraction_bounds(self):
        with pytest.raises(InvalidQuorumFraction):
            validate_config(ProtocolConfig(alpha=0.5))
        with pytest.raises(InvalidQuorumFraction):
            validate_config(ProtocolConfig(alpha=1.01))
        validate_config(ProtocolConfig(alpha=1.0))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            validate_config(ProtocolConfig(decay_scales=(10.0, 60.0)))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("decay_scales", (math.nan, 60.0, 3600.0)),
            ("decay_scales", (10.0, math.inf, 3600.0)),
            ("decay_scales", (-5.0, 60.0, 3600.0)),
            ("decay_weights", (math.nan, 0.3, 0.5)),
            ("alpha", math.nan),
            ("omega_d", math.nan),
            ("vote_threshold", math.nan),
            ("batch_interval_s", math.nan),
            ("batch_interval_s", math.inf),
            ("batch_interval_s", 0.0),
        ],
    )
    def test_out_of_range_or_non_finite_value_violates(self, field, value):
        # A NaN decay scale made every decay NaN, so nothing was ever
        # forgotten; a NaN batch interval meant no time flush ever fired.
        assert len(config_violations(ProtocolConfig(**{field: value}))) == 1

    def test_threshold_open_interval(self):
        with pytest.raises(ConfigError):
            validate_config(ProtocolConfig(vote_threshold=0.0))
        with pytest.raises(ConfigError):
            validate_config(ProtocolConfig(vote_threshold=1.0))

    def test_acceptance_iff_all_constraints_hold(self):
        """Random configs and roster sizes: config_violations and validate_roster
        accept exactly when a hand-rolled constraint check passes."""
        rng = random.Random(7)

        def pick(valid, invalid):
            # Mostly valid draws, so both verdicts come up often.
            return rng.choice(valid) if rng.random() < 0.8 else rng.choice(invalid)

        verdicts = []
        for _ in range(500):
            if rng.random() < 0.8:
                scales = (10.0, 60.0, 3600.0)
                weights = rng.choice([(0.2, 0.3, 0.5), (0.5, 0.5, 0.0), (0.1, 0.2, 0.7)])
            else:
                n_scales = rng.randint(0, 4)
                scales = tuple(rng.choice([-5.0, 1.0, 10.0, 60.0]) for _ in range(n_scales))
                n_weights = rng.randint(0, 4)
                weights = tuple(rng.choice([0.0, 0.2, 0.3, 0.5, 1.2]) for _ in range(n_weights))
            n, f = pick([(1, 0), (4, 1), (5, 1), (7, 2)], [(3, 1), (4, 0), (6, 1), (6, 2), (4, -1)])
            omega_d, omega_r = pick([(0.4, 0.6), (0.7, 0.3)], [(0.4, 0.3), (0.7, 0.6), (1.2, -0.2)])
            cfg = ProtocolConfig(
                f=f,
                alpha=pick([0.51, 2.0 / 3.0, 1.0], [0.3, 0.5, 1.1]),
                decay_scales=scales,
                decay_weights=weights,
                vote_threshold=pick([0.4, 0.5], [0.0, 1.0]),
                omega_d=omega_d,
                omega_r=omega_r,
            )
            expect_ok = (
                0 <= cfg.f
                and 3 * cfg.f + 1 <= n <= 4 * cfg.f + 1
                and 0.5 < cfg.alpha <= 1.0
                and len(scales) == len(weights) > 0
                and all(s > 0 for s in scales)
                and all(0.0 <= g <= 1.0 for g in weights)
                and abs(math.fsum(weights) - 1.0) <= 1e-9
                and 0.0 <= cfg.omega_d <= 1.0
                and 0.0 <= cfg.omega_r <= 1.0
                and abs(cfg.omega_d + cfg.omega_r - 1.0) <= 1e-9
                and 0.0 < cfg.vote_threshold < 1.0
            )
            try:
                validate_roster(cfg, roster_of(n))
            except FaultBoundViolation:
                roster_ok = False
            else:
                roster_ok = True
            assert (not config_violations(cfg) and roster_ok) == expect_ok, (n, cfg)
            verdicts.append(expect_ok)
        assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50, verdicts.count(True)

    def test_roster_with_a_repeated_agent_id_rejected(self):
        # An agent id is a node address in every consensus round, so a roster
        # of the right size with a repeated id is still not a roster.
        roster = [AgentProfile("a", 1.5), AgentProfile("a", 1.5), AgentProfile("b"), AgentProfile("c")]
        with pytest.raises(FaultBoundViolation, match="'a' appears more than once"):
            validate_roster(ProtocolConfig(), roster)
        validate_roster(ProtocolConfig(), [*roster[1:], AgentProfile("d")])


class TestConfigFile:
    def test_basic_types(self):
        items = parse_config_text(
            "# comment\n"
            "\n"
            "f = 1\n"
            "alpha = 2/3\n"
            "batch_interval_s = 10.5\n"
            "flag = true\n"
            "name = hello\n"
            "workload.arrivals_per_epoch = 10..20\n"
            "decay_weights = 0.2, 0.3, 0.5\n"
        )
        assert items["f"] == 1
        assert items["alpha"] == pytest.approx(2.0 / 3.0)
        assert items["batch_interval_s"] == 10.5
        assert items["flag"] == "true"  # no config field is a bool
        assert items["name"] == "hello"
        assert items["workload.arrivals_per_epoch"] == (10, 20)
        assert items["decay_weights"] == (0.2, 0.3, 0.5)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("just some words\n")

    def test_unknown_protocol_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            spec_from_items(ProtocolConfig, {"not_a_field": 1})

    def test_from_items_builds_and_validates(self):
        # Keys and value types are checked here; constraints are left to
        # config_violations, so every violation can be listed.
        assert spec_from_items(ProtocolConfig, {"f": 2}).f == 2
        with pytest.raises(ConfigError, match="f must be an integer"):
            spec_from_items(ProtocolConfig, {"f": 1.5})
        cfg = spec_from_items(ProtocolConfig, {"alpha": 0.2, "decay_weights": (0.5, 0.5, 0.5)})
        assert [cls for cls, _ in config_violations(cfg)] == [InvalidQuorumFraction, WeightSumViolation]

    @pytest.mark.parametrize("key", ["n_agents", "rng_seed"])
    def test_run_derived_keys_are_unknown(self, key):
        # N is the roster's size and the network seed comes from the run.
        with pytest.raises(ConfigError, match=f"unknown config keys: {key}"):
            spec_from_items(ProtocolConfig, {key: 4})

    def test_single_scalar_scale_becomes_tuple(self):
        cfg = spec_from_items(ProtocolConfig, {"decay_scales": 60, "decay_weights": 1.0})
        assert cfg.decay_scales == (60.0,)
        assert cfg.decay_weights == (1.0,)

    def test_library_config_takes_a_bare_number_or_any_iterable(self):
        cfg = ProtocolConfig(decay_scales=60, decay_weights=1.0)
        assert (cfg.decay_scales, cfg.decay_weights) == ((60.0,), (1.0,))
        cfg = ProtocolConfig(decay_scales=[10, 60], decay_weights=iter((0.5, 0.5)))
        assert (cfg.decay_scales, cfg.decay_weights) == ((10.0, 60.0), (0.5, 0.5))


class TestSpecFromItems:
    """One check for every parsed item before it becomes a config spec."""

    @pytest.mark.parametrize("text", ["decay_scales = nan, 60, 3600", "alpha = inf", "batch_interval_s = -inf"])
    def test_non_finite_float_rejected(self, text):
        with pytest.raises(ConfigError, match="finite"):
            spec_from_items(ProtocolConfig, parse_config_text(text))

    @pytest.mark.parametrize(
        "cls, items",
        [
            (ProtocolConfig, {"epoch_interactions": 2.5}),
            (ProtocolConfig, {"f": True}),
            (ProtocolConfig, {"f": (4, 5)}),
            (WorkloadSpec, {"dimension": 2.5}),
            (WorkloadSpec, {"arrivals_per_epoch": (10, 20.5)}),
            (NetworkConfig, {"seed": 1.5}),
        ],
    )
    def test_non_integer_for_int_field_rejected(self, cls, items):
        with pytest.raises(ConfigError, match="must be an integer"):
            spec_from_items(cls, items)

    @pytest.mark.parametrize("items", [{"alpha": "abc"}, {"omega_d": (0.4, 0.6)}, {"decay_weights": (0.5, "x")}])
    def test_non_number_for_float_field_rejected(self, items):
        with pytest.raises(ConfigError, match="must be a number"):
            spec_from_items(ProtocolConfig, items)

    def test_unknown_keys_named_with_their_namespace(self):
        with pytest.raises(ConfigError, match="unknown config keys: workload.churn"):
            spec_from_items(WorkloadSpec, {"churn": 1}, "workload.")
        with pytest.raises(ConfigError, match="unknown config keys: network.jitter"):
            spec_from_items(NetworkConfig, {"jitter": 1.0}, "network.")

    def test_every_key_problem_listed_then_the_class_checks_the_rest(self):
        items = {"churn": 1, "dimension": 2.5, "initial_items": 1.5, "access_skew": -1}
        with pytest.raises(ConfigError) as excinfo:
            spec_from_items(WorkloadSpec, items, "workload.")
        assert str(excinfo.value).splitlines() == [
            "unknown config keys: workload.churn",
            "workload.dimension must be an integer, got 2.5",
            "workload.initial_items must be an integer, got 1.5",
            "access_skew must be > 0 and finite, got -1",
        ]
        with pytest.raises(ConfigError) as excinfo:
            spec_from_items(ProtocolConfig, {"f": 1.5, "alpha": float("nan"), "batch_size": 0})
        assert str(excinfo.value).splitlines() == ["f must be an integer, got 1.5", "alpha must be finite, got nan"]

    def test_a_check_comparing_a_rejected_key_is_skipped(self):
        cfg = ProtocolConfig(decay_weights=(0.5, 0.6), omega_r=0.5)
        assert [cls for cls, _ in config_violations(cfg)] == [LengthMismatch, WeightSumViolation, WeightSumViolation]
        # Only the comparisons go: decay_weights is still judged on its own.
        skipped = config_violations(cfg, {"decay_scales", "omega_d"})
        assert skipped == [(WeightSumViolation, "decay weights must sum to 1, got 1.1")]
        with pytest.raises(ConfigError) as excinfo:
            spec_from_items(NetworkConfig, {"latency_min_ms": 9, "latency_max_ms": "x", "drop_prob": 2}, "network.")
        assert str(excinfo.value).splitlines() == [
            "network.latency_max_ms must be a number, got 'x'",
            "drop_prob must be in [0, 1], got 2",
        ]
        assert spec_from_items(NetworkConfig, {"latency_min_ms": 2}).latency_min_ms == 2

    def test_ints_pass_for_float_fields(self):
        cfg = spec_from_items(ProtocolConfig, {"alpha": 1, "batch_interval_s": 10})
        assert (cfg.alpha, cfg.batch_interval_s) == (1, 10)
        assert spec_from_items(NetworkConfig, {"latency_max_ms": 7}).latency_max_ms == 7
        assert spec_from_items(WorkloadSpec, {"arrivals_per_epoch": (3, 4)}).arrivals_per_epoch == (3, 4)
