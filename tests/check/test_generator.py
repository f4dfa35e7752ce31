"""Trace generation: determinism, profile rotation, pinned programs."""

import hashlib
import json

import pytest

from repro.check import PROFILES, Trace, generate_trace
from repro.check.generator import BATCH_CHOICES
from repro.lang import parse_program


class TestDeterminism:
    def test_same_seed_and_index_reproduce_the_trace(self):
        assert generate_trace(3, 5) == generate_trace(3, 5)

    def test_different_indices_differ(self):
        assert generate_trace(0, 0) != generate_trace(0, 1)

    def test_different_seeds_differ(self):
        assert generate_trace(0, 0) != generate_trace(1, 0)


class TestBatchDraw:
    def test_batch_is_drawn_from_the_choices(self):
        drawn = {generate_trace(0, i).batch for i in range(40)}
        assert drawn == set(BATCH_CHOICES)

    def test_drawing_batch_leaves_program_and_ops_unchanged(self):
        """The chunk size and the compactions have their own RNG streams:
        every (seed, index) still yields the program and the other ops
        it yielded before traces carried a batch or compact ops (digest
        taken from that generator)."""
        digest = hashlib.sha256()
        for seed in range(3):
            for index in range(7):
                trace = generate_trace(seed, index)
                ops = [op for op in trace.ops if op.kind != "compact"]
                digest.update(json.dumps(
                    [trace.program, [op.to_json() for op in ops]]
                ).encode())
        assert digest.hexdigest() == (
            "ac6e48fd3ca66a68d89e28b109af699d105b3bcb255c9b0051078cd34139a225"
        )

    def test_a_file_without_batch_replays_in_chunks_of_8(self):
        data = generate_trace(0, 0).to_json()
        del data["batch"]
        assert Trace.from_json(data).batch == 8


class TestProfiles:
    def test_rotation_covers_every_profile(self):
        names = {
            generate_trace(0, i).name.split("-", 2)[2]
            for i in range(len(PROFILES))
        }
        assert names == {p.name for p in PROFILES}

    def test_profile_names_are_unique(self):
        names = [p.name for p in PROFILES]
        assert len(names) == len(set(names))

    def test_negation_profile_generates_negated_conditions(self):
        index = next(
            i for i, p in enumerate(PROFILES) if p.name == "negation"
        )
        # Negation probability 0.45 over 7 rules: some seed in a small
        # window must produce at least one negated condition.
        for seed in range(5):
            program = parse_program(generate_trace(seed, index).program)
            if any(
                condition.negated
                for rule in program.rules
                for condition in rule.condition_elements
            ):
                return
        pytest.fail("negation profile never produced a negated condition")

    def test_reattach_profile_emits_control_ops(self):
        index = next(
            i for i, p in enumerate(PROFILES) if p.name == "reattach"
        )
        for seed in range(5):
            kinds = {op.kind for op in generate_trace(seed, index).ops}
            if "detach" in kinds and "attach" in kinds:
                return
        pytest.fail("reattach profile never emitted detach/attach")


class TestPinnedProgram:
    PROGRAM = (
        "(literalize order item qty)\n"
        "(literalize stock item qty)\n"
        "(p ship (order ^item <i>) (stock ^item <i>) --> (remove 1))\n"
    )

    def test_targets_come_from_program_schemas(self):
        trace = generate_trace(0, 0, program=self.PROGRAM)
        assert trace.program == self.PROGRAM
        classes = {
            op.class_name for op in trace.ops if op.kind == "insert"
        }
        assert classes <= {"order", "stock"}
        assert classes  # the script actually inserts something

    def test_inserts_match_schema_arity(self):
        trace = generate_trace(0, 0, program=self.PROGRAM)
        for op in trace.ops:
            if op.kind == "insert":
                assert len(op.values) == 2

    def test_classless_program_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(0, 0, program="; just a comment\n")


class TestTraceShape:
    def test_reattach_draws_compactions_with_and_without_a_cap(self):
        first = next(
            i for i, p in enumerate(PROFILES) if p.name == "reattach"
        )
        caps = {
            op.index
            for index in range(first, 200, len(PROFILES))
            for op in generate_trace(0, index).ops
            if op.kind == "compact"
        }
        assert caps == {None, 2}

    def test_every_trace_is_json_round_trippable(self):
        for index in range(len(PROFILES)):
            trace = generate_trace(1, index)
            assert Trace.loads(trace.dumps()) == trace

    def test_ops_count_follows_profile(self):
        for index, profile in enumerate(PROFILES):
            trace = generate_trace(0, index)
            # Reattach rolls add one extra op per detach/attach pair;
            # compactions are drawn on top of the profile's ops.
            extra = sum(
                1 for op in trace.ops if op.kind in ("detach", "compact")
            )
            assert len(trace.ops) == profile.ops + extra
