"""The conflict-resolution fuzz axis: traces pin their resolver and the
generator rotates it orthogonally to the program profile."""

import json

from repro.check import Trace, run_check
from repro.check.generator import PROFILES, generate_trace

PROGRAM = "(literalize item kind size)\n"


class TestTraceField:
    def test_default_resolution_is_lex(self):
        trace = Trace(name="t", seed=0, program=PROGRAM, ops=())
        assert trace.resolution == "lex"

    def test_resolution_round_trips_through_json(self):
        trace = Trace(
            name="t", seed=0, program=PROGRAM, ops=(), resolution="mea"
        )
        assert Trace.loads(trace.dumps()).resolution == "mea"

    def test_legacy_wire_format_defaults_to_lex(self):
        data = json.loads(
            Trace(name="t", seed=0, program=PROGRAM, ops=()).dumps()
        )
        del data["resolution"]
        assert Trace.loads(json.dumps(data)).resolution == "lex"


class TestGeneratorRotation:
    def test_rotation_covers_every_requested_resolver(self):
        resolutions = ("mea", "priority", "fifo")
        seen = {
            generate_trace(5, index, resolutions=resolutions).resolution
            for index in range(len(PROFILES) * len(resolutions))
        }
        assert seen == set(resolutions)

    def test_rotation_is_orthogonal_to_the_profile_rotation(self):
        """With two resolvers (and an even profile count), every profile
        is eventually paired with every resolver."""
        resolutions = ("lex", "mea")
        pairs = {
            (trace.name.split("-")[2], trace.resolution)
            for trace in (
                generate_trace(5, i, resolutions=resolutions)
                for i in range(len(PROFILES) * len(resolutions))
            )
        }
        profiles = {name for name, _ in pairs}
        assert len(pairs) == len(profiles) * len(resolutions)

    def test_default_rotation_stays_deterministic(self):
        assert (
            generate_trace(9, 4).dumps() == generate_trace(9, 4).dumps()
        )


class TestCampaign:
    def test_run_check_threads_resolutions_through(self):
        report = run_check(
            budget=2,
            seed=3,
            strategies=("rete",),
            backends=("memory",),
            resolutions=("mea", "fifo"),
        )
        assert report.ok
        assert report.traces_run == 2
