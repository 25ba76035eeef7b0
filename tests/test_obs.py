"""The observability plane: tracing, metrics, the flight recorder, and the
trace/profile CLI.

The load-bearing guarantees pinned here:

* a trace is a pure function of the spec — same seed, byte-identical JSONL;
* observing a run never changes its results (hooks are read-only);
* the ``observe`` block is omitted-when-empty, so plain spec hashes did not
  move when observability landed;
* the flight recorder's milestones *are* the paper's metrics
  (``temp_filter_at`` - attack start == ``time_to_first_block`` exactly);
* the packet and train engines tell the same protocol story on an
  uncongested cell (``diff_timelines`` returns nothing).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import pytest

from repro.cli import main
from repro.experiments import (
    OBSERVE_CHANNELS,
    ExperimentRunner,
    ExperimentSpec,
    ObserveSpec,
    SweepRunner,
    default_flood_spec,
    spec_hash,
)
from repro.obs.flight import FlightRecorder, diff_timelines
from repro.obs.metrics import MetricsRegistry, publish_stats
from repro.obs.progress import format_cell_line, provenance_summary
from repro.obs.trace import TraceRecorder, load_trace

#: Light enough for parity: neither engine congests any queue, so packet
#: and train runs produce identical protocol event times.
UNCONGESTED = dict(attack_pps=200.0, legit_pps=100.0, duration=3.0)


def observed(spec: ExperimentSpec, channels=("aitf-control",),
             metrics: bool = False) -> ExperimentSpec:
    return dataclasses.replace(
        spec, observe=ObserveSpec(channels=tuple(channels), metrics=metrics))


def run_observed(spec: ExperimentSpec):
    execution = ExperimentRunner().prepare(spec)
    result = execution.run()
    return execution, result


# ----------------------------------------------------------------------
# ObserveSpec serialization
# ----------------------------------------------------------------------
class TestObserveSpec:
    def test_disabled_observe_is_omitted_from_the_serialized_spec(self):
        spec = default_flood_spec()
        assert not spec.observe.enabled
        assert "observe" not in spec.to_dict()

    def test_plain_spec_hash_is_unchanged_by_the_observe_field(self):
        # The load-bearing invariant: specs that observe nothing hash as
        # they did before observability existed, so no cell-cache key or
        # committed sweep document moved.
        spec = default_flood_spec()
        assert spec_hash(spec) == spec_hash(ExperimentSpec.from_dict(spec.to_dict()))

    def test_enabled_observe_round_trips_through_dict(self):
        spec = observed(default_flood_spec(),
                        channels=("aitf-control", "fault"), metrics=True)
        data = spec.to_dict()
        assert data["observe"] == {"channels": ["aitf-control", "fault"],
                                   "metrics": True}
        again = ExperimentSpec.from_dict(data)
        assert again.observe == spec.observe
        assert spec_hash(spec) == spec_hash(again)

    def test_unknown_channel_is_rejected(self):
        with pytest.raises(ValueError, match="unknown observe channel"):
            ObserveSpec(channels=("packets",))

    def test_non_positive_sample_period_is_rejected(self):
        with pytest.raises(ValueError, match="sample_period"):
            ObserveSpec(metrics=True, sample_period=0.0)


# ----------------------------------------------------------------------
# the recorder's channels
# ----------------------------------------------------------------------
class TestRecorderChannels:
    def test_emit_on_a_channel_not_enabled_raises_at_the_call(self):
        recorder = TraceRecorder(("packet",))
        with pytest.raises(ValueError, match="'fault' is not enabled"):
            recorder.emit("fault", 1.0, "link_down", target="A-B")
        assert recorder.summary() == {"channels": {"packet": 0}, "records": 0}

    @pytest.mark.parametrize("channel, state", [("pakcet", "unknown"),
                                                ("fault", "not enabled")])
    def test_reading_a_channel_not_enabled_raises_at_the_call(self, channel,
                                                              state):
        recorder = TraceRecorder(("packet",))
        with pytest.raises(ValueError,
                           match=f"trace channel '{channel}' is {state} "
                                 r"\(enabled: packet\)"):
            recorder.records(channel)

    def test_emitted_records_render_their_fields_in_order(self):
        recorder = TraceRecorder(("fault", "routing"))
        recorder.emit("fault", 1.5, "link_down", target="A-B", links=["A-B"])
        recorder.emit("routing", 1.5, "reroute", target="A-B",
                      links_changed=3)
        recorder.emit("fault", 2.0, "link_up", target="A-B", links=["A-B"])
        faults = [
            {"t": 1.5, "ch": "fault", "ev": "link_down", "target": "A-B",
             "links": ["A-B"]},
            {"t": 2.0, "ch": "fault", "ev": "link_up", "target": "A-B",
             "links": ["A-B"]}]
        assert list(recorder.records("fault")) == faults
        assert list(recorder.records()) == [
            faults[0],
            {"t": 1.5, "ch": "routing", "ev": "reroute", "target": "A-B",
             "links_changed": 3},
            faults[1]]
        assert recorder.counts() == {"fault": 2, "routing": 1}


# ----------------------------------------------------------------------
# trace determinism
# ----------------------------------------------------------------------
class TestTraceDeterminism:
    def test_same_seed_reruns_are_bit_identical(self):
        spec = observed(default_flood_spec(duration=2.0),
                        channels=OBSERVE_CHANNELS)
        lines = []
        for _ in range(2):
            execution, _result = run_observed(spec)
            lines.append(execution.observer.recorder.to_lines(spec))
        assert lines[0] == lines[1]
        assert len(lines[0]) > 1  # header plus records

    def test_different_seed_changes_the_trace(self):
        base = default_flood_spec(duration=2.0)
        a = observed(base, channels=("aitf-control",))
        b = observed(base.with_overrides({"seed": 7}),
                     channels=("aitf-control",))
        exec_a, _ = run_observed(a)
        exec_b, _ = run_observed(b)
        assert exec_a.observer.recorder.to_lines(a) \
            != exec_b.observer.recorder.to_lines(b)

    def test_observing_a_run_does_not_change_its_results(self):
        spec = default_flood_spec(duration=2.0)
        plain = ExperimentRunner().run(spec).to_dict()
        traced = ExperimentRunner().run(
            observed(spec, channels=OBSERVE_CHANNELS, metrics=True)).to_dict()
        for doc in (plain, traced):
            doc.pop("observability", None)
            doc.pop("spec", None)
        assert plain == traced

    def test_write_and_load_round_trip(self, tmp_path):
        spec = observed(default_flood_spec(duration=2.0))
        execution, _ = run_observed(spec)
        path = tmp_path / "trace.jsonl"
        execution.observer.recorder.write_jsonl(
            str(path), spec, extra={"attack_start": 0.5})
        header, records = load_trace(str(path))
        assert header["schema"] == "trace/v1"
        assert header["seed"] == spec.seed
        assert header["engine"] == "packet"
        assert header["attack_start"] == 0.5
        assert records == list(execution.observer.recorder.records())

    def test_load_trace_rejects_non_trace_files(self, tmp_path):
        path = tmp_path / "not-a-trace.jsonl"
        path.write_text(json.dumps({"schema": "experiment_result/v1"}) + "\n")
        with pytest.raises(ValueError, match="not a trace file"):
            load_trace(str(path))

    @pytest.mark.parametrize("damage", ["[]", '"deliver"', "42", "{not json"])
    def test_load_trace_rejects_a_damaged_record_line(self, tmp_path, damage):
        spec = observed(default_flood_spec(duration=1.0))
        execution, _ = run_observed(spec)
        path = tmp_path / "trace.jsonl"
        execution.observer.recorder.write_jsonl(str(path), spec)
        lines = path.read_text().splitlines()
        lines.insert(3, damage)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"{path}:4: "):
            load_trace(str(path))

    def test_write_jsonl_streams_the_same_bytes_as_to_lines(self, tmp_path):
        spec = observed(default_flood_spec(duration=1.0),
                        channels=OBSERVE_CHANNELS)
        execution, _ = run_observed(spec)
        recorder = execution.observer.recorder
        path = tmp_path / "trace.jsonl"
        recorder.write_jsonl(str(path), spec)
        lines = recorder.to_lines(spec)
        assert path.read_text() == "\n".join(lines) + "\n"
        streamed = recorder.iter_lines(spec)
        assert not isinstance(streamed, (list, tuple))
        assert list(streamed) == lines


#: SHA-256 of ``repro trace record --duration 3 --channels all`` (default
#: flood spec) per engine, computed on the commit before trace rows became
#: compact tuples.  A rendering change that moves one byte fails this.
GOLDEN_TRACE_SHA256 = {
    "packet": "afdaa0b9a03866a4987900c510c30fafde3f5b75c18c4a39bf572f7d57c0b286",
    "train": "b0f30af8a5abf30f6aa7b8a9781bc2297f31bafe7597ed310087037958d18a24",
}

FLOOD_AITF_SPEC = os.path.join(os.path.dirname(__file__), os.pardir,
                               "examples", "specs", "flood_aitf.json")

#: SHA-256 of the ``aitf-control`` trace of ``examples/specs/flood_aitf.json``
#: run for 8 s with disconnection on, a 0.5 s attacker grace period and a
#: 0.8 s temporary filter, per input.  An input that is a JSON list is the
#: ``defense.params.non_cooperating`` value; any other is ``PATH=VALUE``
#: overrides separated by spaces, on the spec's own non-cooperating list
#: unless it sets one.  The three lists were computed before hosts and
#: gateways shared one message path; each reaches a protocol path the
#: default flood does not: the host stopping its flow after a confirmed
#: handshake, one escalation ending in disconnection, and three escalations
#: through non-cooperating gateways.  The three overrides were computed
#: before the gateway became one transition table: four handshake timeouts
#: and three escalations; a commit without a handshake; 12 policed requests,
#: 13 shadow hits and the re-send of a round the victim's gateway's own
#: contract refused.
GOLDEN_CONTROL_TRACE_SHA256 = {
    "[]":
        "818bf83521786fe10ef7ce254781911941a7e436de156695252409797d8ad690",
    '["B_host","B_gw1"]':
        "a689c2a33d1cb322b7bf277da67436e6a1c4895257d94b3f00c2e526d45ad0c4",
    '["B_host","B_gw1","B_gw2","B_gw3"]':
        "8d39346f12aa40c53d9ad48f6153eb2d6ef950fa05aa3ce2222cb1f434f20c2b",
    "aitf.handshake_timeout=0.001":
        "14ec3a1aaae00afd820fa744b3167275e16725e417f041d0c522b5ea6da4cb0c",
    "aitf.verification_enabled=false":
        "33f0092fef67e90bc28c815a0aec19e23390f02ee97a9e557422df3d5c07ffc6",
    'aitf.default_send_rate=0.3 '
    'defense.params.non_cooperating=["B_host","B_gw1","B_gw2","B_gw3"]':
        "f2611fcad68c050e75a765733769aea7a1d7a3cbed77fedab0c1934fb05896e6",
}


def _control_overrides(golden_input: str) -> list:
    """The ``--set`` arguments of one ``GOLDEN_CONTROL_TRACE_SHA256`` input."""
    if golden_input.startswith("["):
        overrides = [f"defense.params.non_cooperating={golden_input}"]
    else:
        overrides = golden_input.split(" ")
    return [arg for override in overrides for arg in ("--set", override)]


class TestTraceBytes:
    @pytest.mark.parametrize("mode", sorted(GOLDEN_TRACE_SHA256))
    def test_recorded_trace_matches_the_golden_hash(self, tmp_path, mode):
        path = tmp_path / "trace.jsonl"
        assert main(["--quiet", "trace", "record", "--duration", "3",
                     "--channels", "all", "--set", f"engine.mode={mode}",
                     "--output", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() \
            == GOLDEN_TRACE_SHA256[mode]

    @pytest.mark.parametrize("golden_input",
                             sorted(GOLDEN_CONTROL_TRACE_SHA256))
    def test_control_plane_trace_matches_the_golden_hash(
            self, tmp_path, golden_input):
        path = tmp_path / "trace.jsonl"
        assert main([
            "--quiet", "trace", "record",
            "--spec", FLOOD_AITF_SPEC, "--duration", "8",
            "--channels", "aitf-control",
            *_control_overrides(golden_input),
            "--set", "defense.params.disconnection_enabled=true",
            "--set", "aitf.attacker_grace_period=0.5",
            "--set", "aitf.temporary_filter_timeout=0.8",
            "--output", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() \
            == GOLDEN_CONTROL_TRACE_SHA256[golden_input]

    @pytest.mark.parametrize("mode", ["packet", "train"])
    def test_trace_counts_conserve_deliveries_blocks_and_events(self, mode):
        # Every delivery and every block is on the packet or train channel,
        # every protocol event is one aitf-control record: the trace is the
        # run's ledger, not a sample of it.
        spec = observed(
            default_flood_spec(attack_pps=1500.0, duration=4.0
                               ).with_overrides({"engine.mode": mode}),
            channels=("packet", "train", "aitf-control"))
        execution, result = run_observed(spec)
        topology = execution.handle.topology
        delivered = sum(link.stats_toward(end).packets_delivered
                        for link in topology.links
                        for end in (link.a, link.b))
        blocked = sum(router.filter_table.packets_blocked
                      for router in topology.border_routers())
        assert delivered > 0 and blocked > 0
        traffic = [r for r in execution.observer.recorder.records()
                   if r["ch"] in ("packet", "train")]
        assert sum(r.get("count", 1) for r in traffic
                   if r["ev"] == "deliver") == delivered
        assert sum(r["count"] for r in traffic
                   if r["ev"] == "filter_block") == blocked
        trace = result.observability["trace"]
        assert trace["channels"]["packet"] + trace["channels"]["train"] \
            == len(traffic)
        if mode == "packet":
            assert trace["channels"] == {
                "packet": delivered + blocked, "train": 0,
                "aitf-control": len(execution.backend.deployment.event_log)}
        assert trace["channels"]["aitf-control"] \
            == len(execution.backend.deployment.event_log)
        assert trace["records"] == sum(trace["channels"].values())


# ----------------------------------------------------------------------
# the flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_milestones_match_the_filtering_response_metrics_exactly(self):
        spec = observed(default_flood_spec(duration=4.0))
        execution, result = run_observed(spec)
        flight = FlightRecorder.from_recorder(execution.observer.recorder)
        start = execution.attack_window_start
        assert result.time_to_first_block is not None
        assert flight.first_temp_filter_at() - start \
            == result.time_to_first_block
        assert flight.first_remote_filter_at() - start \
            == result.defense_stats["time_to_attacker_gateway_filter"]

    def test_timeline_structure_for_the_figure1_flood(self):
        spec = observed(default_flood_spec(duration=4.0))
        execution, _ = run_observed(spec)
        flight = FlightRecorder.from_recorder(execution.observer.recorder)
        timelines = flight.select(victim="G_host")
        assert timelines, "the flood victim should have filed a request"
        timeline = timelines[0]
        assert timeline.attacker == "10.0.1.1"
        assert timeline.victim_gateway == "G_gw1"
        assert timeline.attacker_gateway == "B_gw1"
        assert timeline.resolved
        assert timeline.requested_at <= timeline.temp_filter_at \
            <= timeline.remote_filter_at
        described = "\n".join(timeline.describe())
        assert "temp_filter_installed" in described
        assert "filter_installed" in described

    def test_packet_and_train_engines_tell_the_same_story(self):
        base = default_flood_spec(**UNCONGESTED)
        flights = {}
        for mode in ("packet", "train"):
            spec = observed(base.with_overrides({"engine.mode": mode}))
            execution, _ = run_observed(spec)
            flights[mode] = FlightRecorder.from_recorder(
                execution.observer.recorder)
        assert flights["packet"].timelines(), "parity needs actual requests"
        assert diff_timelines(flights["packet"], flights["train"]) == []

    def test_diff_timelines_reports_milestone_drift(self):
        spec = observed(default_flood_spec(**UNCONGESTED))
        execution, _ = run_observed(spec)
        records = list(execution.observer.recorder.records("aitf-control"))
        drifted = [dict(r, t=r["t"] + 0.5)
                   if r["ev"] == "filter_installed" else r
                   for r in records]
        diffs = diff_timelines(FlightRecorder(records),
                               FlightRecorder(drifted))
        assert any(d["field"] == "remote_filter_at" for d in diffs)
        # ...and a generous tolerance swallows the drift.
        assert diff_timelines(FlightRecorder(records),
                              FlightRecorder(drifted), tolerance=1.0) == []

    def test_diff_timelines_reports_presence_mismatches(self):
        spec = observed(default_flood_spec(**UNCONGESTED))
        execution, _ = run_observed(spec)
        records = list(execution.observer.recorder.records("aitf-control"))
        diffs = diff_timelines(FlightRecorder(records), FlightRecorder([]))
        assert diffs
        assert all(d["field"] == "presence" for d in diffs)


# ----------------------------------------------------------------------
# the metrics plane
# ----------------------------------------------------------------------
class TestMetricsPlane:
    def test_sampled_series_and_counters_land_in_the_result(self):
        spec = dataclasses.replace(
            default_flood_spec(duration=3.0),
            observe=ObserveSpec(metrics=True, sample_period=0.25))
        _, result = run_observed(spec)
        metrics = result.observability["metrics"]
        assert metrics["counters"]["aitf.filter_installed"] >= 1
        assert metrics["counters"]["sim.events_processed"] > 0
        series = metrics["series"]["filters.victim_gateway"]
        # ~12 samples over 3 s at 0.25 s cadence, and the gateway filtered.
        assert series["count"] >= 10
        assert series["max"] >= 1

    def test_backend_and_collector_stats_are_published(self):
        spec = dataclasses.replace(
            default_flood_spec(duration=2.0),
            observe=ObserveSpec(metrics=True))
        _, result = run_observed(spec)
        counters = result.observability["metrics"]["counters"]
        assert counters["defense.control_messages"] \
            == result.control_messages
        assert counters["defense.escalation_rounds"] \
            == result.defense_stats["escalation_rounds"]

    def test_observability_summary_carries_engine_and_protocol_stats(self):
        spec = observed(default_flood_spec(duration=2.0))
        _, result = run_observed(spec)
        sim_stats = result.observability["sim"]
        assert sim_stats["now"] == 2.0
        assert sim_stats["events_processed"] > 0
        protocol = result.observability["protocol_events"]
        assert protocol["filter_installed"] >= 1
        trace = result.observability["trace"]
        assert trace["channels"]["aitf-control"] == trace["records"]

    def test_publish_stats_skips_non_numeric_values(self):
        registry = MetricsRegistry()
        publish_stats(registry, "defense", {
            "control_messages": 7, "time_to_first_block": 0.25,
            "backend": "aitf", "cooperating": True,
            "per_gateway": {"B_gw1": 3},
        })
        counters = registry.snapshot()["counters"]
        assert counters == {"defense.control_messages": 7,
                            "defense.time_to_first_block": 0.25}


# ----------------------------------------------------------------------
# the trace / profile CLI
# ----------------------------------------------------------------------
class TestTraceCli:
    def record(self, tmp_path, *extra):
        path = tmp_path / "trace.jsonl"
        assert main(["trace", "record", "--attack-pps", "200",
                     "--legit-pps", "100", "--duration", "3",
                     "--output", str(path), *extra]) == 0
        return path

    def test_record_then_show_renders_the_timeline(self, tmp_path, capsys):
        path = self.record(tmp_path)
        capsys.readouterr()
        assert main(["trace", "show", str(path),
                     "--channel", "aitf-control"]) == 0
        out = capsys.readouterr().out
        assert "victim=G_host" in out
        assert "temp_filter_installed" in out
        assert "filter_installed" in out

    def test_show_filters_by_victim_and_attacker(self, tmp_path, capsys):
        path = self.record(tmp_path)
        capsys.readouterr()
        assert main(["trace", "show", str(path), "--victim", "nobody"]) == 0
        assert "no aitf-control requests" in capsys.readouterr().out
        assert main(["trace", "show", str(path),
                     "--attacker", "10.0.1.1"]) == 0
        assert "attacker=10.0.1.1" in capsys.readouterr().out

    def test_record_json_reports_channel_counts(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["--json", "trace", "record", "--duration", "2",
                     "--channels", "all", "--output", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["channels"]["packet"] > 0
        assert payload["records"] > 0

    def test_filter_keeps_only_the_requested_channels(self, tmp_path, capsys):
        path = self.record(tmp_path, "--channels", "all")
        sub = tmp_path / "control.jsonl"
        assert main(["trace", "filter", str(path),
                     "--channel", "aitf-control", "--output", str(sub)]) == 0
        header, records = load_trace(str(sub))
        assert header["channels"] == ["aitf-control"]
        assert records
        assert all(r["ch"] == "aitf-control" for r in records)

    def test_show_exits_in_one_line_on_a_damaged_trace(self, tmp_path):
        path = self.record(tmp_path)
        with open(path, "a") as handle:
            handle.write("[]\n")
        lines = len(path.read_text().splitlines())
        for command in (["trace", "show", str(path)],
                        ["trace", "diff", str(path), str(path)],
                        ["trace", "filter", str(path), "--channel",
                         "aitf-control", "--output", str(tmp_path / "x")]):
            with pytest.raises(SystemExit) as exit_info:
                main(command)
            assert str(exit_info.value) == (
                f"repro trace: {path}:{lines}: trace record is not a JSON "
                "object (got list)")

    def test_filter_rejects_unknown_channels(self, tmp_path):
        path = self.record(tmp_path)
        with pytest.raises(SystemExit, match="unknown channel"):
            main(["trace", "filter", str(path), "--channel", "bogus",
                  "--output", str(tmp_path / "x.jsonl")])

    def test_diff_agrees_across_engines_and_exits_1_on_drift(
            self, tmp_path, capsys):
        packet = self.record(tmp_path)
        train = tmp_path / "train.jsonl"
        assert main(["trace", "record", "--attack-pps", "200",
                     "--legit-pps", "100", "--duration", "3",
                     "--set", "engine.mode=train",
                     "--output", str(train)]) == 0
        capsys.readouterr()
        assert main(["trace", "diff", str(packet), str(train)]) == 0
        assert "traces agree" in capsys.readouterr().out
        # A slower detector genuinely drifts -> exit 1 and a diff table.
        other = tmp_path / "other.jsonl"
        assert main(["trace", "record", "--attack-pps", "200",
                     "--legit-pps", "100", "--duration", "3",
                     "--detection-delay", "0.4",
                     "--output", str(other)]) == 0
        capsys.readouterr()
        assert main(["trace", "diff", str(packet), str(other)]) == 1
        assert "Trace diff" in capsys.readouterr().out

    def test_recorded_timeline_matches_the_reported_metrics(
            self, tmp_path, capsys):
        # The acceptance check, in-process: event times in the trace equal
        # the run's filtering-response metrics exactly, in both engines.
        for mode in ("packet", "train"):
            path = tmp_path / f"{mode}.jsonl"
            assert main(["trace", "record", "--duration", "4",
                         "--set", f"engine.mode={mode}",
                         "--output", str(path)]) == 0
            capsys.readouterr()
            spec = default_flood_spec(duration=4.0).with_overrides(
                {"engine.mode": mode})
            result = ExperimentRunner().run(spec)
            header, records = load_trace(str(path))
            flight = FlightRecorder(records)
            start = header["attack_start"]
            assert flight.first_temp_filter_at() - start \
                == result.time_to_first_block
            assert flight.first_remote_filter_at() - start \
                == result.defense_stats["time_to_attacker_gateway_filter"]

    def test_profile_prints_hotspots(self, capsys):
        assert main(["profile", "--attack-pps", "200", "--legit-pps", "100",
                     "--duration", "1", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "profile: flood-defense [aitf] engine=packet" in out
        assert "tottime" in out


# ----------------------------------------------------------------------
# sweep progress + logging
# ----------------------------------------------------------------------
class TestProgressPlane:
    def test_sweep_runner_reports_each_cell(self):
        seen = []
        runner = SweepRunner(progress=seen.append)
        runner.run_grid(default_flood_spec(**UNCONGESTED),
                        {"duration": [1.0, 2.0]})
        assert [info["position"] for info in seen] == [0, 1]
        assert all(info["total"] == 2 for info in seen)
        assert all(info["wall_seconds"] > 0 for info in seen)
        assert all(len(info["spec_hash"]) == 64 for info in seen)

    def test_cli_sweep_logs_progress_to_stderr(self, capsys):
        assert main(["sweep", "--param", "duration=1,2",
                     "--attack-pps", "200", "--legit-pps", "100"]) == 0
        captured = capsys.readouterr()
        assert "cell 1/2" in captured.err
        assert "cell 2/2" in captured.err
        assert "wall=" in captured.err
        assert "cell 1/2" not in captured.out  # diagnostics stay off stdout

    def test_quiet_silences_progress(self, capsys):
        assert main(["--quiet", "sweep", "--param", "duration=1",
                     "--attack-pps", "200", "--legit-pps", "100"]) == 0
        assert "cell" not in capsys.readouterr().err

    def test_format_cell_line(self):
        line = format_cell_line(2, 12, "a1b2c3d4e5f6aabb",
                                wall_seconds=0.52, cached=True)
        assert line == "cell  3/12  a1b2c3d4e5f6  0.52s  (cached)"

    def test_provenance_summary_mentions_the_essentials(self):
        summary = provenance_summary({
            "mode": "cluster", "workers": ["w1", "w2"], "resumed": True,
            "wall_seconds": 1.5, "cache": {"hits": 3, "misses": 1},
            "cells": [{"index": 0, "wall_seconds": 0.4, "cached": False},
                      {"index": 1, "wall_seconds": 0.9, "cached": True}],
        })
        assert "2 cells" in summary
        assert "mode=cluster" in summary
        assert "cache 3/4 hits" in summary
        assert "resumed" in summary
        assert "slowest cell 0" in summary

    def test_report_table_shows_dropped_down_and_deployment_locus(
            self, tmp_path, capsys):
        sweep = tmp_path / "sweep.json"
        csv_path = tmp_path / "cells.csv"
        assert main(["sweep", "--param", "defense.backend=aitf,none",
                     "--attack-pps", "200", "--legit-pps", "100",
                     "--duration", "2", "--output", str(sweep)]) == 0
        capsys.readouterr()
        assert main(["report", str(sweep)]) == 0
        out = capsys.readouterr().out
        assert "dropped down" in out
        assert "deploy locus" in out
        assert main(["report", str(sweep), "--csv", str(csv_path)]) == 0
        header, aitf_row, none_row = \
            csv_path.read_text().strip().splitlines()
        columns = header.split(",")
        locus = columns.index("defense_stats.deployment_locus")
        assert columns[columns.index("packets_dropped_down")]
        assert aitf_row.split(",")[locus] == "all"  # AITF's default locus
        assert none_row.split(",")[locus] == ""     # no defense, no locus
