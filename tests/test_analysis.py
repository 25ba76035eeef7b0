"""Unit tests for Section IV formulas, measurement instruments and report tables."""

import pytest

from repro.analysis.formulas import (
    PAPER_EXAMPLES,
    attacker_side_filters,
    effective_bandwidth,
    effective_bandwidth_reduction,
    protected_flows,
    victim_gateway_filters,
    victim_gateway_shadow_entries,
)
from repro.analysis.metrics import FlowMeter, GoodputMeter, OccupancySampler, TimeSeries
from repro.analysis.report import ResultTable, format_bps, format_ratio, format_seconds
from repro.attacks.flood import FloodAttack
from repro.attacks.legitimate import LegitimateTraffic
from repro.net.flowlabel import FlowLabel
from repro.sim.engine import Simulator
from repro.topology.figure1 import build_figure1


class TestFormulas:
    def test_paper_worked_examples_are_reproduced_exactly(self):
        assert PAPER_EXAMPLES.check_consistency()

    def test_effective_bandwidth_reduction_example(self):
        # Tr = 50 ms, T = 1 min, n = 1  =>  r ~= 0.00083 (Section IV-A.1).
        r = effective_bandwidth_reduction(1, 0.0, 0.050, 60.0)
        assert r == pytest.approx(0.00083, rel=0.01)

    def test_reduction_scales_linearly_with_n(self):
        base = effective_bandwidth_reduction(1, 0.1, 0.05, 60.0)
        assert effective_bandwidth_reduction(3, 0.1, 0.05, 60.0) == pytest.approx(3 * base)

    def test_effective_bandwidth(self):
        be = effective_bandwidth(10e6, 1, 0.0, 0.050, 60.0)
        assert be == pytest.approx(10e6 * 0.05 / 60.0)

    def test_protected_flows_example(self):
        assert protected_flows(100.0, 60.0) == 6000

    def test_victim_gateway_resources_example(self):
        assert victim_gateway_filters(100.0, 0.6) == 60
        assert victim_gateway_shadow_entries(100.0, 60.0) == 6000

    def test_attacker_side_filters_example(self):
        assert attacker_side_filters(1.0, 60.0) == 60

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            effective_bandwidth_reduction(1, 0.1, 0.05, 0.0)
        with pytest.raises(ValueError):
            effective_bandwidth_reduction(-1, 0.1, 0.05, 60.0)
        with pytest.raises(ValueError):
            protected_flows(0.0, 60.0)
        with pytest.raises(ValueError):
            victim_gateway_filters(100.0, 0.0)
        with pytest.raises(ValueError):
            attacker_side_filters(-1.0, 60.0)


class TestTimeSeries:
    def test_basic_statistics(self):
        series = TimeSeries()
        for t, v in ((0.0, 1.0), (1.0, 3.0), (2.0, 2.0)):
            series.add(t, v)
        assert len(series) == 3
        assert series.max() == 3.0
        assert series.mean() == pytest.approx(2.0)
        assert series.last() == 2.0

    def test_integration(self):
        series = TimeSeries()
        series.add(0.0, 0.0)
        series.add(2.0, 2.0)
        assert series.integrate() == pytest.approx(2.0)

    def test_empty_series(self):
        series = TimeSeries()
        assert series.max() == 0.0
        assert series.mean() == 0.0
        assert series.integrate() == 0.0


class TestMeters:
    def test_flow_meter_measures_received_rate(self):
        figure1 = build_figure1()
        attack = FloodAttack(figure1.b_host, figure1.g_host.address,
                             rate_pps=100.0, packet_size=1000)
        meter = FlowMeter(figure1.g_host, attack.flow_label)
        attack.start()
        figure1.sim.run(until=2.0)
        assert meter.packets > 150
        rate = meter.received_bps(0.0, 2.0)
        assert rate == pytest.approx(0.8e6, rel=0.15)
        assert 0 < meter.effective_bandwidth_ratio(attack.offered_rate_bps, 0.0, 2.0) <= 1.05

    def test_flow_meter_ignores_other_flows(self):
        figure1 = build_figure1(extra_good_hosts=1)
        label = FlowLabel.between(figure1.b_host.address, figure1.g_host.address)
        meter = FlowMeter(figure1.g_host, label)
        sender = figure1.topology.node("G_host2")
        LegitimateTraffic(sender, figure1.g_host.address, rate_pps=100.0).start()
        figure1.sim.run(until=1.0)
        assert meter.packets == 0

    def test_goodput_meter_counts_only_legit_tag(self):
        figure1 = build_figure1(extra_good_hosts=1)
        goodput = GoodputMeter(figure1.g_host)
        sender = figure1.topology.node("G_host2")
        LegitimateTraffic(sender, figure1.g_host.address, rate_pps=100.0).start()
        FloodAttack(figure1.b_host, figure1.g_host.address, rate_pps=100.0).start()
        figure1.sim.run(until=1.0)
        assert goodput.packets == pytest.approx(100, abs=10)
        assert goodput.goodput_bps(0.0, 1.0) == pytest.approx(0.8e6, rel=0.15)
        series = goodput.goodput_series()
        assert len(series) > 0
        # One meter under two names: a tag meter standing in for a flow
        # meter (a multi-label attack workload) answers the same reads.
        assert goodput.received_bps(0.0, 1.0) == goodput.goodput_bps(0.0, 1.0)
        assert goodput.rate_series().values == series.values
        assert (goodput.rate_series().name, series.name) == ("goodput@G_host",) * 2

    def test_occupancy_sampler_tracks_peak(self):
        sim = Simulator()
        value = {"x": 0}
        sampler = OccupancySampler(sim, lambda: value["x"], period=0.1).start()
        sim.call_at(0.25, lambda: value.update(x=5))
        sim.call_at(0.55, lambda: value.update(x=2))
        sim.run(until=1.0)
        assert sampler.peak == 5.0
        assert sampler.mean > 0.0
        sampler.stop()


class TestReport:
    def test_formatters(self):
        assert format_bps(12_000_000) == "12.00 Mbps"
        assert format_bps(2_500) == "2.50 kbps"
        assert format_bps(3e9) == "3.00 Gbps"
        assert format_bps(12) == "12 bps"
        assert format_seconds(0.05) == "50 ms"
        assert format_seconds(2.0) == "2.00 s"
        assert format_seconds(180.0) == "3.0 min"
        assert format_ratio(0.00083) == "0.00083"
        assert format_ratio(0.25) == "0.250"
        assert format_ratio(0.0) == "0"

    def test_result_table_render(self):
        table = ResultTable("Experiment E1", ["param", "paper", "measured"])
        table.add_row("T=60", 0.00083, 0.0009)
        table.add_note("measured over one T period")
        text = table.render()
        assert "Experiment E1" in text
        assert "0.00083" in text
        assert "note:" in text

    def test_row_width_mismatch_rejected(self):
        table = ResultTable("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")


class TestResultSerializer:
    """The shared serializer every output path uses (CLI --json, sweeps)."""

    def test_nested_dataclasses_optionals_and_enums(self):
        import dataclasses
        import enum
        import json
        from typing import Optional

        from repro.analysis.report import result_to_dict

        class Kind(enum.Enum):
            FAST = "fast"

        @dataclasses.dataclass
        class Inner:
            value: Optional[float]
            kind: Kind

        @dataclasses.dataclass
        class Outer:
            name: str
            inner: Inner
            items: tuple
            table: dict

        data = result_to_dict(Outer(
            name="x",
            inner=Inner(value=None, kind=Kind.FAST),
            items=(1, Inner(value=2.5, kind=Kind.FAST)),
            table={"a": None, 3: Kind.FAST},
        ))
        assert data == {
            "name": "x",
            "inner": {"value": None, "kind": "fast"},
            "items": [1, {"value": 2.5, "kind": "fast"}],
            "table": {"a": None, "3": "fast"},
        }
        json.dumps(data)  # fully JSON-native

    def test_non_json_values_fall_back_to_str(self):
        from repro.analysis.report import result_to_dict

        assert result_to_dict({"z": 1 + 2j}) == {"z": "(1+2j)"}
        # Dataclass-shaped values (IPAddress, FlowLabel) serialize structurally.
        from repro.net.address import IPAddress

        data = result_to_dict({"addr": IPAddress.parse("10.0.0.1")})
        assert data["addr"] == {"value": IPAddress.parse("10.0.0.1").value}

    def test_experiment_result_serializes_through_shared_path(self):
        from repro.analysis.report import result_to_dict
        from repro.experiments import ExperimentRunner, default_flood_spec

        result = ExperimentRunner().run(default_flood_spec(duration=1.5))
        assert result.to_dict() == result_to_dict(result)


class TestResultSerializerEdgeCases:
    """The corners the sweep/cluster paths depend on: whatever lands in a
    result must come out JSON-native and deterministic."""

    def test_enum_nested_inside_tuple_inside_dict(self):
        import enum
        import json

        from repro.analysis.report import result_to_dict

        class Phase(enum.Enum):
            ARM = ("arm", 1)

        data = result_to_dict({"phases": ({"p": Phase.ARM}, [Phase.ARM])})
        assert data == {"phases": [{"p": ["arm", 1]}, [["arm", 1]]]}
        json.dumps(data)

    def test_int_enum_collapses_to_its_value(self):
        import enum

        from repro.analysis.report import result_to_dict

        class Level(enum.IntEnum):
            HIGH = 3

        assert result_to_dict({"level": Level.HIGH}) == {"level": 3}

    def test_tuple_keys_and_enum_keys_become_strings(self):
        import enum
        import json

        from repro.analysis.report import result_to_dict

        class Kind(enum.Enum):
            A = "a"

        data = result_to_dict({(1, 2): "pair", Kind.A: "enum-key", 7: "int"})
        assert data == {"(1, 2)": "pair", "Kind.A": "enum-key", "7": "int"}
        json.dumps(data)

    def test_non_serializable_objects_fall_back_to_str(self):
        import json

        from repro.analysis.report import result_to_dict

        class Opaque:
            def __str__(self):
                return "<opaque>"

        data = result_to_dict({"obj": Opaque(), "objs": [Opaque(), {1, 2}],
                               "raw": b"bytes"})
        assert data["obj"] == "<opaque>"
        assert data["objs"][0] == "<opaque>"
        assert isinstance(data["objs"][1], str)  # sets stringify
        assert data["raw"] == str(b"bytes")
        json.dumps(data)

    def test_dataclass_with_tuple_of_tuples(self):
        import dataclasses
        import json

        from repro.analysis.report import result_to_dict

        @dataclasses.dataclass
        class Grid:
            points: tuple

        data = result_to_dict(Grid(points=((1, 2), (3, 4))))
        assert data == {"points": [[1, 2], [3, 4]]}
        json.dumps(data)

    def test_bools_survive_and_do_not_become_ints(self):
        from repro.analysis.report import result_to_dict

        data = result_to_dict({"flag": True, "off": False})
        assert data["flag"] is True and data["off"] is False

    def test_dataclass_class_object_is_not_unpacked(self):
        import dataclasses

        from repro.analysis.report import result_to_dict

        @dataclasses.dataclass
        class Marker:
            x: int = 0

        # The *class* (not an instance) must hit the str fallback.
        assert isinstance(result_to_dict({"cls": Marker})["cls"], str)


class TestResultTableRenderers:
    def make_table(self):
        table = ResultTable("Sweep cells", ["axis", "value"])
        table.add_row("aitf", 0.069)
        table.add_row("with|pipe", "a,b")
        table.add_note("grouped by defense")
        return table

    def test_markdown_rendering(self):
        text = self.make_table().render_markdown()
        assert text.startswith("### Sweep cells")
        assert "| axis | value |" in text
        assert "| --- | --- |" in text
        assert "with\\|pipe" in text  # pipes escaped inside cells
        assert "*grouped by defense*" in text

    def test_csv_rendering_quotes_and_headers(self):
        import csv
        import io

        text = self.make_table().to_csv()
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["axis", "value"]
        assert rows[2] == ["with|pipe", "a,b"]  # comma survived quoting
