"""Tests for sweep-request files, compound grid axes and figure rendering."""

import json
import os

import pytest

from repro.analysis import figures as figures_mod
from repro.analysis.figures import (
    default_figures,
    figure_series,
    render_figure,
    render_figure_builtin,
)
from repro.analysis.sweep_report import axis_value
from repro.experiments import (
    SweepRunner,
    default_flood_spec,
    expand_grid,
    load_sweep_request,
)
from repro.experiments.sweep import axis_paths

GRIDS_DIR = os.path.join(os.path.dirname(__file__), "..", "examples",
                         "specs", "grids")


class TestCompoundAxes:
    def test_axis_paths_split(self):
        assert axis_paths("duration") == ["duration"]
        assert axis_paths("a.b, c.d") == ["a.b", "c.d"]

    def test_compound_axis_sets_every_path(self):
        base = default_flood_spec(duration=2.0)
        cells = expand_grid(base, {
            "aitf.filter_timeout,aitf.temporary_filter_timeout":
                [[30.0, 0.5], [60.0, 1.0]],
        })
        assert len(cells) == 2
        assert cells[0].overrides == {"aitf.filter_timeout": 30.0,
                                      "aitf.temporary_filter_timeout": 0.5}
        assert cells[0].spec.aitf["filter_timeout"] == 30.0
        assert cells[0].spec.aitf["temporary_filter_timeout"] == 0.5

    def test_compound_axis_value_arity_checked(self):
        base = default_flood_spec(duration=2.0)
        with pytest.raises(ValueError, match="must be a list of 2 entries"):
            expand_grid(base, {"duration,seed": [[1.0]]})

    def test_compound_cells_get_distinct_derived_seeds(self):
        base = default_flood_spec(duration=2.0)
        cells = expand_grid(base, {
            "duration,detection_delay": [[1.0, 0.1], [2.0, 0.2]]})
        assert cells[0].spec.seed != cells[1].spec.seed

    def test_axis_value_renders_compound_axes(self):
        overrides = {"a.b": 1, "c.d": 2}
        assert axis_value(overrides, "a.b") == 1
        assert axis_value(overrides, "a.b,c.d") == "1 / 2"
        assert axis_value(overrides, "x.y", "-") == "-"


class TestSweepRequestFiles:
    def test_every_committed_grid_parses(self):
        names = sorted(os.listdir(GRIDS_DIR))
        assert len(names) >= 8
        for name in names:
            request = load_sweep_request(os.path.join(GRIDS_DIR, name))
            assert request.name == os.path.splitext(name)[0]
            assert request.grid
            assert request.figures, f"{name} has no figures section"
            # The quick variant must resolve to a runnable request too.
            quick = request.resolve(quick=True)
            assert quick.grid
            assert quick.figures == request.figures

    def test_quick_resolve_applies_overrides_and_grid(self):
        request = load_sweep_request(
            os.path.join(GRIDS_DIR, "e2_protected_flows.json"))
        quick = request.resolve(quick=True)
        assert quick.base.duration == 3.0
        axis = next(iter(quick.grid))
        assert len(quick.grid[axis]) < len(request.grid[axis])
        # resolve() without quick returns the request unchanged.
        assert request.resolve() is request

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "schema": "sweep_request/v1",
            "base_spec": default_flood_spec(duration=1.0).to_dict(),
            "grid": {"duration": [1.0]},
            "bogus": 1,
        }))
        with pytest.raises(ValueError, match="bogus"):
            load_sweep_request(str(path))

    def test_missing_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "schema": "sweep_request/v1",
            "base_spec": default_flood_spec(duration=1.0).to_dict(),
        }))
        with pytest.raises(ValueError, match="base_spec.*grid|'grid'"):
            load_sweep_request(str(path))

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "sweep_request/v9",
                                    "base_spec": {}, "grid": {"a": [1]}}))
        with pytest.raises(ValueError, match="unsupported sweep-request schema"):
            load_sweep_request(str(path))

    def test_empty_axis_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "schema": "sweep_request/v1",
            "base_spec": default_flood_spec(duration=1.0).to_dict(),
            "grid": {"duration": []},
        }))
        with pytest.raises(ValueError, match="non-empty list"):
            load_sweep_request(str(path))


def _tiny_sweep_doc():
    base = default_flood_spec(duration=1.0)
    sweep = SweepRunner().run_grid(base, {
        "defense.backend": ["aitf", "none"],
        "workloads.1.params.rate_pps": [1500.0, 3000.0],
    })
    return sweep.to_dict()


class TestFigureExtraction:
    def test_series_mode_one_line_per_axis_value(self):
        doc = _tiny_sweep_doc()
        data = figure_series(doc, {
            "name": "ratio", "x": "workloads.1.params.rate_pps",
            "series": "defense.backend", "y": "effective_bandwidth_ratio",
        })
        labels = [label for label, _ in data.series]
        assert labels == ["defense.backend = aitf", "defense.backend = none"]
        for _, points in data.series:
            assert [x for x, _ in points] == [1500.0, 3000.0]

    def test_multi_y_mode_one_line_per_metric(self):
        doc = _tiny_sweep_doc()
        data = figure_series(doc, {
            "x": "workloads.1.params.rate_pps",
            "y": [{"path": "legit_goodput_bps", "label": "goodput"},
                  {"path": "attack_received_bps", "label": "attack"}],
        })
        assert [label for label, _ in data.series] == ["goodput", "attack"]

    def test_series_plus_multi_y_rejected(self):
        with pytest.raises(ValueError, match="'series' or several 'y'"):
            figure_series(_tiny_sweep_doc(), {
                "x": "duration", "series": "defense.backend",
                "y": ["a", "b"]})

    def test_non_sweep_document_rejected(self):
        with pytest.raises(ValueError, match="experiment_sweep/v1"):
            figure_series({"schema": "experiment_result/v1"}, {"x": "a"})

    def test_default_figures_use_grid_axes(self):
        doc = _tiny_sweep_doc()
        defaults = default_figures(doc)
        assert len(defaults) == 2
        assert defaults[0]["x"] == "workloads.1.params.rate_pps"
        assert defaults[0]["series"] == "defense.backend"
        assert not default_figures({"schema": "experiment_sweep/v1",
                                    "grid": {}, "cells": []})


class TestBuiltinRenderer:
    def test_output_is_deterministic(self):
        doc = _tiny_sweep_doc()
        figure = {"name": "f", "x": "workloads.1.params.rate_pps",
                  "series": "defense.backend",
                  "y": "effective_bandwidth_ratio"}
        first = render_figure(doc, figure)
        second = render_figure(doc, figure)
        assert first == second
        assert first.startswith("<svg ")
        assert "polyline" in first

    def test_categorical_x_axis(self):
        doc = _tiny_sweep_doc()
        svg = render_figure(doc, {
            "x": "defense.backend", "series": "workloads.1.params.rate_pps",
            "y": "legit_goodput_bps"})
        assert ">aitf</text>" in svg and ">none</text>" in svg

    def test_empty_data_renders_placeholder(self):
        doc = {"schema": "experiment_sweep/v1", "grid": {}, "cells": []}
        svg = render_figure(doc, {"x": "nope", "y": "nothing"})
        assert "no data points" in svg

    def test_log_scale_requires_positive_values(self):
        data = figures_mod.FigureData(
            name="f", title="f", xlabel="x", ylabel="y", yscale="log",
            series=[("s", [(1.0, 0.0)])])
        with pytest.raises(ValueError, match="log scale"):
            render_figure_builtin(data)
