"""The benchmark's contract, checked without timing anything.

``BENCHMARK.json`` must be exactly what ``bench/metrics.py`` declares (and
``run.py`` refuses to print a metric set that differs from it), stay inside
the driver's limits, and every committed input must still load through the
program's own loaders.
"""

import json
import os
import re
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import gen_workloads  # noqa: E402
import layers  # noqa: E402
import metrics  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_is_the_declared_contract():
    assert _benchmark_json() == metrics.contract()


def test_contract_is_within_the_driver_limits():
    contract = metrics.contract()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert len(contract["workloads"]) == 7
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert 1 <= contract["run_seconds"] <= 60
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * (contract["run_seconds"] + 4) <= 3420
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in contract[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])
    assert contract["paths"] == ["bench"]
    assert len(json.dumps(contract)) < 64 * 1024


def test_every_per_layer_metric_names_what_it_should_move():
    assert set(metrics.MOVES) == set(metrics.PER_LAYER_NAMES)
    for name, moves in metrics.MOVES.items():
        assert moves["metric"] in metrics.E2E_NAMES, name
        assert moves["workload"] in gen_workloads.WORKLOADS, name
    for layer in layers.LAYERS:
        for suffix in ("self_s", "calls", "share"):
            assert f"{layer}.{suffix}" in metrics.MOVES


def test_layer_map_covers_every_package_of_the_program():
    present = {name[:-3] if name.endswith(".py") else name
               for name in os.listdir(os.path.join(ROOT, "src", "repro"))
               if not name.startswith("__pycache__")}
    assert present == set(layers.PACKAGE_LAYER)
    assert set(layers.PACKAGE_LAYER.values()) == set(layers.LAYERS)


def test_committed_inputs_load_and_match_the_generator():
    from repro.experiments.request import SweepRequest
    from repro.experiments.spec import ExperimentSpec

    committed = os.path.join(BENCH_DIR, "workloads")
    assert sorted(os.listdir(committed)) == sorted(
        f"{name}.json" for name in gen_workloads.WORKLOADS)
    for name in gen_workloads.WORKLOADS:
        with open(os.path.join(committed, f"{name}.json")) as handle:
            text = handle.read()
        document = json.loads(text)
        if document["schema"] == "sweep_request/v1":
            request = SweepRequest.from_dict(document)
            assert request.base.name == name
        else:
            assert ExperimentSpec.from_dict(document).name == name
        # The churn inputs build a topology to pick their fault links, which
        # takes seconds; the others regenerate instantly.
        if "faults" not in document:
            assert text == gen_workloads.dump(gen_workloads.generate(
                name, gen_workloads.DEFAULT_SEED))
