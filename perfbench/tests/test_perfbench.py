"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The slow test runs every workload once, traced, at the default seed
(about two minutes on a 2-vCPU machine).
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_match_the_runner():
    end_to_end = [m["name"] for m in BENCHMARK["end_to_end"]]
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name), name
    assert len(set(end_to_end + per_layer)) == len(end_to_end + per_layer)
    assert end_to_end == [name for name, _ in run.END_TO_END]
    assert per_layer == run.per_layer_names()
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)


def test_design_point_counts():
    golden = json.loads(run.GOLDEN.read_text())
    counts = {name: spec["design_points"]
              for name, spec in workloads.WORKLOADS.items()}
    assert counts == {"exhibits": 238, "sweep": 1734,
                      "exhibits-small-warm": 42}
    assert len(golden["exhibits"]["design_points"]) == 238
    assert len(golden["exhibits-small-warm"]["design_points"]) == 42
    assert len(golden["sweep"]["cells"]) * 102 == 1734


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 12345])
def test_sweep_sample_shape(seed):
    from repro.harness.sweep import lct_key, predictor_key
    from repro.lvp.grid import sensitivity_grid
    golden = json.loads(run.GOLDEN.read_text())
    universe = set(golden["sweep"]["configs"])
    grid = sensitivity_grid()
    sample = workloads.sweep_configs(seed)
    assert len(sample) == len({c.name for c in sample}) == 102
    assert {c.name for c in sample} <= universe
    assert len({predictor_key(c) for c in sample}) == \
        len({predictor_key(c) for c in grid})
    assert len({lct_key(c) for c in sample}) == \
        len({lct_key(c) for c in grid})
    if seed == workloads.DEFAULT_SEED:
        assert [c.name for c in sample] == [c.name for c in grid]
    assert [c.name for c in sample] == \
        [c.name for c in workloads.sweep_configs(seed)]


def test_self_times_partition_a_synthetic_window():
    # [layer, start, end, parent, tier, payload]
    trace = [
        ["journal", 0.0, 0.5, -1, None, None],          # set-up
        ["guard.model", 1.0, 4.0, -1, None, None],
        ["model.ppc620", 1.5, 2.5, 1, "fast", 100],
        ["model.ppc620", 2.5, 3.5, 1, "reference", 100],
        ["report", 5.0, 6.0, -1, None, None],
    ]
    metrics = spans.layer_metrics(trace, 1.0, 7.0)
    assert metrics["guard.self_s"] == pytest.approx(1.0)
    assert metrics["model.ppc620.self_s"] == pytest.approx(2.0)
    assert metrics["guard.oracle_calls"] == 1
    assert metrics["guard.oracle_s"] == pytest.approx(1.0)
    assert metrics["journal.calls"] == 0
    assert metrics["unattributed_s"] == pytest.approx(2.0)
    assert metrics["model.sim_instructions_per_s"] == pytest.approx(100.0)


def test_normalisation_rescales_own_time_by_probe_speed():
    sampler = hostspeed.Sampler()
    # (start, end) of each probe: one before the window, two inside, and
    # the final one that stop() takes after it.
    sampler.samples = [(0.5, 0.6), (1.0, 1.0006), (2.0, 2.0003),
                       (3.5, 3.5003)]
    host = sampler.normalise(1.0, 3.0)
    assert host["probes"] == 2
    assert host["own_s"] == pytest.approx(2.0 - 0.0009)
    assert host["probe_s"] == pytest.approx(0.00045)
    assert host["ref_s"] == pytest.approx(
        (2.0 - 0.0009) * hostspeed.REFERENCE_PROBE_S / 0.00045)
    # A window no probe ran inside falls back on the final probe.
    assert sampler.normalise(3.0, 3.1)["probe_s"] == pytest.approx(0.0003)


def test_sampler_probes_while_the_process_computes():
    sampler = hostspeed.Sampler()
    sampler.install()
    start = time.process_time()
    while time.process_time() - start < 10 * hostspeed.PERIOD_S:
        hostspeed.probe()
    sampler.stop()
    assert len(sampler.samples) >= 5
    assert all(end > begin for begin, end in sampler.samples)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exhibits",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert process.returncode != 0
    assert process.stdout == ""


@pytest.fixture(scope="module")
def traced_run():
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--seed", str(workloads.DEFAULT_SEED), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert process.returncode == 0, process.stderr + process.stdout
    return json.loads(process.stdout.strip().splitlines()[-1])


def _layers(result, workload):
    prefix = workload + "."
    return {key[len(prefix):]: value["value"]
            for key, value in result["metrics"].items()
            if key.startswith(prefix)}


def test_error_rate_is_zero_at_the_seed(traced_run):
    assert traced_run["correct"] is True
    assert traced_run["failed"] == 0
    assert traced_run["attempted"] == 2 * (238 + 1734 + 42)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_self_times_partition_wall_time(traced_run, workload):
    layers = _layers(traced_run, workload)
    assert set(layers) == set(run.per_layer_names())
    self_times = sum(layers[f"{layer}.self_s"]
                     for layer in spans.SELF_TIME_LAYERS)
    assert self_times + layers["unattributed_s"] == \
        pytest.approx(layers["traced_wall_s"], abs=1e-6)
    assert layers["unattributed_s"] >= 0


def test_traced_run_shows_each_workloads_layers(traced_run):
    sweep = _layers(traced_run, "sweep")
    assert sweep["sim.calls"] > sweep["sim.distinct_traces"] == 17
    assert sweep["model.ppc620.calls"] == sweep["model.axp21164.calls"] == 0
    warm = _layers(traced_run, "exhibits-small-warm")
    assert warm["sim.calls"] == 0
    assert warm["cache.hit_ratio"] == 1.0
    exhibits = _layers(traced_run, "exhibits")
    assert exhibits["cache.store.calls"] == 34
    assert exhibits["guard.oracle_calls"] > 0
