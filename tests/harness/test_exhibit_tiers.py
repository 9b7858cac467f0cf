"""The exhibits path runs on its fast tiers: a deterministic gate.

``experiment all`` with default knobs and the tier guard on must send
every unit to the fastest eligible tier; the only oracle-tier calls
are the guard's sentinel re-runs, which ``metrics.json`` counts.  A
fast tier that is silently lost (an eligibility test that stops
admitting a config, a ladder that starts on the wrong rung, an engine
resolver that picks the oracle) shows up here as a call count, not as
a timing that a noisy host might hide.

The model and annotate relations are pinned, not the raw numbers, so
a new exhibit or a redrawn sentinel sample does not need this file
edited.  The trace stage's sample holds no grep/compress/gperf unit,
so every simulation must run compiled.  The journaled run checks its
sampled model units (gperf has one) in forked children, so no
reference model run happens in this process: each is a sentinel child
in the run scope of ``metrics.json``.  Every exhibit config, the
Perfect oracle included, annotates on the vector kernel, so the general
kernel runs only the annotate sentinels' oracle re-runs.  Every
annotation and locality pass over one trace shares a single decode of
its event streams.
"""

import collections
import sys

from repro.cli import main
from repro.obs import load_metrics
from repro.sim import functional
from repro.sim.compile import resolve_engine
from repro.trace import annotate as annotate_module
from repro.trace import kernels
from repro.trace.annotate import resolve_kernel
from repro.uarch.axp21164.model import AXP21164Model
from repro.uarch.engine import resolve_model_engine
from repro.uarch.ppc620.model import PPC620Model

#: Knobs that would pin a tier, disturb the guard, or take the run out
#: of this process.
_KNOBS = ("REPRO_ENGINE", "REPRO_ANNOTATE_KERNEL", "REPRO_MODEL_ENGINE",
          "REPRO_SENTINEL_RATE", "REPRO_SENTINEL_SEED", "REPRO_TIER_FAULT",
          "REPRO_SABOTAGE", "REPRO_TRACE_CACHE", "REPRO_JOBS",
          "REPRO_METRICS")


def _patch_everywhere(monkeypatch, module, attr, wrapper):
    """Replace a module-level function, including the names other
    ``repro`` modules bound to it with ``from ... import``."""
    original = getattr(module, attr)
    for name, other in list(sys.modules.items()):
        if name.startswith("repro") and \
                getattr(other, attr, None) is original:
            monkeypatch.setattr(other, attr, wrapper)


def test_exhibit_calls_run_on_fast_tiers(monkeypatch, tmp_path):
    for knob in _KNOBS:
        monkeypatch.delenv(knob, raising=False)
    calls = collections.Counter()

    def count_model(model_cls):
        original = model_cls.run

        def run(self, annotated, use_lvp=True, engine=None):
            calls["model", resolve_model_engine(engine)] += 1
            return original(self, annotated, use_lvp=use_lvp,
                            engine=engine)

        monkeypatch.setattr(model_cls, "run", run)

    count_model(PPC620Model)
    count_model(AXP21164Model)

    original_run_program = functional.run_program

    def run_program(*args, **kwargs):
        engine = kwargs.get("engine", args[5] if len(args) > 5 else "auto")
        calls["sim", resolve_engine(engine)] += 1
        return original_run_program(*args, **kwargs)

    _patch_everywhere(monkeypatch, functional, "run_program", run_program)

    original_annotate = annotate_module.annotate_trace

    def annotate_trace(trace, config, **kwargs):
        calls["annotate", resolve_kernel(
            kwargs.get("kernel"), config, kwargs.get("audit", False),
            kwargs.get("fault_hook"))] += 1
        calls["annotate", "perfect"] += config.perfect
        return original_annotate(trace, config, **kwargs)

    _patch_everywhere(monkeypatch, annotate_module, "annotate_trace",
                      annotate_trace)

    decodes = collections.Counter()
    original_decode = kernels.decode_events

    def decode_events(trace, branches=True):
        decodes[trace.name, trace.target, branches] += 1
        return original_decode(trace, branches)

    _patch_everywhere(monkeypatch, kernels, "decode_events", decode_events)

    runs = tmp_path / "runs"
    assert main(["experiment", "all", "--scale", "tiny",
                 "--benchmarks", "grep,compress,gperf", "--jobs", "1",
                 "--runs-dir", str(runs), "--run-id", "gate"]) == 0

    document = load_metrics(runs / "gate")
    counters = document["benchmarks"]

    def sentinel_checks(stage):
        return sum(scope.get(f"tier/{stage}/sentinel_checks", 0)
                   for scope in counters.values())

    design_points = sum(
        len({key.rsplit("/", 1)[0] for key in scope
             if key.startswith("model/")})
        for scope in counters.values())
    assert design_points > 0
    assert calls["model", "fast"] == design_points
    assert calls["model", "reference"] == 0
    assert sentinel_checks("model") > 0
    assert document["run"]["sentinel/children"] == sentinel_checks("model")

    assert calls["sim", "compiled"] > 0
    assert calls["sim", "interp"] == sentinel_checks("trace") == 0

    assert calls["annotate", "perfect"] > 0
    assert calls["annotate", "vector"] > calls["annotate", "perfect"]
    assert calls["annotate", "general"] == sentinel_checks("annotate")

    # One decode per trace (no exhibit config is gshare-indexed).
    assert len(decodes) == calls["sim", "compiled"]
    assert set(decodes.values()) == {1}
