"""The benchmark's three workloads and their correctness digests.

Shared by ``run.py`` (the parent that launches passes and checks their
outputs) and ``worker.py`` (one pass in a fresh process).  :mod:`repro`
is imported lazily, where a function needs the grid code, so the parent
checks for the program's sources before it loads any of them.
"""

from __future__ import annotations

import hashlib
import json
import random
import re

#: The seed that reproduces the repository's built-in inputs.  The
#: exhibit workloads run the suite's fixed programs at every seed; the
#: sweep workload runs ``sensitivity_grid()`` at this seed and a sample
#: of the same shape at any other.
DEFAULT_SEED = 0

#: The perf-smoke subset: two integer benchmarks and one FP benchmark.
WARM_BENCHMARKS = ("compress", "eqntott", "tomcatv")

#: name -> how the worker drives it.  ``design_points`` is a property of
#: the workload (model runs for the exhibit workloads, grid cells for the
#: sweep), so a change that avoids redundant calls gets credit for it.
WORKLOADS = {
    "exhibits": {
        "kind": "experiment", "scale": "tiny", "benchmarks": None,
        "warm_cache": False, "design_points": 238,
    },
    "sweep": {
        "kind": "sweep", "scale": "tiny", "benchmarks": None,
        "warm_cache": False, "design_points": 1734,
    },
    "exhibits-small-warm": {
        "kind": "experiment", "scale": "small",
        "benchmarks": WARM_BENCHMARKS, "warm_cache": True,
        "design_points": 42,
    },
}

#: Grid dimensions the sweep sample may redraw: the table geometry.  The
#: family fields stay fixed, so every seed sweeps the same mix of
#: predictor families and history depths -- the main cost drivers -- as
#: the built-in grid.
_REMAPPED = ("lvpt_entries", "lct_entries", "lct_bits", "cvu_entries",
             "ghr_bits")
_FAMILY = ("predictor", "selection", "index_mode", "history_depth")


def digest(value) -> str:
    """Short stable digest of a JSON-able value (32 bits, hex)."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:8]


def cell_digest(cell: dict) -> str:
    """Digest of one sweep cell: its outcome digest plus counters."""
    return digest({"outcome_digest": cell["outcome_digest"],
                   "counters": cell["counters"]})


_TITLE = re.compile(r"^((?:Table|Figure) \d+: .*)\n=+$", re.MULTILINE)


def exhibit_sections(text: str) -> dict:
    """Split ``experiment all`` stdout into titled sections.

    *text* must already have had ``strip_tier_notes`` applied, so a run
    that demoted a tier and footnoted it digests like one that did not.
    """
    matches = list(_TITLE.finditer(text))
    sections = {}
    for match, following in zip(matches, matches[1:] + [None]):
        end = following.start() if following else len(text)
        sections[match.group(1)] = digest(text[match.start():end].rstrip())
    return sections


def design_point_digests(metrics_document: dict) -> dict:
    """One digest per model run, from a journaled run's metrics.json.

    A design point is one (benchmark, machine, LVP config) timing-model
    run; its counters are keyed ``model/<target>/<machine>/<config>/``.
    """
    grouped: dict = {}
    for bench, counters in metrics_document.get("benchmarks", {}).items():
        for key, value in counters.items():
            if not key.startswith("model/"):
                continue
            point, _, counter = key.rpartition("/")
            grouped.setdefault(f"{bench}/{point}", {})[counter] = value
    return {point: digest(counters) for point, counters in grouped.items()}


def _family_values(configs, field: str, family: tuple) -> list:
    return sorted({getattr(c, field) for c in configs
                   if tuple(getattr(c, f) for f in _FAMILY) == family})


def sweep_dimensions(grid) -> dict:
    """Every value each remapped dimension takes anywhere in *grid*."""
    return {field: sorted({getattr(c, field) for c in grid})
            for field in _REMAPPED}


def sweep_universe() -> list:
    """Every configuration a seed's sample can contain.

    Per predictor family of the built-in grid, the valid cross product of
    all the grid's dimension values (the GHR width only varies where the
    family indexes with global history).  Golden digests cover all of
    it, so every seed's output is checked.
    """
    from repro.lvp.grid import expand_grid, sensitivity_grid
    grid = sensitivity_grid()
    values = sweep_dimensions(grid)
    families = sorted({tuple(getattr(c, f) for f in _FAMILY) for c in grid})
    universe, seen = [], set()
    for family in families:
        dims = {field: [value] for field, value in zip(_FAMILY, family)}
        for field in _REMAPPED:
            dims[field] = values[field] \
                if field != "ghr_bits" or family[2] == "gshare" \
                else _family_values(grid, field, family)
        for config in expand_grid(dims):
            if config.name not in seen:
                seen.add(config.name)
                universe.append(config)
    return universe


def sweep_configs(seed: int) -> list:
    """The sweep workload's grid for *seed*.

    The default seed gives ``sensitivity_grid()``.  Any other seed maps,
    per predictor family, each dimension's values injectively onto
    values the grid uses for that dimension, and applies the maps to
    every cell.  The sample keeps the grid's size, family mix and
    stage-sharing structure, so its cost stays close to the default's.
    """
    from repro.lvp.grid import config_name, sensitivity_grid
    from repro.errors import ConfigError
    from repro.lvp.config import LVPConfig
    grid = sensitivity_grid()
    if seed == DEFAULT_SEED:
        return grid
    rng = random.Random(seed)
    values = sweep_dimensions(grid)
    families = sorted({tuple(getattr(c, f) for f in _FAMILY) for c in grid})
    mapped: dict = {}
    for family in families:
        members = [c for c in grid
                   if tuple(getattr(c, f) for f in _FAMILY) == family]
        fields = [f for f in _REMAPPED
                  if f != "ghr_bits" or family[2] == "gshare"]
        for _ in range(1000):
            maps = {}
            for field in fields:
                used = _family_values(grid, field, family)
                maps[field] = dict(zip(used, rng.sample(values[field],
                                                        len(used))))
            try:
                cells = []
                for config in members:
                    cell = {f: getattr(config, f) for f in _FAMILY}
                    cell.update({f: getattr(config, f) for f in _REMAPPED})
                    cell.update({f: maps[f][cell[f]] for f in fields})
                    cells.append(LVPConfig(name=config_name(cell), **cell))
            except ConfigError:
                continue
            if len({c.name for c in cells}) == len(cells):
                break
        else:
            raise RuntimeError(f"no valid sample for family {family}")
        for config, cell in zip(members, cells):
            mapped[id(config)] = cell
    return [mapped[id(config)] for config in grid]
