"""Structural validation of ``metrics.json`` documents.

Hand-rolled (the container has no jsonschema) but strict: the CI
observability smoke job runs ``repro stats <id> --validate`` after
every small experiment, so a drifting writer fails the build rather
than producing documents ``repro stats`` can no longer read.
"""

from __future__ import annotations

from typing import Mapping

from repro.obs.metrics import SCHEMA_ID

_REQUIRED_KEYS = ("schema", "run_id", "version", "context",
                  "benchmarks", "run", "phases", "spans")
_SPAN_KEYS = ("benchmark", "phase", "label", "start", "end", "pid")
#: Run-scope peak resident sets: the parent process's and the largest
#: model child's.
_PEAK_GAUGES = ("parent/peak_rss_mb", "children/peak_rss_mb")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_metrics(document) -> list[str]:
    """Every schema violation in *document* (empty list = valid)."""
    errors: list[str] = []
    if not isinstance(document, Mapping):
        return [f"document must be an object, got {type(document).__name__}"]
    for key in _REQUIRED_KEYS:
        if key not in document:
            errors.append(f"missing top-level key {key!r}")
    if errors:
        return errors

    if document["schema"] != SCHEMA_ID:
        errors.append(f"schema must be {SCHEMA_ID!r}, "
                      f"got {document['schema']!r}")
    for key in ("run_id", "version"):
        if not isinstance(document[key], str):
            errors.append(f"{key!r} must be a string")

    benchmarks = document["benchmarks"]
    if not isinstance(benchmarks, Mapping):
        errors.append("'benchmarks' must be an object")
    else:
        for name, scope in benchmarks.items():
            if not isinstance(scope, Mapping):
                errors.append(f"benchmarks[{name!r}] must be an object")
                continue
            for counter, value in scope.items():
                if not isinstance(value, int) or isinstance(value, bool):
                    errors.append(
                        f"benchmarks[{name!r}][{counter!r}] must be an "
                        f"integer, got {value!r}")

    run = document["run"]
    if not isinstance(run, Mapping):
        errors.append("'run' must be an object")
    else:
        for counter, value in run.items():
            if not _is_number(value):
                errors.append(f"run[{counter!r}] must be a number, "
                              f"got {value!r}")
            elif counter in _PEAK_GAUGES and value <= 0:
                errors.append(f"run[{counter!r}] must be a positive "
                              f"peak in MB, got {value!r}")

    phases = document["phases"]
    if not isinstance(phases, Mapping):
        errors.append("'phases' must be an object")
    else:
        for name, scope in phases.items():
            if not isinstance(scope, Mapping) or not all(
                    _is_number(v) and v >= 0 for v in scope.values()):
                errors.append(f"phases[{name!r}] must map phase names "
                              "to non-negative seconds")

    spans = document["spans"]
    if not isinstance(spans, list):
        errors.append("'spans' must be a list")
    else:
        for index, span in enumerate(spans):
            if not isinstance(span, Mapping):
                errors.append(f"spans[{index}] must be an object")
                continue
            missing = [key for key in _SPAN_KEYS if key not in span]
            if missing:
                errors.append(f"spans[{index}] missing keys {missing}")
                continue
            if span["benchmark"] is not None and \
                    not isinstance(span["benchmark"], str):
                errors.append(f"spans[{index}]['benchmark'] must be a "
                              "string or null")
            for key in ("phase", "label"):
                if not isinstance(span[key], str):
                    errors.append(f"spans[{index}][{key!r}] must be a string")
            if not (_is_number(span["start"]) and _is_number(span["end"])):
                errors.append(f"spans[{index}] start/end must be numbers")
            elif span["end"] < span["start"]:
                errors.append(f"spans[{index}] ends before it starts")
            if not isinstance(span["pid"], int) or isinstance(
                    span["pid"], bool):
                errors.append(f"spans[{index}]['pid'] must be an integer")
    return errors
