"""Timing-model execution engines (see docs/performance.md).

Both machine models carry two scheduling loops: the ``reference``
loop -- the original, component-object implementation that the unit
tests pin down -- and a ``fast`` loop with the same arithmetic inlined
(one ``zip`` over per-instruction columns built from opclass-indexed
tables, register scoreboards as lists, cache and branch-predictor
state precomputed per trace by :mod:`repro.uarch.factored`).  The two
are held bit-identical by the differential suite in ``tests/uarch``;
``auto`` (the default) picks the fast loop.
"""

from __future__ import annotations

import os

from repro.errors import ConfigError
from repro.isa.opcodes import Opcode, OpClass

#: Recognised values of the ``engine`` knob / ``REPRO_MODEL_ENGINE``.
MODEL_ENGINES = ("auto", "reference", "fast")


def resolve_model_engine(engine: str | None) -> str:
    """Resolve the model-engine knob to ``"reference"`` or ``"fast"``.

    ``REPRO_MODEL_ENGINE`` overrides the argument; ``"auto"`` (the
    default) selects the fast loop.
    """
    env = os.environ.get("REPRO_MODEL_ENGINE")
    if env:
        engine = env
    if engine is None:
        engine = "auto"
    if engine not in MODEL_ENGINES:
        raise ConfigError(
            f"unknown model engine {engine!r} "
            f"(choose from {', '.join(MODEL_ENGINES)})"
        )
    return "fast" if engine == "auto" else engine


def latency_arrays(table) -> tuple[list[int], list[int]]:
    """Flatten a per-Opcode latency dict into opcode-int-indexed lists."""
    size = max(int(op) for op in Opcode) + 1
    issue = [0] * size
    result = [0] * size
    for op, lat in table.items():
        issue[int(op)] = lat.issue
        result[int(op)] = lat.result
    return issue, result


def fu_of_class_array(mapping: dict[int, int]) -> list[int]:
    """Flatten an {opclass int: fu id or kind} dict into an
    opclass-indexed list."""
    size = max(int(c) for c in OpClass) + 1
    flat = [0] * size
    for cls, fu in mapping.items():
        flat[cls] = fu
    return flat

