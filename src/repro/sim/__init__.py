"""Functional simulation: flat memory model, VRISC interpreter, and the
ahead-of-time basic-block compiler (see ``docs/performance.md``).

The compiler's names are re-exported lazily: importing the package does
not import :mod:`repro.sim.compile`, which the first compiled run (or
the first access to one of these names) loads on demand.
"""

from repro.sim.functional import (
    EXIT_ADDRESS,
    ExecutionResult,
    FunctionalSimulator,
    run_program,
)
from repro.sim.memory import Memory

_COMPILE_NAMES = frozenset(
    {"ENGINES", "CompiledProgram", "compiled_engine_for", "resolve_engine"})

__all__ = [
    "EXIT_ADDRESS", "ExecutionResult", "FunctionalSimulator",
    "run_program", "Memory",
    "ENGINES", "CompiledProgram", "compiled_engine_for", "resolve_engine",
]


def __getattr__(name: str):
    if name in _COMPILE_NAMES:
        from repro.sim import compile as compiler
        return getattr(compiler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
