"""Consolidated exception hierarchy for the whole package.

Every failure the library raises on purpose derives from
:class:`ReproError`, split into four branches that mirror the pipeline
stages:

``ValidationError``
    The *circuit* is malformed (parse errors, cycles, undriven nets,
    duplicate definitions).  Raised by :mod:`repro.circuits.bench`,
    :class:`repro.circuits.netlist.Circuit`, and
    :mod:`repro.core.validate` before any model is built.
``InputModelError``
    The *input statistics* are malformed (missing inputs, non-finite or
    unnormalized marginals, CPDs referencing unknown lines).
``CompileError``
    A backend could not build its compiled artifact within budget
    (clique budget, enumeration width).  The facade's fallback chain is
    driven by this branch.
``PropagationError``
    Inference on a successfully compiled model produced an invalid
    belief state (zero-mass or non-finite marginals).

Each class multiply-inherits the builtin its pre-consolidation
ancestor subclassed (``ValueError``, ``RuntimeError``, ``KeyError``),
so existing ``except`` clauses keep working.  The historical import
locations (``repro.circuits.bench.BenchFormatError``,
``repro.core.backend.errors.CliqueBudgetExceeded``, ...) re-export
these classes.

This module is import-light on purpose: it must not import anything
from the package so every layer (circuits, bayesian, core, cli) can
depend on it without cycles.
"""

from __future__ import annotations

__all__ = [
    "ArtifactSchemaError",
    "BenchFormatError",
    "CircuitError",
    "CliqueBudgetExceeded",
    "CombinationalCycleError",
    "CompileError",
    "ConcurrentPropagationError",
    "DuplicateDefinitionError",
    "FallbackExhausted",
    "InputModelError",
    "PerfDiffError",
    "PerfProfileError",
    "PropagationError",
    "ReproError",
    "SegmentBoundaryError",
    "SegmentTooWide",
    "UndefinedLineError",
    "UnknownBackendError",
    "UnknownCircuitError",
    "ValidationError",
    "ZeroBeliefError",
]


class ReproError(Exception):
    """Base class of every deliberate failure raised by this package."""


# ----------------------------------------------------------------------
# Circuit / netlist validation
# ----------------------------------------------------------------------


class ValidationError(ReproError, ValueError):
    """The circuit description is structurally invalid."""


class CircuitError(ValidationError):
    """Raised for structurally invalid netlists (cycles, double drivers...).

    Historical name; the fine-grained subclasses below are preferred for
    new raises.
    """


class DuplicateDefinitionError(CircuitError):
    """A line is defined more than once (two gates, two ``INPUT``
    declarations, or a gate driving a declared primary input)."""


class UndefinedLineError(CircuitError):
    """A gate operand or ``OUTPUT`` declaration references a line that
    is neither a primary input nor any gate's output."""


class CombinationalCycleError(CircuitError):
    """The gate graph contains a combinational cycle."""


class BenchFormatError(ValidationError):
    """Raised when a ``.bench`` file cannot be parsed."""


class SegmentBoundaryError(ValidationError):
    """A segment boundary model is misconfigured: an unknown
    ``boundary=`` mode, a boundary forest with a cycle, or a boundary
    distribution with the wrong shape or mass.  Pre-consolidation these
    were bare ``ValueError``\\ s out of the segmentation module; the
    message texts are preserved."""


class UnknownCircuitError(ReproError, KeyError):
    """No circuit of the requested name exists in the benchmark suite."""

    def __str__(self) -> str:  # KeyError quotes its repr; keep it readable.
        return str(self.args[0]) if self.args else ""


# ----------------------------------------------------------------------
# Input statistics validation
# ----------------------------------------------------------------------


class InputModelError(ReproError, ValueError):
    """The primary-input statistics model is malformed or incompatible
    with the circuit (missing inputs, non-finite or unnormalized
    marginals, CPDs referencing unknown lines)."""


# ----------------------------------------------------------------------
# Backend compilation
# ----------------------------------------------------------------------


class CompileError(ReproError, RuntimeError):
    """A backend failed to build its compiled artifact.  The facade's
    fallback chain advances on this branch (and only this branch)."""


class CliqueBudgetExceeded(CompileError):
    """The triangulation produced a clique whose table would exceed the
    caller's state-space budget.  Raised *before* any table is
    materialized; callers fall back to segmentation (the ``"auto"``
    backend does this automatically)."""


class SegmentTooWide(CompileError):
    """The segment has too many inputs for support enumeration."""


class FallbackExhausted(CompileError):
    """Every backend in the facade's fallback chain failed to compile."""


class UnknownBackendError(ReproError, KeyError):
    """No backend is registered under the requested name."""

    def __str__(self) -> str:  # KeyError quotes its repr; keep it readable.
        return str(self.args[0]) if self.args else ""


# ----------------------------------------------------------------------
# Inference / artifacts
# ----------------------------------------------------------------------


class PropagationError(ReproError, RuntimeError):
    """Propagation on a compiled model produced an invalid belief state
    (zero total mass or non-finite values)."""


class ZeroBeliefError(PropagationError, ZeroDivisionError):
    """Normalizing a belief with zero total mass (impossible evidence or
    annihilated potentials).  Also a :class:`ZeroDivisionError`, which
    the pre-consolidation normalization code raised."""


class ConcurrentPropagationError(PropagationError):
    """Two threads entered one :class:`PropagationEngine` at the same
    time.  The engine's belief/message buffers are preallocated and
    mutated in place, so overlapping calls silently corrupt each
    other's results; the engine refuses instead of corrupting.  Give
    each thread its own engine -- ``repro.serve`` checks replicas out
    of a per-model pool for exactly this reason."""


class ArtifactSchemaError(ReproError, RuntimeError):
    """A serialized :class:`~repro.core.backend.base.CompiledModel` has
    a missing or incompatible schema tag and cannot be loaded."""


# ----------------------------------------------------------------------
# Performance history (`repro.perf`)
# ----------------------------------------------------------------------


class PerfProfileError(ReproError, ValueError):
    """A perf profile is malformed, unresolvable, or has an unsupported
    schema tag (store refs that match nothing land here too)."""


class PerfDiffError(ReproError, RuntimeError):
    """Two perf profiles (or benchmark reports) cannot be compared --
    different benchmark kinds, no common rows, or machine fingerprints
    that differ without ``force``.  The CLI maps this to exit code 2."""
