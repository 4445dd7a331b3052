"""Exception hierarchy shared across paretoscope.

Scenario-input problems (parse/validation/missing fields) derive from
``ScenarioError``; everything else is an engine-side failure.  Each class
carries the CLI's exit code for it as ``exit_code``: 1 for a
``ScenarioError``, 3 for ``CapExceeded``, and 2 for any other
``ParetoscopeError``.
"""

from __future__ import annotations


class ParetoscopeError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class DimensionMismatch(ParetoscopeError):
    """Operands disagree on commodity dimension or agent count."""


class InvalidAgent(ParetoscopeError):
    """An agent id is outside 1..n_agents or otherwise unusable."""


class InfeasibleConfig(ParetoscopeError):
    """A feasible-set declaration cannot be enumerated as configured."""


class ZeroReferencePoint(ParetoscopeError):
    """A relative transform's reference mean is zero, so the ratio is undefined.

    ``agent`` is the agent whose evaluation failed; ``endpoint`` is set to
    ``"from"`` or ``"to"`` when the failure occurred while checking a move.
    """

    def __init__(self, message: str, *, agent: int | None = None, endpoint: str | None = None):
        super().__init__(message)
        self.agent = agent
        self.endpoint = endpoint


class HypothesisViolated(ParetoscopeError):
    """A move falls outside the ratio-form test's hypothesis (no strict
    gainer, or more than one commodity)."""


class CapExceeded(ParetoscopeError):
    """A scan would examine more moves than the configured cap allows."""

    exit_code = 3

    def __init__(self, cap: int, required: int):
        super().__init__(f"scan requires {required} moves but cap is {cap}")
        self.cap = cap
        self.required = required


class VectorValuedAgentInfo(ParetoscopeError):
    """A welfare agent-value transform produced a vector where a scalar is required."""


class InfeasibleLattice(ParetoscopeError):
    """Discovery-run quantities are not multiples of the redistribution lattice step."""


class InternalInvariant(ParetoscopeError):
    """An internal consistency guarantee was violated (a bug, not bad input)."""


class ScenarioError(ParetoscopeError):
    """Base class for scenario-file input problems."""

    exit_code = 1


class ParseError(ScenarioError):
    """Malformed scenario text; carries 1-based line and column."""

    def __init__(self, message: str, *, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ValidationError(ScenarioError):
    """A well-formed value violates a scenario invariant; names the key when known."""

    def __init__(self, message: str, *, key: str | None = None):
        super().__init__(f"{key}: {message}" if key else message)
        self.key = key


class MissingField(ScenarioError):
    """A command requires a scenario field or flag that was not supplied."""

    def __init__(self, field: str):
        super().__init__(f"missing required field: {field}")
        self.field = field
