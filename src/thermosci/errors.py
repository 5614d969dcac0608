"""Semantic exception hierarchy shared across the package."""


class ThermosciError(Exception):
    """Base class for all package-specific errors."""


class InvalidDistribution(ThermosciError):
    """A probability vector failed validation (negative mass, bad sum, empty)."""


class InvalidJoint(ThermosciError):
    """A joint probability table failed validation."""


class DimensionMismatch(ThermosciError):
    """Inputs have incompatible supports or out-of-range indices."""


class ZeroEvidence(ThermosciError):
    """An observed outcome has zero marginal probability under the current belief."""


class InvalidParameter(ThermosciError):
    """A configuration value is outside its admissible range."""


class TreeTooLarge(ThermosciError):
    """Exhaustive outcome-tree enumeration would exceed the node cap."""


class TooManyRounds(ThermosciError):
    """An episode reached the default round cap with no ``max_rounds`` given."""


class NoWorkSpent(ThermosciError):
    """Efficiency is undefined on a ledger with zero spent work."""


class IncompleteMapping(ThermosciError):
    """A compression map does not cover the outcome support."""


class InvalidLedger(ThermosciError):
    """A work ledger or round record violates its structural invariants."""


class MissingPartition(ThermosciError):
    """A federated bound was requested on a scenario without subdomain data."""


class ZeroBudget(ThermosciError):
    """An efficiency cap was requested with a zero work budget."""


class NegativeGap(ThermosciError):
    """Conditional entropy exceeds unconditional entropy beyond tolerance."""


class ZeroPriorEntropy(ThermosciError):
    """Regime classification needs a strictly positive prior entropy."""


class IndexOutOfRange(ThermosciError, IndexError):
    """A subdomain or intervention index is outside the valid range."""


class ZeroMassSubdomain(ThermosciError):
    """A zero-probability subdomain was assigned a positive work budget."""


class NonPositiveOmega(ThermosciError):
    """The normalized work budget must be strictly positive."""


class NBelowOne(ThermosciError):
    """The partition count must be at least one."""


class MalformedGrid(ThermosciError):
    """A sweep-grid file does not parse against the expected CSV layout."""
