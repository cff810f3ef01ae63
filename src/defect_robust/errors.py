"""Exception types shared across the package."""


class DefectRobustError(Exception):
    """Base class for all errors raised by this package."""


class InvalidAngle(DefectRobustError):
    """An angle or angle difference is not a finite number."""


class InvalidPath(DefectRobustError):
    """A lattice path is not a cycle of 4-neighbors, revisits a vertex, is too short, or leaves the field."""


class QuantizationFailure(DefectRobustError):
    """The accumulated orientation change does not quantize to an admissible charge.

    Signals numeric corruption: the residual after rounding exceeds the
    quantization tolerance.
    """


class InvalidCellSet(DefectRobustError):
    """A cell set is empty, disconnected, pinched, or has holes."""


class UnknownTemplate(DefectRobustError):
    """A template name is not one of the built-in identifiers."""


class DegenerateCenter(DefectRobustError):
    """A synthesized defect center coincides with a grid vertex."""


class SweepFailure(DefectRobustError):
    """A Monte Carlo sweep could not produce a valid sample within its retry budget."""


class ParseError(DefectRobustError):
    """A field or config file is malformed."""
