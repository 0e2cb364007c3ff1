"""Exception types shared across the engine."""


class EorecError(Exception):
    """Base class for engine errors."""


class WindowError(EorecError):
    """A series window is too small to certify the requested coefficient."""


class PeelError(EorecError):
    """A Laurent object is not in the span of the pole basis."""


class LogBranchError(EorecError):
    """The opaque log-branch symbol failed to cancel from a theta residue."""


class CalibrationError(EorecError):
    """Sign calibration against the reference tensors gave a mixed outcome."""


class NotRepresentableError(EorecError):
    """Requested a correlator that is handled specially and has no tensor form."""
