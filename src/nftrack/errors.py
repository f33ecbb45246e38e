"""Exception types shared across the simulator."""


class NfTrackError(Exception):
    """Base class for all simulator errors."""


class ConfigError(NfTrackError):
    """Scenario configuration is malformed or inconsistent."""


class RankDeficientCombiner(NfTrackError):
    """Analog combiner rows are (numerically) linearly dependent."""


class DegenerateJacobian(NfTrackError):
    """Observation Jacobian carries no signal; combiner cannot be oriented."""


class DegenerateGeometry(NfTrackError):
    """Mode resolution is undefined for this pose (zero effective aperture)."""


class SingularPriorCovariance(NfTrackError):
    """Prior covariance could not be inverted even after jitter."""


class AssumptionViolated(NfTrackError):
    """Closed-form bound evaluated outside its domain of validity."""
