"""Exception and warning types shared across the simulator."""


class QkdPassError(Exception):
    """Base class for all simulator errors."""


# --- TLE ingestion ---

class TleParseError(QkdPassError, ValueError):
    """A TLE line could not be decoded."""


class WrongLineLength(TleParseError):
    """TLE line is not exactly 69 characters."""


class ChecksumMismatch(TleParseError):
    """Modulo-10 line checksum does not match the final digit."""

    def __init__(self, line_number: int, expected: int, found: int):
        self.line_number = line_number
        self.expected = expected
        self.found = found
        super().__init__(
            f"line {line_number}: checksum digit {found}, expected {expected}"
        )


class MalformedField(TleParseError):
    """A fixed-column TLE field failed to decode."""

    def __init__(self, field: str, columns: tuple[int, int], raw: str):
        self.field = field
        self.columns = columns
        self.raw = raw
        super().__init__(f"field {field!r} (cols {columns[0]}-{columns[1]}): {raw!r}")


# --- Propagation ---

class DecayedOrbit(QkdPassError, RuntimeError):
    """Propagated radius fell below the Earth's surface."""


class UnsupportedDeepSpace(QkdPassError, ValueError):
    """Element set has a period >= 225 min; only near-Earth orbits are handled."""


class StaleElements(UserWarning):
    """Propagation time is more than 30 days from the element epoch."""


# --- Source / visibility math ---

class NonpositiveBrightness(QkdPassError, ValueError):
    """Source brightness must be strictly positive."""


class InvalidExtrema(QkdPassError, ValueError):
    """Coincidence extrema violate c_max >= c_min >= 0, c_max > 0."""


class OutOfRange(QkdPassError, ValueError):
    """A dimensionless argument fell outside its documented domain."""


# --- Channel ---

class NonpositiveElevation(QkdPassError, ValueError):
    """Atmospheric loss is undefined at or below the horizon."""


class LowElevation(UserWarning):
    """Elevation below the 5 deg validity floor; clamped value returned."""


class ProfileGap(QkdPassError, ValueError):
    """A time-indexed profile does not cover the requested span."""


# --- Receiver ---

class SyncFailed(QkdPassError, RuntimeError):
    """Beacon clock synchronisation found no unambiguous correlation peak."""


class NoSync(UserWarning):
    """A pass reports zero key because beacon sync failed; says why."""


class ZeroCounts(QkdPassError, ValueError):
    """Polarimeter setting produced zero total counts."""


class LowCounts(UserWarning):
    """Fewer counts than recommended for a reliable estimate."""


# --- Protocol ---

class EmptyKey(QkdPassError, ValueError):
    """Operation requires a non-empty sifted key."""


class LowSample(UserWarning):
    """QBER sample smaller than the recommended minimum."""


# --- Simulation orchestration ---

class SimulationError(QkdPassError, RuntimeError):
    """A pipeline stage failed; carries the originating module name."""

    def __init__(self, module: str, message: str):
        self.module = module
        super().__init__(f"[{module}] {message}")
