"""Exception types raised across the tracking stack."""


class McvtError(Exception):
    """Base class for all library errors."""


class ConfigError(McvtError):
    """Invalid or missing configuration."""


class SourceMissing(McvtError):
    """A configured input source does not exist."""


# geo
class DegenerateConfiguration(McvtError):
    """Point correspondences are rank deficient (collinear / duplicated)."""


class HorizonPoint(McvtError):
    """Projection maps the point to the line at infinity (|w| ~ 0)."""


class UnknownCamera(McvtError):
    """Camera id not present in the topology."""


# ingest
class MalformedInput(McvtError):
    """An input file row that cannot be parsed."""


# sct
class SingularInnovation(McvtError):
    """Innovation covariance is not invertible."""


class EmptyGallery(McvtError):
    """Appearance cost requested against an empty feature gallery."""


class OutOfOrderFrame(McvtError):
    """Frame indices must be strictly increasing per camera."""


# reid
class ZeroVector(McvtError):
    """Cannot normalize a zero-length vector."""


class InsufficientGallery(McvtError):
    """Re-ranking needs a gallery of at least k1 entries."""


class NoValidGallery(McvtError):
    """A query identity has no valid gallery match."""


# mct
class NonPositiveDt(McvtError):
    """Speed similarity evaluated for a pair with dt <= 0."""


# losses
class DegenerateBatch(McvtError):
    """Triplet loss needs >= 2 samples per id and >= 2 ids."""


class OutOfRange(McvtError):
    """Argument outside its documented range."""


# simkit
class InvalidLayout(McvtError):
    """Unknown scenario layout."""


class UnknownIdentity(McvtError):
    """No embedding prototype registered for this identity."""
