"""Exception types raised across the tracking stack, and the one check of settings."""

import numbers
import sys
import typing


class McvtError(Exception):
    """Base class for all library errors."""


class ConfigError(McvtError):
    """Invalid or missing configuration."""


class SettingError(ConfigError, TypeError, ValueError):
    """A setting of the wrong kind or outside its range."""


_KIND_WORDS = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", dict: "a JSON object"}


def check_settings(values, **rules) -> None:
    """Raise SettingError for the first entry of ``values`` that breaks its rule.

    A rule is a kind, or a (kind, interval) pair such as ``(float, "[0, 1)")``
    with ``[``/``]`` closed and ``(``/``)`` open ends.  Kinds: ``int`` is an
    Integral and ``float`` a finite Real, neither of them a bool; ``bool``,
    ``str`` and ``dict`` are themselves.  ``kind | None`` also admits None.
    """
    for name, rule in rules.items():
        kind, interval = rule if isinstance(rule, tuple) else (rule, None)
        kinds = typing.get_args(kind) or (kind,)
        value = values[name]
        if value is None and type(None) in kinds:
            continue
        if not _is_kind(value, kinds[0]):
            raise SettingError(f"{name} must be {_KIND_WORDS[kinds[0]]}, got {value!r}")
        if interval is not None and not _within(value, interval):
            raise SettingError(f"{name} must be in {interval}, got {value!r}")


def _is_kind(value, kind) -> bool:
    if kind is int:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if kind is float:  # abs() compares exactly, so NaN, inf and huge ints fail
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max)
    return isinstance(value, kind)


def _within(value, interval: str) -> bool:
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = value > low if interval[0] == "(" else value >= low
    below = value < high if interval[-1] == ")" else value <= high
    return above and below


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
    """Input that does not parse or does not fit: a file, a file row, a provider's arrays."""


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
class InvalidLayout(ConfigError):
    """Unknown scenario layout, or one the camera count does not fit."""
