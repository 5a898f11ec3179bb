"""The scheme registry: stable ids and one resolver for every spec.

Wire encoding of the frame param byte (the redesigned "v2" meaning):

    param byte = scheme_id << 4 | param_index      (PARAM_NONE = 0xFF)

LAC is scheme 0, so its historical wire ids 0/1/2 (LAC-128/192/256)
are unchanged — every pre-registry client and recorded trace stays
valid.  NewHope is scheme 1: 0x10 (NewHope512) and 0x11
(NewHope1024).  No scheme takes id 15, keeping 0xFF free as the
"no param" sentinel.

:func:`resolve` is the one front door: it accepts a :class:`ParamId`,
a served scheme's own parameter object (``LacParams`` /
``NewHopeParams``), a parameter-set name (``"LAC-128"``,
``"NewHope512"``), or a raw wire id, and returns the
``(scheme, params)`` pair everything downstream works with.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Any

from repro.schemes.base import KemScheme
from repro.schemes.lac import LacScheme
from repro.schemes.newhope import NewHopeScheme

#: Frame param byte meaning "no parameter set" (INFO, REMOVE_KEY, ...).
PARAM_NONE = 0xFF

_SCHEME_SHIFT = 4
_INDEX_MASK = 0x0F


class SchemeId(IntEnum):
    """Stable wire scheme identifiers (the param byte's high nibble)."""

    LAC = 0
    NEWHOPE = 1


@dataclass(frozen=True)
class ParamId:
    """A fully-qualified (scheme, parameter set) identity."""

    scheme: SchemeId
    index: int
    name: str

    @property
    def wire_id(self) -> int:
        """The frame param byte encoding this parameter set."""
        return (int(self.scheme) << _SCHEME_SHIFT) | self.index

    def __str__(self) -> str:
        return self.name


#: The schemes the stack serves, in scheme-id order: a fixed table, so
#: every wire id is known at import.
LAC_SCHEME = LacScheme()
NEWHOPE_SCHEME = NewHopeScheme()
_ORDERED: tuple[KemScheme, ...] = (LAC_SCHEME, NEWHOPE_SCHEME)
_SCHEMES_BY_ID = {scheme.scheme_id: scheme for scheme in _ORDERED}
_SCHEME_BY_TYPE = {
    type(params): scheme for scheme in _ORDERED for params in scheme.param_sets
}
_PARAMS_BY_NAME = {
    params.name: (scheme, params)
    for scheme in _ORDERED
    for params in scheme.param_sets
}


def all_schemes() -> tuple[KemScheme, ...]:
    """The served schemes in scheme-id order."""
    return _ORDERED


# ----------------------------------------------------------------------
# wire-id codec
# ----------------------------------------------------------------------


def wire_id_for_params(params: Any) -> int:
    """The frame param byte for ``params`` (scheme-qualified)."""
    scheme = scheme_of(params)
    return (scheme.scheme_id << _SCHEME_SHIFT) | scheme.param_index(params)


def params_for_wire_id(wire_id: int) -> tuple[KemScheme, Any]:
    """Decode a frame param byte to its ``(scheme, params)`` pair."""
    if not 0 <= wire_id <= 0xFF or wire_id == PARAM_NONE:
        raise ValueError(f"unknown parameter id {wire_id}")
    scheme_id = wire_id >> _SCHEME_SHIFT
    index = wire_id & _INDEX_MASK
    scheme = _SCHEMES_BY_ID.get(scheme_id)
    if scheme is None:
        raise ValueError(f"unknown scheme id {scheme_id} in parameter id {wire_id}")
    sets = scheme.param_sets
    if index >= len(sets):
        raise ValueError(f"unknown {scheme.name} parameter index {index}")
    return scheme, sets[index]


def scheme_of(params: Any) -> KemScheme:
    """The scheme owning ``params`` (by parameter type)."""
    try:
        return _SCHEME_BY_TYPE[type(params)]
    except KeyError:
        raise ValueError(
            f"no scheme owns parameter type {type(params).__name__}"
        ) from None


# ----------------------------------------------------------------------
# the one resolver
# ----------------------------------------------------------------------


def resolve(spec: Any) -> tuple[KemScheme, Any]:
    """Resolve any parameter spec to its ``(scheme, params)`` pair.

    Accepts a :class:`ParamId`, a scheme-native parameter object, a
    parameter-set name (case-sensitive, e.g. ``"LAC-128"``), or a raw
    wire id (``int``).
    """
    if isinstance(spec, ParamId):
        return params_for_wire_id(spec.wire_id)
    if isinstance(spec, int):
        return params_for_wire_id(spec)
    if isinstance(spec, str):
        try:
            return _PARAMS_BY_NAME[spec]
        except KeyError:
            raise ValueError(f"unknown parameter set {spec!r}") from None
    scheme = scheme_of(spec)
    # normalize to the registered instance when the names match
    for params in scheme.param_sets:
        if params is spec or params.name == spec.name:
            return scheme, params
    return scheme, spec


__all__ = [
    "LAC_SCHEME",
    "NEWHOPE_SCHEME",
    "PARAM_NONE",
    "ParamId",
    "SchemeId",
    "all_schemes",
    "params_for_wire_id",
    "resolve",
    "scheme_of",
    "wire_id_for_params",
]
