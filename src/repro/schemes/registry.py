"""The scheme registry: stable ids and one resolver for every spec.

Wire encoding of the frame param byte (the redesigned "v2" meaning):

    param byte = scheme_id << 4 | param_index      (PARAM_NONE = 0xFF)

LAC is scheme 0, so its historical wire ids 0/1/2 (LAC-128/192/256)
are unchanged — every pre-registry client and recorded trace stays
valid.  NewHope is scheme 1: 0x10 (NewHope512) and 0x11
(NewHope1024).  Scheme 15 is never registered, keeping 0xFF free as
the "no param" sentinel.

:func:`resolve` is the one front door: it accepts a :class:`ParamId`,
a registered scheme's own parameter object (``LacParams`` /
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


_SCHEMES_BY_ID: dict[int, KemScheme] = {}
_SCHEMES_BY_NAME: dict[str, KemScheme] = {}
# the lookups the per-request paths make, rebuilt by ``register_scheme``
_ORDERED: tuple[KemScheme, ...] = ()
_SCHEME_BY_TYPE: dict[type, KemScheme] = {}
_PARAMS_BY_NAME: dict[str, tuple[KemScheme, Any]] = {}


def register_scheme(scheme: KemScheme) -> KemScheme:
    """Register ``scheme`` under its id and name (idempotent by name)."""
    if not 0 <= scheme.scheme_id < 15:
        raise ValueError("scheme_id must be in [0, 14] (15 reserves PARAM_NONE)")
    if len(scheme.param_sets) > _INDEX_MASK + 1:
        raise ValueError("a scheme may register at most 16 parameter sets")
    existing = _SCHEMES_BY_ID.get(scheme.scheme_id)
    if existing is not None and existing.name != scheme.name:
        raise ValueError(
            f"scheme id {scheme.scheme_id} already taken by {existing.name!r}"
        )
    _SCHEMES_BY_ID[scheme.scheme_id] = scheme
    _SCHEMES_BY_NAME[scheme.name] = scheme
    _reindex()
    return scheme


def _reindex() -> None:
    """Rebuild the derived lookups from the registered schemes."""
    global _ORDERED
    _ORDERED = tuple(_SCHEMES_BY_ID[k] for k in sorted(_SCHEMES_BY_ID))
    _SCHEME_BY_TYPE.clear()
    _PARAMS_BY_NAME.clear()
    for scheme in reversed(_ORDERED):  # the lowest id wins a clash
        for params in scheme.param_sets:
            _SCHEME_BY_TYPE[type(params)] = scheme
            _PARAMS_BY_NAME[params.name] = (scheme, params)


def scheme_for(spec: SchemeId | int | str | KemScheme) -> KemScheme:
    """Look up a registered scheme by id, name, or identity."""
    if isinstance(spec, KemScheme):
        return spec
    if isinstance(spec, str):
        try:
            return _SCHEMES_BY_NAME[spec.lower()]
        except KeyError:
            raise ValueError(f"unknown scheme {spec!r}") from None
    try:
        return _SCHEMES_BY_ID[int(spec)]
    except KeyError:
        raise ValueError(f"unknown scheme id {int(spec)}") from None


def all_schemes() -> tuple[KemScheme, ...]:
    """Registered schemes in scheme-id order."""
    return _ORDERED


def all_param_ids() -> tuple[ParamId, ...]:
    """Every registered (scheme, parameter set) identity."""
    out = []
    for scheme in all_schemes():
        for index, params in enumerate(scheme.param_sets):
            out.append(ParamId(SchemeId(scheme.scheme_id), index, params.name))
    return tuple(out)


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
    """The registered scheme owning ``params`` (by parameter type)."""
    scheme = _SCHEME_BY_TYPE.get(type(params))
    if scheme is not None:
        return scheme
    for scheme in _ORDERED:  # a type no registered parameter set has
        if scheme.owns_params(params):
            return scheme
    raise ValueError(
        f"no registered scheme owns parameter type {type(params).__name__}"
    )


def param_id_of(params: Any) -> ParamId:
    """The :class:`ParamId` identity of ``params``."""
    scheme = scheme_of(params)
    return ParamId(
        SchemeId(scheme.scheme_id), scheme.param_index(params), params.name
    )


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


#: The default registered scheme instances.
LAC_SCHEME = register_scheme(LacScheme())
NEWHOPE_SCHEME = register_scheme(NewHopeScheme())


__all__ = [
    "LAC_SCHEME",
    "NEWHOPE_SCHEME",
    "PARAM_NONE",
    "ParamId",
    "SchemeId",
    "all_param_ids",
    "all_schemes",
    "param_id_of",
    "params_for_wire_id",
    "register_scheme",
    "resolve",
    "scheme_for",
    "scheme_of",
    "wire_id_for_params",
]
