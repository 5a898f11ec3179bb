"""``repro.schemes`` — the scheme registry behind the serving stack.

One :class:`KemScheme` adapter per KEM family (LAC, NewHope), a fixed
table assigning stable ``SchemeId``/``ParamId`` wire identities,
and :func:`resolve` — the single front door that turns any parameter
spec (a ``ParamId``, a scheme-native params object, a name, a wire id)
into the ``(scheme, params)`` pair the server, clients and
facade all share.  See ``docs/SERVICE.md`` ("Schemes") for the wire
encoding.
"""

from repro.schemes.base import KemScheme
from repro.schemes.lac import LacScheme
from repro.schemes.newhope import NewHopeScheme
from repro.schemes.registry import (
    LAC_SCHEME,
    NEWHOPE_SCHEME,
    PARAM_NONE,
    ParamId,
    SchemeId,
    all_schemes,
    params_for_wire_id,
    resolve,
    scheme_of,
    wire_id_for_params,
)

__all__ = [
    "KemScheme",
    "LAC_SCHEME",
    "LacScheme",
    "NEWHOPE_SCHEME",
    "NewHopeScheme",
    "PARAM_NONE",
    "ParamId",
    "SchemeId",
    "all_schemes",
    "params_for_wire_id",
    "resolve",
    "scheme_of",
    "wire_id_for_params",
]
