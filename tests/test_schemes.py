"""The scheme registry: identities, the resolver, and wire sizes.

The registry is the single front door the server, clients and
facade share, so these tests pin the properties everything downstream
leans on: stable wire ids (LAC keeps its historical 0/1/2), one
``resolve`` accepting every spec shape, and wire-size metadata that
matches the bytes the adapters actually produce.  That the fixed
scheme table leaves ``PARAM_NONE`` unclaimed is pinned beside the
constructor settings in ``test_serve_service.py``.
"""

import pytest

from repro.lac.params import ALL_PARAMS, LAC_128, LAC_192, LAC_256
from repro.newhope.params import NEWHOPE_512, NEWHOPE_1024
from repro.schemes import (
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

SEED = bytes(range(64))


class TestWireIdentity:
    def test_lac_keeps_historical_wire_ids(self):
        # pre-registry clients and recorded traces stay valid
        assert [wire_id_for_params(p) for p in ALL_PARAMS] == [0, 1, 2]

    def test_newhope_is_scheme_one(self):
        assert wire_id_for_params(NEWHOPE_512) == 0x10
        assert wire_id_for_params(NEWHOPE_1024) == 0x11

    def test_wire_ids_round_trip(self):
        for params in (*ALL_PARAMS, NEWHOPE_512, NEWHOPE_1024):
            scheme, decoded = params_for_wire_id(wire_id_for_params(params))
            assert decoded is params
            assert params in scheme.param_sets

    def test_param_none_is_never_a_valid_wire_id(self):
        with pytest.raises(ValueError):
            params_for_wire_id(PARAM_NONE)

    def test_unknown_scheme_and_index_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            params_for_wire_id(0x20)  # no scheme 2
        with pytest.raises(ValueError, match="unknown"):
            params_for_wire_id(0x03)  # no LAC index 3
        with pytest.raises(ValueError, match="unknown"):
            params_for_wire_id(0x12)  # no NewHope index 2

    def test_scheme_table_enumerates_everything(self):
        sets = [p for scheme in all_schemes() for p in scheme.param_sets]
        assert [p.name for p in sets] == [
            "LAC-128",
            "LAC-192",
            "LAC-256",
            "NewHope512",
            "NewHope1024",
        ]
        assert [wire_id_for_params(p) for p in sets] == [0, 1, 2, 0x10, 0x11]


class TestResolver:
    def test_resolves_param_id(self):
        spec = ParamId(SchemeId.NEWHOPE, 0, "NewHope512")
        assert spec.wire_id == 0x10
        scheme, params = resolve(spec)
        assert scheme is NEWHOPE_SCHEME
        assert params is NEWHOPE_512

    def test_resolves_wire_id(self):
        assert resolve(2) == (LAC_SCHEME, LAC_256)

    def test_resolves_name(self):
        assert resolve("LAC-128") == (LAC_SCHEME, LAC_128)
        assert resolve("NewHope1024") == (NEWHOPE_SCHEME, NEWHOPE_1024)

    def test_resolves_native_params_object(self):
        assert resolve(LAC_128) == (LAC_SCHEME, LAC_128)
        assert resolve(NEWHOPE_512) == (NEWHOPE_SCHEME, NEWHOPE_512)

    def test_every_spec_form_in_the_api_docstring_resolves(self):
        import repro.api as api

        # each form exactly as the facade's docstring writes it
        forms = {
            'ParamId(SchemeId.NEWHOPE, 1, "NewHope1024")': NEWHOPE_1024,
            "LAC_128": LAC_128,
            "NEWHOPE_1024": NEWHOPE_1024,
            '"LAC-256"': LAC_256,
            '"NewHope1024"': NEWHOPE_1024,
            "0x11": NEWHOPE_1024,
        }
        doc = " ".join(api.__doc__.split())
        for source, want in forms.items():
            assert f"``{source}``" in doc, source
            scheme, params = api.resolve(eval(source, vars(api)))
            assert params is want, source
            assert scheme is api.resolve(want)[0]

    def test_unknown_specs_rejected(self):
        with pytest.raises(ValueError):
            resolve("NTRU-743")
        with pytest.raises(ValueError):
            resolve(0x42)
        with pytest.raises(ValueError):
            resolve(object())

    def test_scheme_of_by_param_type(self):
        assert scheme_of(LAC_192) is LAC_SCHEME
        assert scheme_of(NEWHOPE_512) is NEWHOPE_SCHEME
        with pytest.raises(ValueError):
            scheme_of(42.0)


class TestSizeMetadata:
    """The quoted wire sizes must match the bytes adapters emit."""

    @pytest.mark.parametrize(
        "params", [*ALL_PARAMS, NEWHOPE_512, NEWHOPE_1024], ids=str
    )
    def test_sizes_match_actual_serialization(self, params):
        scheme, params = resolve(params)
        pair = scheme.keygen(params, SEED)
        pk = scheme.public_key_bytes_of(params, pair)
        assert len(pk) == scheme.public_key_wire_bytes(params)
        message = bytes(scheme.message_bytes(params))
        [(ct, shared)] = scheme.encaps_many(params, pair, [message])
        assert len(ct) == scheme.ciphertext_wire_bytes(params)
        assert len(shared) == scheme.shared_secret_bytes(params)
        assert scheme.decaps_many(params, pair, [ct]) == [shared]

    @pytest.mark.parametrize(
        "params", [*ALL_PARAMS, NEWHOPE_512, NEWHOPE_1024], ids=str
    )
    def test_seeded_keygen_is_deterministic(self, params):
        scheme, params = resolve(params)
        a = scheme.keygen(params, SEED)
        b = scheme.keygen(params, SEED)
        assert scheme.public_key_bytes_of(params, a) == scheme.public_key_bytes_of(
            params, b
        )


@pytest.mark.parametrize(
    "module", ["src/repro/serve/server.py", "src/repro/backend/base.py"]
)
def test_execution_seam_stays_scheme_agnostic(module):
    """The service and the backend contract know schemes only through
    ``KemScheme``: no import of the LAC engine/codec modules and no
    ``isinstance(..., LacParams)`` fork may grow back beside ``submit``."""
    import ast
    from pathlib import Path

    banned = {"repro.lac.kem", "repro.lac.pke"}
    tree = ast.parse((Path(__file__).parent.parent / module).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported = {node.module} | {f"{node.module}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Import):
            imported = {alias.name for alias in node.names}
        else:
            imported = set()
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
            ):
                assert "LacParams" not in ast.dump(node.args[1]), (
                    f"{module}:{node.lineno} forks on LacParams"
                )
        assert not imported & banned, f"{module}:{node.lineno} imports {imported & banned}"
