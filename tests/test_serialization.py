"""JSON spec files for diffeomorphisms and orbit points."""

import io
import json

import numpy as np
import pytest

from virasoro import CircleDiffeo, momentum_map
from virasoro.serialization import (
    SerializationError,
    diffeo_from_doc,
    diffeo_to_doc,
    dump_document,
    load_diffeo,
    load_document,
    orbit_point_from_doc,
    orbit_point_to_doc,
)
from conftest import sup_gap


def write_file(doc, path):
    with open(path, "w", encoding="utf-8") as fp:
        dump_document(doc, fp)


def read_file(path):
    with open(path, "r", encoding="utf-8") as fp:
        return load_document(fp)


class TestDiffeoRoundTrip:
    def test_bit_exact(self, two_mode):
        back = diffeo_from_doc(diffeo_to_doc(two_mode))
        assert back.shift == two_mode.shift
        assert np.array_equal(back.cos, two_mode.cos)
        assert np.array_equal(back.sin, two_mode.sin)

    def test_identity(self):
        back = diffeo_from_doc(diffeo_to_doc(CircleDiffeo.identity()))
        assert back.shift == 0.0 and back.modes == 0

    def test_file_round_trip(self, tmp_path, two_mode):
        path = str(tmp_path / "d.json")
        write_file(diffeo_to_doc(two_mode), path)
        back = load_diffeo(path)
        assert back.shift == two_mode.shift
        assert np.array_equal(back.sin, two_mode.sin)

    def test_document_is_plain_json(self, tmp_path, two_mode):
        path = tmp_path / "d.json"
        write_file(diffeo_to_doc(two_mode), str(path))
        doc = json.loads(path.read_text())
        assert doc["kind"] == "circle-diffeo"
        assert doc["schema_version"] == 1


class TestOrbitPointRoundTrip:
    def test_values_survive(self, tmp_path, two_mode):
        p = momentum_map(two_mode, 1.5, grid=128)
        path = str(tmp_path / "orbit.json")
        write_file(orbit_point_to_doc(p), path)
        back = orbit_point_from_doc(read_file(path))
        assert back.charge == 1.5
        assert back.q.samples.size == 128
        assert sup_gap(back.q.eval, p.q.eval) < 1e-12

    def test_flat_point(self, two_mode):
        p = momentum_map(two_mode, 0.0, grid=64)
        back = orbit_point_from_doc(orbit_point_to_doc(p))
        assert back.charge == 0.0
        assert sup_gap(back.q.eval, p.q.eval) < 1e-12

    def test_grid_consistency_enforced(self, two_mode):
        doc = orbit_point_to_doc(momentum_map(two_mode, 1.0, grid=64))
        doc["grid"] = 32
        with pytest.raises(SerializationError):
            orbit_point_from_doc(doc)

    @pytest.mark.parametrize("key", ["charge", "grid", "const", "cos", "sin", "nyquist"])
    def test_one_missing_field_is_named(self, two_mode, key):
        doc = orbit_point_to_doc(momentum_map(two_mode, 1.0, grid=64))
        del doc[key]
        with pytest.raises(SerializationError, match=f"missing field '{key}'"):
            orbit_point_from_doc(doc)


def documents(two_mode):
    """A valid document of each Fourier-series kind, the key of its
    constant, its reader, and foreign kinds: the other kind, and
    ``vector-field``, which no reader accepts."""
    return [
        (diffeo_to_doc(two_mode), "shift", diffeo_from_doc, ("vector-field", "orbit-point")),
        (orbit_point_to_doc(momentum_map(two_mode, 1.5, grid=64)), "const", orbit_point_from_doc,
         ("circle-diffeo", "vector-field")),
    ]


class TestValidation:
    def test_wrong_kind(self, two_mode):
        for doc, _, read, others in documents(two_mode):
            for kind in others:
                doc["kind"] = kind
                with pytest.raises(SerializationError, match="expected kind"):
                    read(doc)

    def test_missing_key(self, two_mode):
        for doc, key, read, _ in documents(two_mode):
            del doc[key]
            with pytest.raises(SerializationError, match=f"missing field '{key}'"):
                read(doc)

    def test_unknown_schema_version(self, two_mode):
        for doc, _, read, _ in documents(two_mode):
            doc["schema_version"] = 99
            with pytest.raises(SerializationError, match="unsupported schema_version 99"):
                read(doc)

    def test_non_finite_rejected(self, two_mode):
        for doc, key, read, _ in documents(two_mode):
            doc[key] = float("nan")
            with pytest.raises(SerializationError, match=f"field '{key}' must be finite"):
                read(doc)

    def test_non_mapping_rejected(self, two_mode):
        for _, _, read, _ in documents(two_mode):
            with pytest.raises(SerializationError, match="must be a JSON object"):
                read([1, 2, 3])

    def test_coefficients_must_be_a_list(self, two_mode):
        for doc, _, read, _ in documents(two_mode):
            doc["cos"] = 0.5
            with pytest.raises(SerializationError, match="field 'cos' must be an array"):
                read(doc)

    def test_invalid_diffeo_payload_raises_value_error(self):
        # Slope validity is the constructor's business, not the codec's.
        doc = {
            "schema_version": 1,
            "kind": "circle-diffeo",
            "shift": 0.0,
            "cos": [],
            "sin": [1.5],
        }
        with pytest.raises(ValueError):
            diffeo_from_doc(doc)

    def test_malformed_json_stream(self):
        with pytest.raises(SerializationError):
            load_document(io.StringIO("{not json"))


class TestDumpFormat:
    def test_sorted_keys_and_trailing_newline(self, two_mode):
        buf = io.StringIO()
        dump_document(diffeo_to_doc(two_mode), buf)
        text = buf.getvalue()
        assert text.endswith("\n")
        keys = [line.split('"')[1] for line in text.splitlines() if '":' in line]
        assert keys == sorted(keys)

    def test_deterministic_bytes(self, two_mode):
        a, b = io.StringIO(), io.StringIO()
        dump_document(diffeo_to_doc(two_mode), a)
        dump_document(diffeo_to_doc(two_mode), b)
        assert a.getvalue() == b.getvalue()

    @pytest.mark.parametrize("grid", [8, 256])
    def test_bytes_are_those_of_the_json_module(self, two_mode, grid):
        # Every document kind, with empty, one-element and long coefficient
        # lists and floats whose repr takes the exponent form.
        docs = [
            diffeo_to_doc(two_mode),
            diffeo_to_doc(CircleDiffeo.identity()),
            diffeo_to_doc(CircleDiffeo(1e-300, (), (-2.5e-17,))),
            {"schema_version": 1, "kind": "vector-field", "const": 0.3, "cos": [0.1, -1e22], "sin": [2.0]},
            {"schema_version": 1, "kind": "vector-field", "const": 0.0, "cos": [], "sin": []},
            orbit_point_to_doc(momentum_map(two_mode, 1.5, grid)),
            {"schema_version": 1, "kind": "other", "ints": [1, 2], "mixed": [1.5, 2], "nested": {"x": [0.5]}},
        ]
        for doc in docs:
            buf = io.StringIO()
            dump_document(doc, buf)
            assert buf.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
