"""The binary frame codec (:mod:`repro.service.wire`).

Exact round-trips, float bit-identity, column packing, compression and
every malformed-input error path.  The serving path no longer uses the
codec (worker links and row streams speak JSON only); the module and
these tests stay while ``perfbench/workloads.py`` replays shard bodies
through it for its ``wire.*`` metrics, and go with those metrics.
"""

from __future__ import annotations

import json
import math
import struct

import pytest

from repro.service import wire
from repro.service.wire import WIRE_VERSION, WireError, decode_frame, encode_frame


# ----------------------------------------------------------------------
class TestFrameCodec:
    @pytest.mark.parametrize(
        "payload",
        [
            None,
            True,
            False,
            0,
            -1,
            2**63 - 1,
            -(2**63),
            2**70,
            -(2**70),
            1.5,
            -0.0,
            1e308,
            5e-324,
            "",
            "héllo ∞",
            [],
            {},
            [1, 2.0, "x", None, True, [{"a": []}]],
            {"a": 1, "b": [0.1, 0.2], "inf": "inf", "nan": "nan"},
            {"quantiles": [0.1 * i for i in range(64)]},
        ],
    )
    def test_round_trip_equals_json_round_trip(self, payload):
        decoded = decode_frame(encode_frame(payload))
        assert decoded == payload
        # The frame path must agree byte-for-byte with what the JSON wire
        # would have delivered for the same tree.
        assert json.dumps(decoded, sort_keys=True, allow_nan=False) == json.dumps(
            payload, sort_keys=True, allow_nan=False
        )

    def test_floats_are_bit_identical(self):
        values = [0.1 + 0.2, 1.0 / 3.0, math.pi, 4.5911234, -0.0, 2.0**-1074]
        decoded = decode_frame(encode_frame(values + [0.5] * 4))
        for original, roundtripped in zip(values, decoded):
            assert struct.pack("!d", roundtripped) == struct.pack("!d", original)
        assert math.copysign(1.0, decode_frame(encode_frame(-0.0))) == -1.0

    def test_types_survive_where_json_text_would_too(self):
        # ints stay ints, floats stay floats, bools stay bools — the same
        # distinctions JSON text preserves.
        decoded = decode_frame(encode_frame([1, 1.0, True, False]))
        assert [type(item) for item in decoded] == [int, float, bool, bool]

    def test_float_column_packs_and_round_trips(self):
        # A homogeneous float list >= COLUMN_MIN_LENGTH packs as one <f8
        # block: tag + varint + 8n bytes, far below per-element tagging.
        column = [0.123456789 * i for i in range(100)]
        frame = encode_frame(column, compress_threshold=None)
        assert len(frame) < 8 + 1 + 2 + 8 * 100 + 16
        assert decode_frame(frame) == column
        # Heterogeneous and short lists take the generic path but still
        # round-trip exactly.
        assert decode_frame(encode_frame([0.1, 0.2, 0.3])) == [0.1, 0.2, 0.3]
        mixed = [0.1, 0.2, 0.3, 0.4, 1]
        assert decode_frame(encode_frame(mixed)) == mixed

    def test_column_struct_fallback_matches_numpy(self, monkeypatch):
        column = [1.5 * i for i in range(32)]
        with_numpy = encode_frame(column)
        monkeypatch.setattr(wire, "_np", None)
        without_numpy = encode_frame(column)
        assert with_numpy == without_numpy
        assert decode_frame(with_numpy) == column  # decoded via struct too

    def test_compression_above_threshold_round_trips(self):
        payload = {"rows": [[float(i % 7)] * 64 for i in range(200)]}
        frame = encode_frame(payload)
        assert frame[3] & 0x01  # zlib flag set
        assert len(frame) < len(json.dumps(payload).encode())
        assert decode_frame(frame) == payload
        # Below the threshold the flag stays clear.
        small = encode_frame({"a": 1.0})
        assert not small[3] & 0x01

    def test_incompressible_payload_stays_raw(self):
        import hashlib

        # zlib would *grow* a column of incompressible doubles; the encoder
        # must keep the raw payload rather than flag a bigger "compressed"
        # one.  SHA-256 output is deterministic pseudo-random bytes.
        blob = b"".join(
            hashlib.sha256(bytes([i % 256, i // 256])).digest() for i in range(325)
        )
        doubles = struct.unpack(f"!{len(blob) // 8}d", blob)
        payload = [value for value in doubles if math.isfinite(value)][:1150]
        assert len(payload) == 1150  # 9200-byte column, above the threshold
        frame = encode_frame(payload)
        assert not frame[3] & 0x01
        assert decode_frame(frame) == payload

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda frame: b"",
            lambda frame: frame[:4],
            lambda frame: b"XX" + frame[2:],
            lambda frame: frame[:2] + bytes([WIRE_VERSION + 1]) + frame[3:],
            lambda frame: frame[:3] + bytes([0x80]) + frame[4:],  # unknown flag
            lambda frame: frame[:-1],  # truncated payload
            lambda frame: frame + b"\x00",  # length mismatch
        ],
    )
    def test_malformed_frames_raise_wire_error(self, mutate):
        frame = encode_frame({"a": [1.0, 2.0]})
        with pytest.raises(WireError):
            decode_frame(mutate(frame))

    def test_trailing_garbage_inside_payload_raises(self):
        frame = encode_frame(True)
        # Splice an extra payload byte in and fix up the declared length.
        header = struct.pack("!2sBBI", b"RF", WIRE_VERSION, 0, 2)
        with pytest.raises(WireError, match="trailing garbage"):
            decode_frame(header + frame[8:] + b"\x00")

    def test_unknown_tag_and_corrupt_zlib_raise(self):
        with pytest.raises(WireError, match="unknown frame tag"):
            decode_frame(struct.pack("!2sBBI", b"RF", WIRE_VERSION, 0, 1) + b"\xfe")
        with pytest.raises(WireError, match="compressed"):
            decode_frame(
                struct.pack("!2sBBI", b"RF", WIRE_VERSION, 0x01, 4) + b"junk"
            )

    def test_unsupported_types_raise_wire_error(self):
        with pytest.raises(WireError, match="not frame-encodable"):
            encode_frame({"key": object()})
        with pytest.raises(WireError, match="dict keys must be str"):
            encode_frame({1: "value"})

    def test_tuples_encode_as_lists(self):
        assert decode_frame(encode_frame((1, 2, 3))) == [1, 2, 3]
