"""Unit and property tests for the storage binary codecs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.format import (FormatError, decode_sorted_triples,
                                  decode_term, decode_varint,
                                  decode_varint_stream, decode_varstr,
                                  encode_sorted_triples, encode_term,
                                  encode_varint, encode_varstr,
                                  frame_section, iter_sections,
                                  read_section)

import termzoo


class TestVarints:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2 ** 32,
                                       2 ** 63 - 1])
    def test_round_trip(self, value):
        data = encode_varint(value)
        decoded, pos = decode_varint(data)
        assert decoded == value
        assert pos == len(data)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_torn_varint_flagged(self):
        data = encode_varint(300)[:1]  # continuation bit set, then EOF
        with pytest.raises(FormatError) as exc_info:
            decode_varint(data)
        assert exc_info.value.torn

    def test_overwide_varint_rejected(self):
        with pytest.raises(FormatError):
            decode_varint(b"\xff" * 10 + b"\x01")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2 ** 62),
                    max_size=50))
    def test_stream_decode_matches_one_by_one(self, values):
        data = b"".join(encode_varint(v) for v in values)
        assert decode_varint_stream(data) == values
        assert decode_varint_stream(data, expect=len(values)) == values

    def test_stream_count_mismatch(self):
        with pytest.raises(FormatError):
            decode_varint_stream(encode_varint(7), expect=2)

    def test_stream_torn_tail(self):
        with pytest.raises(FormatError) as exc_info:
            decode_varint_stream(b"\x80")
        assert exc_info.value.torn


class TestVarstr:
    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=80))
    def test_round_trip(self, text):
        data = encode_varstr(text)
        decoded, pos = decode_varstr(data)
        assert decoded == text
        assert pos == len(data)

    def test_invalid_utf8_rejected(self):
        data = encode_varint(2) + b"\xff\xfe"
        with pytest.raises(FormatError):
            decode_varstr(data)


class TestSections:
    def test_round_trip(self):
        data = frame_section(b"A", b"hello") + frame_section(b"B", b"")
        tag, payload, pos = read_section(data, 0)
        assert (tag, payload) == (b"A", b"hello")
        tag, payload, pos = read_section(data, pos)
        assert (tag, payload) == (b"B", b"")
        assert pos == len(data)
        assert [t for t, _ in iter_sections(data)] == [b"A", b"B"]

    def test_checksum_mismatch_not_torn(self):
        data = bytearray(frame_section(b"A", b"payload bytes"))
        data[7] ^= 0x40
        with pytest.raises(FormatError) as exc_info:
            read_section(bytes(data), 0)
        assert not exc_info.value.torn

    @pytest.mark.parametrize("cut", [1, 4, 8, -1])
    def test_truncation_is_torn(self, cut):
        data = frame_section(b"A", b"payload bytes")
        with pytest.raises(FormatError) as exc_info:
            read_section(data[:cut if cut > 0 else len(data) - 1], 0)
        assert exc_info.value.torn


class TestTermCodec:
    @settings(max_examples=120, deadline=None)
    @given(termzoo.terms)
    @termzoo.with_examples()
    def test_round_trip(self, term):
        out = bytearray()
        encode_term(out, term)
        decoded, pos = decode_term(bytes(out), 0)
        assert decoded == term
        assert pos == len(out)
        assert type(decoded) is type(term)

    def test_unknown_kind_rejected(self):
        with pytest.raises(FormatError):
            decode_term(b"\x00\x00", 0)


def _columns(triples):
    run = sorted(triples)
    return ([t[0] for t in run], [t[1] for t in run],
            [t[2] for t in run])


class TestTripleRuns:
    @settings(max_examples=80, deadline=None)
    @given(st.sets(st.tuples(st.integers(0, 500), st.integers(0, 500),
                             st.integers(0, 500)), max_size=120))
    def test_round_trip(self, triples):
        a, b, c = _columns(triples)
        payload = encode_sorted_triples(a, b, c)
        ra, rb, rc = decode_sorted_triples(payload, len(a))
        assert (ra.tolist(), rb.tolist(), rc.tolist()) == (a, b, c)

    def test_wide_ids_round_trip(self):
        # values crossing each of the 1/2/4/8-byte width tiers
        a = [0, 200, 70_000, 5_000_000_000]
        b = [5_000_000_001, 3, 70_001, 255]
        c = [65_535, 65_536, 1, 0]
        ra, rb, rc = decode_sorted_triples(
            encode_sorted_triples(a, b, c), 4)
        assert (ra.tolist(), rb.tolist(), rc.tolist()) == (a, b, c)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            encode_sorted_triples([2, 1], [0, 0], [0, 0])
        with pytest.raises(ValueError):
            encode_sorted_triples([1, 1], [0, -4], [0, 0])

    def test_length_mismatch_rejected(self):
        payload = encode_sorted_triples([1, 2], [3, 4], [5, 6])
        with pytest.raises(FormatError):
            decode_sorted_triples(payload, 3)
        with pytest.raises(FormatError) as exc_info:
            decode_sorted_triples(payload[:-1], 2)
        assert exc_info.value.torn

    def test_impossible_width_rejected(self):
        with pytest.raises(FormatError):
            decode_sorted_triples(b"\x03\x01\x01", 0)

    def test_delta_encoding_is_compact(self):
        # A dense sorted run should cost ~3 bytes per triple, far below
        # naive 3x fixed-width-64 encodings.
        run = sorted((s, p, s + p) for s in range(100) for p in range(5))
        a, b, c = _columns(run)
        payload = encode_sorted_triples(a, b, c)
        assert len(payload) < len(run) * 6
