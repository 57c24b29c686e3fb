"""Adversarial framing battery for :mod:`repro.wire.framing`.

The incremental decoder must survive everything a TCP stream can do to a
frame: tear it at any byte offset, flip CRC bits, lie about the length,
or trickle a multi-frame burst one byte at a time. No exception other
than a typed :class:`FrameError` may escape, every rejection must be
counted, and a poisoned decoder must stay dead.

The write-ahead log stores the same frames, so the hostile-bytes property
runs once more against a real segment file: junk ends in the clean prefix
or in the codec's typed error, never in a foreign exception.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pubsub.events import Notification
from repro.pubsub.wal import DurabilityManager, FileLogStore, encode_record
from repro.wire.codec import CODEC_VERSION, CodecError
from repro.wire.framing import (
    HEADER_SIZE,
    MAX_FRAME_SIZE,
    FrameCorruptionError,
    FrameDecoder,
    FrameError,
    FrameTooLargeError,
    encode_frame,
    split_frames,
)

PAYLOADS = [b"", b"x", b"hello wire", bytes(range(256)), b"z" * 4096]


# ---------------------------------------------------------------------------
# the happy path, shredded
# ---------------------------------------------------------------------------
def test_single_frame_round_trip():
    dec = FrameDecoder()
    assert dec.feed(encode_frame(b"payload")) == [b"payload"]
    assert dec.frames == 1
    assert dec.buffered == 0


def test_torn_frames_at_every_byte_offset():
    frame = encode_frame(b"torn-frame-payload")
    for cut in range(1, len(frame)):
        dec = FrameDecoder()
        assert dec.feed(frame[:cut]) == []
        assert dec.buffered == cut
        assert dec.feed(frame[cut:]) == [b"torn-frame-payload"]
        assert dec.buffered == 0
        assert dec.frames == 1


def test_concatenated_stream_fed_one_byte_at_a_time():
    stream = b"".join(encode_frame(p) for p in PAYLOADS)
    dec = FrameDecoder()
    out = []
    for i in range(len(stream)):
        out.extend(dec.feed(stream[i:i + 1]))
    assert out == PAYLOADS
    assert dec.frames == len(PAYLOADS)
    assert dec.bytes_in == len(stream)
    assert dec.buffered == 0


@settings(max_examples=50, deadline=None)
@given(
    payloads=st.lists(st.binary(max_size=200), min_size=1, max_size=8),
    chunk=st.integers(min_value=1, max_value=64),
)
def test_any_chunking_reassembles_any_stream(payloads, chunk):
    stream = b"".join(encode_frame(p) for p in payloads)
    dec = FrameDecoder()
    out = []
    for i in range(0, len(stream), chunk):
        out.extend(dec.feed(stream[i:i + chunk]))
    assert out == payloads


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------
def test_flipped_bit_anywhere_is_a_typed_error():
    """Flip one bit at every position of a frame; the decoder must raise a
    FrameError subclass (never anything else) or — when the flip lands in
    the length prefix and merely shortens/merges frames — stay in sync
    enough to reject the CRC."""
    frame = encode_frame(b"bit-flip-target") + encode_frame(b"second")
    for pos in range(len(frame)):
        for bit in range(8):
            mutated = bytearray(frame)
            mutated[pos] ^= 1 << bit
            dec = FrameDecoder(max_frame=1024)
            try:
                got = dec.feed(bytes(mutated))
            except FrameError:
                assert dec.dead
                assert dec.corrupt + dec.oversize == 1
            else:
                # a length-prefix flip can re-partition the stream; whatever
                # survives decoding must not silently equal the original
                assert got != [b"bit-flip-target", b"second"] or dec.buffered


def test_crc_mismatch_increments_counter_and_kills_decoder():
    frame = bytearray(encode_frame(b"payload"))
    frame[-1] ^= 0xFF
    dec = FrameDecoder()
    with pytest.raises(FrameCorruptionError):
        dec.feed(bytes(frame))
    assert dec.dead
    assert dec.corrupt == 1
    # poisoned: every further feed raises, buffers nothing
    with pytest.raises(FrameCorruptionError):
        dec.feed(b"more")
    assert dec.buffered == 0


def test_oversize_length_prefix_rejected_before_buffering_the_body():
    import struct

    header = struct.pack("<II", MAX_FRAME_SIZE + 1, 0)
    dec = FrameDecoder()
    with pytest.raises(FrameTooLargeError):
        dec.feed(header)
    assert dec.oversize == 1
    assert dec.dead
    assert dec.buffered == 0


def test_absurd_length_prefix_from_random_junk():
    dec = FrameDecoder(max_frame=64)
    with pytest.raises(FrameTooLargeError):
        dec.feed(b"\xff" * HEADER_SIZE)
    assert dec.oversize == 1


def test_encode_refuses_oversize_payload():
    with pytest.raises(FrameTooLargeError):
        encode_frame(b"x" * (MAX_FRAME_SIZE + 1))


@settings(max_examples=80, deadline=None)
@given(junk=st.binary(max_size=256))
def test_no_exception_escapes_the_framing_layer(junk):
    dec = FrameDecoder(max_frame=128)
    try:
        dec.feed(junk)
    except FrameError:
        assert dec.dead
    # anything else propagates and fails the test


_LOGGED = [
    ("pub", 1, Notification(7, 2, 0, 1500.0, 3.25)),
    ("ses", 2, 11, 0.0, 4.5, ()),
    ("dlv", 3, 11, 7),
    ("ack", 4, 11, 7),
]
_BOUNDARIES = [0]
for _rec in _LOGGED:
    _BOUNDARIES.append(_BOUNDARIES[-1] + len(encode_record(_rec)))


@settings(max_examples=120, deadline=None)
@given(
    junk=st.binary(max_size=96),
    at=st.sampled_from(["tail", "splice", "frame", "codec-frame"]),
    pos=st.integers(min_value=0, max_value=_BOUNDARIES[-1]),
)
def test_no_exception_escapes_a_log_segment(junk, at, pos):
    """The same junk, in a stored segment: appended to valid records,
    spliced into them, or checksummed into a frame of its own. Opening the
    store and replaying it ends with a clean record prefix on disk, or
    with the typed error and the file untouched."""
    blob = b"".join(encode_record(r) for r in _LOGGED)
    if at == "splice":
        blob = blob[:pos] + junk + blob[pos:]
    elif at == "tail":
        blob += junk
    else:
        lead = bytes([CODEC_VERSION]) if at == "codec-frame" else b""
        blob += encode_frame(lead + junk)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "b000", "seg000000.wal")
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            store = FileLogStore(root)
            state = DurabilityManager(None, store).replay()
        except (CodecError, FrameError):
            with open(path, "rb") as fh:
                assert fh.read() == blob
            return
        # anything else propagates and fails the test
        with open(path, "rb") as fh:
            kept = fh.read()
        assert blob.startswith(kept)
        assert state.torn_segments == 0
        floor = pos if at == "splice" else _BOUNDARIES[-1]
        assert len(kept) >= max(b for b in _BOUNDARIES if b <= floor)


def test_desynced_stream_dies_instead_of_resyncing():
    """Framing has no resync marker: one byte of junk ahead of a valid
    frame shifts the header window, and the decoder must reject the
    stream (here: the shifted bytes read as an oversize length) rather
    than hunt for the next plausible header."""
    frame = encode_frame(b"desync-victim")
    dec = FrameDecoder(max_frame=128)
    with pytest.raises(FrameError):
        dec.feed(b"\xff" + frame)
    assert dec.dead
    assert dec.corrupt + dec.oversize == 1


# ---------------------------------------------------------------------------
# counters + helpers
# ---------------------------------------------------------------------------
def test_counters_account_every_frame_and_byte():
    stream = b"".join(encode_frame(p) for p in PAYLOADS)
    dec = FrameDecoder()
    dec.feed(stream)
    assert dec.frames == len(PAYLOADS)
    assert dec.bytes_in == len(stream)
    assert dec.corrupt == 0 and dec.oversize == 0


def iter_frames(data: bytes, max_frame: int = MAX_FRAME_SIZE):
    """Decode a complete byte string of concatenated frames."""
    payloads, clean, err = split_frames(data, max_frame)
    yield from payloads
    if err is not None:
        raise err
    if clean != len(data):
        raise FrameCorruptionError(
            f"{len(data) - clean} trailing bytes after last frame")


def test_iter_frames_round_trip_and_trailing_byte_rejection():
    stream = b"".join(encode_frame(p) for p in PAYLOADS)
    assert list(iter_frames(stream)) == PAYLOADS
    with pytest.raises(FrameCorruptionError):
        list(iter_frames(stream + b"\x01"))
