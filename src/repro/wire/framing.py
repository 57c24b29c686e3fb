"""Length-prefixed CRC-framed records: the one byte framing of the repo.

Frame layout — the socket stream and the write-ahead log
(:mod:`repro.pubsub.wal`) both write exactly this, and this module is the
only one that knows the header::

    <u32 payload-length, little-endian> <u32 crc32(payload)> <payload>

:func:`split_frames` is the single parser. On a stream, wrap it in a
:class:`FrameDecoder`: feed it arbitrary byte chunks (a torn TCP read is
fine) and pull complete payloads out as they materialise. Corruption is
unrecoverable there by design — a stream with a bad CRC or an absurd
length prefix has lost sync, so the decoder latches into a dead state and
the owner must drop the connection. A stored segment has no peer to drop:
the log calls everything behind the clean prefix a torn tail and truncates
it. No exception other than :class:`FrameError` subclasses ever leaves
this module, and every rejection increments a typed counter so transports
can account the failure.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, List, Optional, Tuple

__all__ = [
    "HEADER_SIZE",
    "MAX_FRAME_SIZE",
    "FrameError",
    "FrameCorruptionError",
    "FrameTooLargeError",
    "FrameDecoder",
    "encode_frame",
    "split_frames",
]

_HDR = struct.Struct("<II")
HEADER_SIZE = _HDR.size

#: Hard ceiling on a single frame's payload. Generous for the wire
#: protocol's biggest frames (a migration batch of events is a few KiB) but
#: small enough that a corrupt length prefix cannot make a peer buffer GiBs.
MAX_FRAME_SIZE = 4 * 1024 * 1024


class FrameError(Exception):
    """Base class for framing failures. The stream is dead once raised."""


class FrameCorruptionError(FrameError):
    """CRC mismatch: the payload bytes do not match their checksum."""


class FrameTooLargeError(FrameError):
    """Length prefix exceeds the frame ceiling (corrupt or hostile peer)."""


def encode_frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in a ``<len><crc32>`` header."""
    if len(payload) > MAX_FRAME_SIZE:
        raise FrameTooLargeError(
            f"refusing to encode {len(payload)} byte frame "
            f"(ceiling {MAX_FRAME_SIZE})"
        )
    return _HDR.pack(len(payload), zlib.crc32(payload)) + payload


def split_frames(
    buf: bytes, max_frame: int = MAX_FRAME_SIZE
) -> Tuple[List[bytes], int, Optional[FrameError]]:
    """Split the clean prefix of ``buf`` into payloads, without latching.

    Returns ``(payloads, clean, error)``: ``clean`` is the byte length of
    the complete, checksum-valid frames at the front of ``buf``. What lies
    behind it is either an incomplete frame (``error`` is ``None`` — a
    stream waits for more bytes, a stored segment calls it a torn tail) or
    a frame that can never become valid (``error`` is the
    :class:`FrameError` to raise or count).
    """
    payloads: List[bytes] = []
    off, n = 0, len(buf)
    while n - off >= HEADER_SIZE:
        length, crc = _HDR.unpack_from(buf, off)
        if length > max_frame:
            return payloads, off, FrameTooLargeError(
                f"frame length {length} exceeds ceiling {max_frame}")
        end = off + HEADER_SIZE + length
        if end > n:
            break
        payload = bytes(buf[off + HEADER_SIZE:end])
        if zlib.crc32(payload) != crc:
            return payloads, off, FrameCorruptionError(
                f"crc mismatch on {length} byte frame")
        payloads.append(payload)
        off = end
    return payloads, off, None


class FrameDecoder:
    """Incremental frame decoder for one stream.

    ``feed(chunk)`` returns the list of payloads completed by that chunk.
    Partial frames stay buffered across calls. After the first
    :class:`FrameError` the decoder is *dead*: further feeds raise the same
    error class immediately — the caller must close the connection rather
    than attempt resync.

    Counters (``frames``, ``bytes_in``, ``corrupt``, ``oversize``) let the
    owning transport account rejections in its shed/fault ledgers.
    """

    __slots__ = ("_buf", "_dead", "max_frame", "frames", "bytes_in",
                 "corrupt", "oversize")

    def __init__(self, max_frame: int = MAX_FRAME_SIZE) -> None:
        self._buf = bytearray()
        self._dead: Optional[FrameError] = None
        self.max_frame = max_frame
        self.frames = 0
        self.bytes_in = 0
        self.corrupt = 0
        self.oversize = 0

    @property
    def dead(self) -> bool:
        return self._dead is not None

    @property
    def buffered(self) -> int:
        """Bytes held for a not-yet-complete frame (torn-read detector)."""
        return len(self._buf)

    def feed(self, chunk: bytes) -> List[bytes]:
        if self._dead is not None:
            raise type(self._dead)(str(self._dead))
        self.bytes_in += len(chunk)
        buf = self._buf
        buf += chunk
        payloads, clean, err = split_frames(buf, self.max_frame)
        self.frames += len(payloads)
        if err is not None:
            if isinstance(err, FrameTooLargeError):
                self.oversize += 1
            else:
                self.corrupt += 1
            self._dead = err
            buf.clear()
            raise err
        del buf[:clean]
        return payloads


def iter_frames(data: bytes, max_frame: int = MAX_FRAME_SIZE) -> Iterator[bytes]:
    """Decode a complete byte string of concatenated frames (tests, tools)."""
    payloads, clean, err = split_frames(data, max_frame)
    yield from payloads
    if err is not None:
        raise err
    if clean != len(data):
        raise FrameCorruptionError(
            f"{len(data) - clean} trailing bytes after last frame")
