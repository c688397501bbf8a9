"""JFIF/JPEG marker-segment parsing (paper Section 2).

A JPEG file is a sequence of marker segments (SOI, APP0, DQT, SOF0, DHT,
optional DRI, SOS) followed by the entropy-coded scan and EOI.  This
module parses that structure into :class:`JpegImageInfo` — including the
raw entropy-coded bytes, whose length drives the paper's entropy-density
model (Eq. 3); the encoder writes the segments back
(:mod:`repro.jpeg.encoder`).
:func:`walk_header` reads only the frame-level facts, up to the first
SOS header, into a :class:`FrameInfo`: what placing a decode needs (the
paper's model inputs are the frame's width and height and the file
size), without decoding a table or touching the scan.

The header records are named tuples: immutable, compared by value, and
cheap to define on a cold start.
"""

from __future__ import annotations

import re
import struct
from collections.abc import Iterator
from typing import NamedTuple

from ..errors import JpegFormatError, JpegUnsupportedError
from . import constants as C
from .blocks import ImageGeometry
from .huffman import HuffmanSpec
from .quantization import QuantTable, parse_dqt_payload


class FrameComponent(NamedTuple):
    """One component entry of a SOF0 header."""

    component_id: int
    h_factor: int
    v_factor: int
    quant_table_id: int


class FrameHeader(NamedTuple):
    """Parsed SOF0 (baseline) or SOF2 (progressive) DCT header."""

    precision: int
    height: int
    width: int
    components: tuple[FrameComponent, ...]
    #: True for a SOF2 progressive frame (multi-scan entropy data).
    progressive: bool = False

    @property
    def subsampling_mode(self) -> str:
        """Infer the JFIF subsampling notation from sampling factors."""
        if len(self.components) == 1:
            return "4:4:4"  # grayscale decodes like unsubsampled
        if len(self.components) not in (3, 4):
            raise JpegUnsupportedError(
                f"{len(self.components)}-component images are unsupported"
            )
        luma = self.components[0]
        chroma = self.components[1:3]
        if any(c.h_factor != 1 or c.v_factor != 1 for c in chroma):
            raise JpegUnsupportedError(
                "chroma sampling factors other than 1x1 are unsupported"
            )
        if len(self.components) == 4:
            k = self.components[3]
            if (k.h_factor, k.v_factor) != (luma.h_factor, luma.v_factor):
                raise JpegUnsupportedError(
                    "fourth-component sampling factors must match luma"
                )
        key = (luma.h_factor, luma.v_factor)
        modes = {(1, 1): "4:4:4", (2, 1): "4:2:2", (2, 2): "4:2:0",
                 (4, 1): "4:1:1", (1, 2): "4:4:0"}
        if key not in modes:
            raise JpegUnsupportedError(f"luma sampling factors {key} unsupported")
        return modes[key]


class ScanComponent(NamedTuple):
    """One component entry of a SOS header."""

    component_id: int
    dc_table_id: int
    ac_table_id: int


class ScanHeader(NamedTuple):
    """Parsed SOS header.

    Baseline scans carry the fixed (Ss, Se, Ah, Al) = (0, 63, 0, 0);
    progressive scans select a spectral band [Ss, Se] and a successive
    approximation stage (Ah = previous point transform, Al = current).
    """

    components: tuple[ScanComponent, ...]
    ss: int = 0
    se: int = 63
    ah: int = 0
    al: int = 0

    @property
    def is_dc(self) -> bool:
        """True for a DC scan (spectral band starts at coefficient 0)."""
        return self.ss == 0

    @property
    def refining(self) -> bool:
        """True for a successive-approximation refinement pass."""
        return self.ah != 0


class ScanInfo(NamedTuple):
    """One entropy-coded scan with the table state active at its SOS.

    Progressive streams may redefine Huffman tables between scans, so
    each scan snapshots the DC/AC table dictionaries as they stood when
    its SOS marker was parsed.
    """

    header: ScanHeader
    entropy: bytes
    dc_tables: "dict[int, HuffmanSpec]"
    ac_tables: "dict[int, HuffmanSpec]"
    restart_interval: int
    #: False when the stream ended mid-scan with no terminating marker
    #: (only reachable via ``parse_jpeg(..., tolerant=True)``): the
    #: entropy data runs to EOF and a decode of it is best-effort.
    terminated: bool = True


class _FrameFacts:
    """What a frame header and the file's size say about an image —
    shared by :class:`FrameInfo` and :class:`JpegImageInfo`."""

    __slots__ = ()

    @property
    def width(self) -> int:
        return self.frame.width

    @property
    def height(self) -> int:
        return self.frame.height

    @property
    def progressive(self) -> bool:
        return self.frame.progressive

    @property
    def subsampling_mode(self) -> str:
        return self.frame.subsampling_mode

    @property
    def geometry(self) -> ImageGeometry:
        return ImageGeometry(self.width, self.height, self.subsampling_mode,
                             ncomponents=len(self.frame.components))

    @property
    def file_density(self) -> float:
        """Eq. (3): d = ImageFileSize / (w * h)."""
        return self.file_size / float(self.width * self.height)


class _FrameInfo(NamedTuple):
    frame: FrameHeader
    #: The DRI in force at the first scan (0 = no restart markers).
    restart_interval: int
    file_size: int
    #: Adobe APP14 color-transform code seen before the first scan.
    adobe_transform: int | None = None


class FrameInfo(_FrameInfo, _FrameFacts):
    """A stream's frame-level facts as :func:`walk_header` reads them,
    up to the first SOS header."""

    __slots__ = ()


class _JpegImageInfo(NamedTuple):
    frame: FrameHeader
    scan: ScanHeader
    quant_tables: dict[int, QuantTable]
    dc_tables: dict[int, HuffmanSpec]
    ac_tables: dict[int, HuffmanSpec]
    restart_interval: int
    entropy_data: bytes
    file_size: int
    comments: list[bytes]
    #: Every entropy-coded scan in stream order (baseline: exactly one).
    scans: list[ScanInfo]
    #: Adobe APP14 color-transform code (0 = plain/CMYK, 1 = YCbCr,
    #: 2 = YCCK); None when no Adobe marker is present.
    adobe_transform: int | None
    #: Container faults survived by a tolerant parse (empty for strict
    #: parses, which raise instead): the salvage decode path folds
    #: these into :attr:`~repro.jpeg.decoder.DecodedImage.errors`.
    parse_errors: list[str]


class JpegImageInfo(_JpegImageInfo, _FrameFacts):
    """Everything parsed from a baseline JPEG file.

    ``entropy_data`` holds the raw (still byte-stuffed) scan bytes; its
    length is the paper's "entropy data size" and, divided by w*h, the
    entropy density *d* of Eq. (3).
    """

    __slots__ = ()


def _read_u16(data: bytes, pos: int) -> int:
    if pos + 2 > len(data):
        raise JpegFormatError("truncated length field")
    return struct.unpack_from(">H", data, pos)[0]


def parse_sof0_payload(payload: bytes,
                       progressive: bool = False) -> FrameHeader:
    """Parse the payload of a SOF0 (or, with *progressive*, SOF2) segment."""
    if len(payload) < 6:
        raise JpegFormatError("SOF0 payload too short")
    precision, height, width, ncomp = struct.unpack_from(">BHHB", payload, 0)
    if precision != 8:
        raise JpegUnsupportedError(f"{precision}-bit precision unsupported")
    if height == 0 or width == 0:
        raise JpegFormatError("zero image dimension in SOF0")
    if len(payload) != 6 + 3 * ncomp:
        raise JpegFormatError("SOF0 component list length mismatch")
    comps = []
    for i in range(ncomp):
        cid, hv, tq = struct.unpack_from(">BBB", payload, 6 + 3 * i)
        comps.append(
            FrameComponent(
                component_id=cid, h_factor=hv >> 4, v_factor=hv & 0x0F,
                quant_table_id=tq,
            )
        )
    return FrameHeader(precision=precision, height=height, width=width,
                       components=tuple(comps), progressive=progressive)


def parse_dht_payload(payload: bytes
                      ) -> list[tuple[int, int, HuffmanSpec]]:
    """Parse a DHT segment payload (may define several tables) into
    ``(table_class, table_id, spec)`` triples; class 0 is DC, 1 AC."""
    tables: list[tuple[int, int, HuffmanSpec]] = []
    pos = 0
    while pos < len(payload):
        if pos + 17 > len(payload):
            raise JpegFormatError("truncated DHT header")
        tc_th = payload[pos]
        table_class, table_id = tc_th >> 4, tc_th & 0x0F
        if table_class > 1 or table_id > 3:
            raise JpegFormatError(f"bad DHT class/id {tc_th:#x}")
        bits = tuple(payload[pos + 1: pos + 17])
        nvals = sum(bits)
        pos += 17
        if pos + nvals > len(payload):
            raise JpegFormatError("truncated DHT values")
        values = tuple(payload[pos: pos + nvals])
        pos += nvals
        tables.append((table_class, table_id, HuffmanSpec(bits, values)))
    return tables


def parse_sos_payload(payload: bytes,
                      progressive: bool = False) -> ScanHeader:
    """Parse a SOS header payload.

    Baseline scans must carry (Ss, Se, AhAl) = (0, 63, 0); progressive
    scans are validated against T.81 G.1: a scan covers either the DC
    coefficient alone or a pure AC band of a single component, and a
    refinement pass advances the point transform by exactly one bit.
    """
    if len(payload) < 1:
        raise JpegFormatError("empty SOS payload")
    ncomp = payload[0]
    if len(payload) != 1 + 2 * ncomp + 3:
        raise JpegFormatError("SOS payload length mismatch")
    comps = []
    for i in range(ncomp):
        cid = payload[1 + 2 * i]
        tables = payload[2 + 2 * i]
        comps.append(
            ScanComponent(component_id=cid, dc_table_id=tables >> 4,
                          ac_table_id=tables & 0x0F)
        )
    ss, se, ahal = payload[-3], payload[-2], payload[-1]
    if not progressive:
        if (ss, se, ahal) != (0, 63, 0):
            raise JpegUnsupportedError("non-baseline spectral selection in SOS")
        return ScanHeader(components=tuple(comps))
    ah, al = ahal >> 4, ahal & 0x0F
    if ss == 0:
        if se != 0:
            raise JpegFormatError(
                "progressive scan mixes DC and AC coefficients")
    else:
        if not ss <= se <= 63:
            raise JpegFormatError(
                f"bad progressive spectral band [{ss}, {se}]")
        if ncomp != 1:
            raise JpegFormatError(
                "progressive AC scans must cover exactly one component")
    if al > 13:
        raise JpegFormatError(f"point transform {al} out of range")
    if ah != 0 and ah != al + 1:
        raise JpegFormatError(
            "successive approximation must refine exactly one bit")
    return ScanHeader(components=tuple(comps), ss=ss, se=se, ah=ah, al=al)


#: A marker that ends entropy-coded data: 0xFF followed by anything but
#: a stuffed zero or an RSTn.  A fill 0xFF is followed by another 0xFF,
#: so the first of a run matches; a lone 0xFF at the end matches nothing.
_SCAN_END = re.compile(rb"\xff[^\x00\xd0-\xd7]")


def _find_scan_end(data: bytes, start: int,
                   tolerant: bool = False) -> int:
    """Return the index just past the entropy-coded data beginning at
    *start* (i.e. the position of the terminating non-RST marker).

    *tolerant* accepts a stream that simply ends mid-scan (truncation)
    and returns ``len(data)``; the scan is then flagged unterminated
    and a decode of it is best-effort (the salvage path)."""
    end = _SCAN_END.search(data, start)
    if end is not None:
        return end.start()
    if tolerant:
        return len(data)
    raise JpegFormatError("entropy-coded data not terminated by a marker")


def _check_segment_marker(marker: int) -> None:
    """Raise for a marker that cannot open a segment where one is due:
    a second SOI, a coding mode this decoder refuses, or a stray code."""
    if marker == C.SOI:
        raise JpegFormatError("unexpected second SOI")
    if marker in C.UNSUPPORTED_SOF or marker == C.DAC:
        name = C.SOF_MODE_NAMES.get(marker, "non-baseline mode")
        raise JpegUnsupportedError(
            f"unsupported JPEG mode: {name} (marker 0xFF{marker:02X})"
        )
    if marker not in C.SEGMENT_MARKERS:
        raise JpegFormatError(f"unexpected marker 0xFF{marker:02X}")


class _SegmentWalk:
    """The one walk over a stream's marker segments, from SOI on.

    Iterating yields ``(marker, start, end)`` for each segment, whose
    payload is ``data[start:end]``, after the fill-byte, marker and
    length checks, and reads the frame-level segments on the way:
    SOF0/SOF2 into :attr:`frame`, DRI into :attr:`restart_interval`,
    Adobe APP14 into :attr:`adobe_transform` and each SOS header into
    :attr:`scan`.  It ends at EOI or at the end of the data.

    :attr:`pos` is where the walk stands, the offset a tolerant parse
    reports.  The walk does not know where entropy data ends: a
    consumer that reads a scan moves :attr:`pos` past it before asking
    for the next segment, and one that stops at the first SOS never
    searches for the scan end at all.
    """

    def __init__(self, data: bytes) -> None:
        if len(data) < 4 or data[0] != 0xFF or data[1] != C.SOI:
            raise JpegFormatError("missing SOI marker")
        self.data = data
        self.pos = 2
        self.frame: FrameHeader | None = None
        self.restart_interval = 0
        self.adobe_transform: int | None = None
        self.scan: ScanHeader | None = None

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        data, n = self.data, len(self.data)
        while self.pos < n:
            pos = self.pos
            if data[pos] != 0xFF:
                raise JpegFormatError(f"expected marker at offset {pos}")
            while pos < n and data[pos] == 0xFF:    # fill bytes
                pos += 1
            if pos >= n:
                self.pos = pos
                raise JpegFormatError("truncated marker")
            marker = data[pos]
            self.pos = pos = pos + 1
            if marker == C.EOI:
                return
            _check_segment_marker(marker)
            length = _read_u16(data, pos)
            if length < 2 or pos + length > n:
                raise JpegFormatError("bad segment length")
            self.pos = end = pos + length
            self._read(marker, pos + 2, end)
            yield marker, pos + 2, end

    def _read(self, marker: int, start: int, end: int) -> None:
        """Read a frame-level segment into the walk's state; step over
        any other."""
        data = self.data
        if marker == C.SOF0 or marker == C.SOF2:
            if self.frame is not None:
                raise JpegFormatError("multiple SOF0 segments")
            self.frame = parse_sof0_payload(data[start:end],
                                            progressive=marker == C.SOF2)
        elif marker == C.DRI:
            if end - start != 2:
                raise JpegFormatError("bad DRI payload")
            self.restart_interval = _read_u16(data, start)
        elif marker == C.APP14 and end - start >= 12 \
                and data.startswith(b"Adobe", start):
            self.adobe_transform = data[start + 11]
        elif marker == C.SOS:
            if self.frame is None:
                raise JpegFormatError("SOS before SOF")
            if self.scan is not None and not self.frame.progressive:
                raise JpegUnsupportedError(
                    "multi-scan sequential JPEGs are unsupported")
            self.scan = parse_sos_payload(data[start:end],
                                          progressive=self.frame.progressive)

    def missing(self) -> JpegFormatError:
        """What a stream whose walk ended before any scan lacks."""
        return JpegFormatError("missing SOF0" if self.frame is None
                               else "missing SOS / entropy data")


def walk_header(data: bytes) -> FrameInfo:
    """Read *data*'s frame-level facts: walk its segments from SOI to
    the first SOS header, reading SOF0/SOF2, DRI, Adobe APP14 and that
    SOS header and stepping over everything else by its length.

    No DQT or DHT is decoded, no scan end searched and no entropy byte
    copied, so the walk costs a few segment hops whatever the image's
    size.  It is the walk :func:`parse_jpeg` takes, so it raises what
    that raises for the markers, lengths, frame and scan header it
    passes; damage it does not look at — a table, the scan, anything
    behind the first SOS — is left for the decode to report."""
    walk = _SegmentWalk(data)
    for marker, _, _ in walk:
        if marker == C.SOS:
            return FrameInfo(frame=walk.frame,
                             restart_interval=walk.restart_interval,
                             file_size=len(data),
                             adobe_transform=walk.adobe_transform)
    raise walk.missing()


def parse_jpeg(data: bytes, tolerant: bool = False) -> JpegImageInfo:
    """Parse a baseline or progressive JFIF byte stream.

    *tolerant* parses best-effort for the salvage decode path: entropy
    data that runs to EOF without a terminating marker is accepted (the
    affected :class:`ScanInfo` is flagged unterminated), and damage to
    the container *after* the first complete scan — a corrupted DHT
    between progressive scans, a misparsing SOS — stops the parse there
    instead of raising, returning the scans already recovered with the
    fault recorded in :attr:`JpegImageInfo.parse_errors`."""
    walk = _SegmentWalk(data)
    quant: dict[int, QuantTable] = {}
    dc: dict[int, HuffmanSpec] = {}
    ac: dict[int, HuffmanSpec] = {}
    comments: list[bytes] = []
    scans: list[ScanInfo] = []
    parse_errors: list[str] = []
    try:
        for marker, start, end in walk:
            if marker == C.DQT:
                for t in parse_dqt_payload(data[start:end]):
                    quant[t.table_id] = t
            elif marker == C.DHT:
                for table_class, table_id, spec in parse_dht_payload(
                        data[start:end]):
                    (dc if table_class == 0 else ac)[table_id] = spec
            elif marker == C.COM:
                comments.append(data[start:end])
            elif marker == C.SOS:
                stop = _find_scan_end(data, end, tolerant=tolerant)
                scans.append(ScanInfo(
                    header=walk.scan, entropy=data[end:stop],
                    dc_tables=dict(dc), ac_tables=dict(ac),
                    restart_interval=walk.restart_interval,
                    terminated=stop < len(data)))
                walk.pos = stop
            # APPn and other segments are skipped
    except (JpegFormatError, JpegUnsupportedError) as exc:
        if not (tolerant and walk.frame is not None and scans):
            raise
        # Best-effort: container damage after the first complete scan
        # ends the parse; everything recovered so far stands.
        parse_errors.append(
            f"header parse stopped at offset {walk.pos}: {exc}")

    if not scans:
        raise walk.missing()
    frame = walk.frame
    for comp in frame.components:
        if comp.quant_table_id not in quant:
            raise JpegFormatError(
                f"component {comp.component_id} references missing "
                f"quant table {comp.quant_table_id}"
            )
    scans = _usable_scans(scans, tolerant, parse_errors)
    return JpegImageInfo(
        frame=frame, scan=scans[0].header, quant_tables=quant, dc_tables=dc,
        ac_tables=ac, restart_interval=walk.restart_interval,
        entropy_data=b"".join(si.entropy for si in scans),
        file_size=len(data), comments=comments, scans=scans,
        adobe_transform=walk.adobe_transform, parse_errors=parse_errors,
    )


def _usable_scans(scans: list[ScanInfo], tolerant: bool,
                  parse_errors: list[str]) -> list[ScanInfo]:
    """*scans* up to the first that references a Huffman table not
    defined at its SOS: that one raises, or, in a tolerant parse that
    has a usable scan before it, is dropped with everything after it
    (later scans refine the same broken table state) and recorded in
    *parse_errors*."""
    usable: list[ScanInfo] = []
    for si in scans:
        h = si.header
        needs_dc = h.is_dc and not h.refining
        needs_ac = h.se > 0
        for sc in h.components:
            if (needs_dc and sc.dc_table_id not in si.dc_tables) \
                    or (needs_ac and sc.ac_table_id not in si.ac_tables):
                fault = JpegFormatError(
                    f"scan component {sc.component_id} references missing "
                    "Huffman table"
                )
                if not tolerant or not usable:
                    raise fault
                parse_errors.append(f"scan {len(usable)} dropped: {fault}")
                return usable
        usable.append(si)
    return usable

