"""Entropy-coded scan encode/decode — the *sequential* stage of the paper.

Baseline JPEG Huffman-codes each block as a DC size category (coded
differentially against the previous block of the same component) plus AC
(run, size) symbols with EOB/ZRL escapes.  Code words have variable
length, so the start of a symbol is only known once the previous symbol
is decoded — this is the data dependency that makes the stage sequential
(paper Section 1).

:class:`EntropyDecoder` is *restartable at MCU-row granularity*: the
pipelined executors decode one horizontal chunk at a time and need to
know how many compressed bytes each chunk consumed (that byte count
drives the simulated Huffman time and the re-partitioning density
correction of Eq. 16/17).

This per-symbol decoder is the **reference oracle**; the default decode
path is the fused fast-path engine in :mod:`repro.jpeg.fast_entropy`,
which is bit-exact with it (select with ``entropy_engine="reference"``
to run this one).  :class:`EntropyEncoder` here *is* the production
encoder — vectorized zig-zag, precomputed code/length arrays and a
single reused :class:`BitWriter` across restart intervals.
"""

from __future__ import annotations

import numpy as np

from ..errors import EntropyError, HuffmanError
from .bitstream import BitReader, BitWriter, HuffmanDecoder, HuffmanEncoder
from .blocks import ImageGeometry
# The shared containers live in .coefficients; importing them here
# keeps their old import path working.
from .coefficients import CoefficientBuffers, ComponentTables, dc_range_error
from .constants import EOB_SYMBOL, ZIGZAG_ORDER, ZRL_SYMBOL
from .huffman import extend, magnitude_category


class EntropyDecoder:
    """Sequential Huffman decoding of one baseline scan.

    Parameters
    ----------
    geometry : MCU-grid geometry of the frame.
    tables : one :class:`ComponentTables` per component, scan order.
    restart_interval : MCUs between restart markers (0 = none).
    """

    def __init__(
        self,
        geometry: ImageGeometry,
        tables: list[ComponentTables],
        restart_interval: int = 0,
    ) -> None:
        if len(tables) != len(geometry.components):
            raise EntropyError(
                f"{len(geometry.components)} components but "
                f"{len(tables)} table pairs"
            )
        self.geometry = geometry
        self.restart_interval = restart_interval
        self._dc_decoders = [HuffmanDecoder(t.dc) for t in tables]
        self._ac_decoders = [HuffmanDecoder(t.ac) for t in tables]
        self._reader: BitReader | None = None
        self._preds = [0] * len(tables)
        self._mcus_done = 0
        self._next_rst = 0
        self._row_byte_offsets: list[int] = [0]
        #: Allocated by :meth:`start`, once per decode.
        self.coefficients: CoefficientBuffers | None = None
        self._rows_done = 0

    # -- lifecycle ------------------------------------------------------

    def start(self, entropy_data: bytes, first_restart: int = 0) -> None:
        """Attach the raw scan bytes and reset all decoding state.

        *first_restart* is the index, within the whole scan, of the
        first restart marker in *entropy_data* (not 0 for a run of
        restart segments cut out of a longer scan)."""
        self._reader = BitReader(entropy_data)
        self._preds = [0] * len(self._preds)
        self._mcus_done = 0
        self._next_rst = first_restart & 7
        self._rows_done = 0
        self._row_byte_offsets = [0]
        self.coefficients = CoefficientBuffers.empty(self.geometry)

    @property
    def rows_decoded(self) -> int:
        """Number of complete MCU rows decoded so far."""
        return self._rows_done

    @property
    def finished(self) -> bool:
        return self._rows_done >= self.geometry.mcu_rows

    @property
    def row_byte_offsets(self) -> list[int]:
        """``row_byte_offsets[r]`` = compressed bytes consumed after *r*
        complete MCU rows.  Drives chunk timing and Eq. (17)."""
        return list(self._row_byte_offsets)

    # -- core decode ------------------------------------------------------

    def _decode_block(self, ci: int, out: np.ndarray) -> None:
        """Decode one block into *out* (a flat view of 64 int16)."""
        reader = self._reader
        dc_sym = self._dc_decoders[ci].decode(reader)
        if dc_sym > 11:
            raise EntropyError(f"DC category {dc_sym} out of range")
        diff = extend(reader.read_bits(dc_sym), dc_sym) if dc_sym else 0
        pred = self._preds[ci] = self._preds[ci] + diff
        if not -32768 <= pred <= 32767:
            raise dc_range_error(pred)
        out[0] = pred

        ac = self._ac_decoders[ci]
        zz = ZIGZAG_ORDER
        k = 1
        while k < 64:
            sym = ac.decode(reader)
            run, size = sym >> 4, sym & 0x0F
            if size == 0:
                if sym == EOB_SYMBOL:
                    break
                if sym == ZRL_SYMBOL:
                    k += 16
                    continue
                raise EntropyError(f"bad AC symbol {sym:#x}")
            k += run
            if k > 63:
                raise EntropyError("AC coefficient index overran the block")
            out[zz[k]] = extend(reader.read_bits(size), size)
            k += 1

    def decode_mcu_rows(self, nrows: int) -> int:
        """Decode up to *nrows* further MCU rows; return rows decoded.

        This is the chunk-granular entry point the pipelined executors
        call repeatedly (paper Section 4.5).
        """
        if self._reader is None:
            raise EntropyError("start() must be called before decoding")
        geo = self.geometry
        comps = geo.components
        target = min(self._rows_done + nrows, geo.mcu_rows)
        planes = self.coefficients.planes
        interval = self.restart_interval

        while self._rows_done < target:
            mrow = self._rows_done
            for mcol in range(geo.mcus_per_row):
                if interval and self._mcus_done and self._mcus_done % interval == 0:
                    n = self._reader.find_restart_marker()
                    if n != self._next_rst:
                        raise EntropyError(
                            f"restart marker out of sequence: RST{n}, "
                            f"expected RST{self._next_rst}"
                        )
                    self._next_rst = (self._next_rst + 1) & 7
                    self._preds = [0] * len(self._preds)
                for ci, comp in enumerate(comps):
                    for v in range(comp.v_factor):
                        brow = mrow * comp.v_factor + v
                        for h in range(comp.h_factor):
                            bcol = mcol * comp.h_factor + h
                            idx = brow * comp.blocks_wide + bcol
                            self._decode_block(ci, planes[ci][idx].reshape(-1))
                self._mcus_done += 1
            self._rows_done += 1
            self._row_byte_offsets.append(self._reader.byte_position)
        return self._rows_done

    def decode_all(self, entropy_data: bytes) -> CoefficientBuffers:
        """Convenience: start + decode every MCU row."""
        self.start(entropy_data)
        self.decode_mcu_rows(self.geometry.mcu_rows)
        return self.coefficients


class EntropyEncoder:
    """Huffman-encode quantized coefficient buffers into scan bytes.

    Vectorized form: the zig-zag permutation is applied to each whole
    coefficient plane in one numpy fancy-index, Huffman codes come from
    dense precomputed ``(code, length)`` arrays
    (:meth:`~repro.jpeg.bitstream.HuffmanEncoder.code_arrays`), and each
    block is emitted as one batched :meth:`BitWriter.write_pairs` call.
    A single writer lives for the whole scan; restart markers are
    emitted in place via :meth:`BitWriter.emit_marker` instead of
    allocating a fresh writer per interval.  The emitted bytes are
    identical to the historical per-symbol encoder.
    """

    def __init__(
        self,
        geometry: ImageGeometry,
        tables: list[ComponentTables],
        restart_interval: int = 0,
    ) -> None:
        if len(tables) != len(geometry.components):
            raise EntropyError("table/component count mismatch")
        self.geometry = geometry
        self.restart_interval = restart_interval
        self._dc_code_arrays = [HuffmanEncoder(t.dc).code_arrays() for t in tables]
        self._ac_code_arrays = [HuffmanEncoder(t.ac).code_arrays() for t in tables]

    def _block_pairs(self, zzblock: list[int], pred: int,
                     dc_codes: list[int], dc_lens: list[int],
                     ac_codes: list[int], ac_lens: list[int],
                     ) -> tuple[list[tuple[int, int]], int]:
        """(value, nbits) pairs for one zig-zag-ordered block; new pred."""
        pairs: list[tuple[int, int]] = []
        dc = zzblock[0]
        diff = dc - pred
        cat = (-diff if diff < 0 else diff).bit_length()
        length = dc_lens[cat]
        if length == 0:
            raise HuffmanError(f"symbol {cat:#x} not in table")
        pairs.append((dc_codes[cat], length))
        if cat:
            pairs.append((diff + (1 << cat) - 1 if diff < 0 else diff, cat))

        zrl_code, zrl_len = ac_codes[ZRL_SYMBOL], ac_lens[ZRL_SYMBOL]
        run = 0
        for k in range(1, 64):
            val = zzblock[k]
            if val == 0:
                run += 1
                continue
            while run > 15:
                if zrl_len == 0:
                    raise HuffmanError(f"symbol {ZRL_SYMBOL:#x} not in table")
                pairs.append((zrl_code, zrl_len))
                run -= 16
            cat = (-val if val < 0 else val).bit_length()
            if cat > 10:
                raise EntropyError(f"AC coefficient {val} too large to code")
            sym = (run << 4) | cat
            length = ac_lens[sym]
            if length == 0:
                raise HuffmanError(f"symbol {sym:#x} not in table")
            pairs.append((ac_codes[sym], length))
            pairs.append((val + (1 << cat) - 1 if val < 0 else val, cat))
            run = 0
        if run:
            if ac_lens[EOB_SYMBOL] == 0:
                raise HuffmanError(f"symbol {EOB_SYMBOL:#x} not in table")
            pairs.append((ac_codes[EOB_SYMBOL], ac_lens[EOB_SYMBOL]))
        return pairs, dc

    def encode(self, coefficients: CoefficientBuffers) -> bytes:
        """Serialize all MCUs; returns byte-stuffed scan data (no markers
        except interleaved RSTn when a restart interval is configured)."""
        geo = self.geometry
        comps = geo.components
        writer = BitWriter()
        write_pairs = writer.write_pairs
        block_pairs = self._block_pairs
        preds = [0] * len(comps)
        mcus_done = 0
        next_rst = 0
        interval = self.restart_interval

        flat_planes = [p.reshape(-1, 64) for p in coefficients.planes]

        for mrow in range(geo.mcu_rows):
            # One fancy-index per component per MCU row puts its blocks
            # in zig-zag order; .tolist() drops to plain ints for the
            # per-symbol loop.  Row-granular conversion keeps the
            # vectorized permutation without materializing the whole
            # image as Python lists.
            zz_rows = []
            for ci, comp in enumerate(comps):
                start = mrow * comp.v_factor * comp.blocks_wide
                stop = start + comp.v_factor * comp.blocks_wide
                zz_rows.append(
                    flat_planes[ci][start:stop][:, ZIGZAG_ORDER].tolist())
            for mcol in range(geo.mcus_per_row):
                if interval and mcus_done and mcus_done % interval == 0:
                    writer.emit_marker(0xD0 + next_rst)
                    next_rst = (next_rst + 1) & 7
                    preds = [0] * len(comps)
                for ci, comp in enumerate(comps):
                    dc_codes, dc_lens = self._dc_code_arrays[ci]
                    ac_codes, ac_lens = self._ac_code_arrays[ci]
                    zzp = zz_rows[ci]
                    hf, vf = comp.h_factor, comp.v_factor
                    pred = preds[ci]
                    for v in range(vf):
                        row = v * comp.blocks_wide + mcol * hf
                        for h in range(hf):
                            pairs, pred = block_pairs(
                                zzp[row + h], pred,
                                dc_codes, dc_lens, ac_codes, ac_lens)
                            write_pairs(pairs)
                    preds[ci] = pred
                mcus_done += 1
        writer.flush()
        return writer.getvalue()


def collect_symbol_frequencies(
    geometry: ImageGeometry,
    coefficients: CoefficientBuffers,
    restart_interval: int = 0,
) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """Count DC and AC symbol frequencies per component.

    Used to build optimized Huffman tables (the encoder's "-optimize"
    mode).  The walk mirrors :meth:`EntropyEncoder.encode` exactly —
    including MCU interleaving and DC-prediction resets at restart
    markers — so the counted symbols are precisely the emitted ones.
    """
    ncomp = len(geometry.components)
    dc_freqs: list[dict[int, int]] = [{} for _ in range(ncomp)]
    ac_freqs: list[dict[int, int]] = [{} for _ in range(ncomp)]
    preds = [0] * ncomp
    mcus_done = 0
    planes = coefficients.planes

    def count_block(ci: int, coefs: np.ndarray) -> None:
        dcf, acf = dc_freqs[ci], ac_freqs[ci]
        dc = int(coefs[0])
        cat = magnitude_category(dc - preds[ci])
        preds[ci] = dc
        dcf[cat] = dcf.get(cat, 0) + 1
        zz = coefs[ZIGZAG_ORDER]
        nzp = np.nonzero(zz[1:])[0]
        run_start = 1
        for pos in nzp + 1:
            run = int(pos) - run_start
            while run > 15:
                acf[ZRL_SYMBOL] = acf.get(ZRL_SYMBOL, 0) + 1
                run -= 16
            sym = (run << 4) | magnitude_category(int(zz[pos]))
            acf[sym] = acf.get(sym, 0) + 1
            run_start = int(pos) + 1
        if run_start <= 63:
            acf[EOB_SYMBOL] = acf.get(EOB_SYMBOL, 0) + 1

    for mrow in range(geometry.mcu_rows):
        for mcol in range(geometry.mcus_per_row):
            if restart_interval and mcus_done and mcus_done % restart_interval == 0:
                preds = [0] * ncomp
            for ci, comp in enumerate(geometry.components):
                for v in range(comp.v_factor):
                    brow = mrow * comp.v_factor + v
                    for h in range(comp.h_factor):
                        bcol = mcol * comp.h_factor + h
                        idx = brow * comp.blocks_wide + bcol
                        count_block(ci, planes[ci][idx].reshape(-1))
            mcus_done += 1
    return dc_freqs, ac_freqs
