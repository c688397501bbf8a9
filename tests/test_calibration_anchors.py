"""Calibration anchors: the stage-ratio facts the paper reports must hold
on the simulated platform (DESIGN.md §2's substitution contract).

Most checks run on the paper's reference workload: a 2048x2048 4:2:2
image at a typical entropy density, in pricing mode (no pixel math).
The figure anchors below them sweep a size ladder (Figures 6, 11) or
the entropy density (Figure 7), and the table anchors average over a
small real encoded corpus (Tables 2, 3): each is the claim its figure
or table makes, checked at the bound the paper's shape allows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DecodeMode, HeterogeneousDecoder, PreparedImage
from repro.core.modes import EVALUATED_MODES
from repro.data import CorpusSpec, build_corpus
from repro.gpusim import calibrate
from repro.evaluation import (
    amdahl_series,
    balance_series,
    measure_corpus,
    platforms,
    prepare_corpus,
    summarize_speedups,
)

W = H = 2048
DENSITY = 0.22  # mid-range of Figure 7's x-axis


@pytest.fixture(scope="module")
def results():
    """All-mode results for the reference image on all three machines."""
    prep = PreparedImage.virtual(W, H, "4:2:2", DENSITY)
    out = {}
    for plat in platforms.ALL_PLATFORMS:
        dec = HeterogeneousDecoder.for_platform(plat)
        out[plat.name] = {m: dec.decode(prep, m) for m in DecodeMode}
    return out


class TestCpuAnchors:
    def test_simd_twice_as_fast_as_sequential(self, results):
        """Section 1: 'the SIMD-version decodes an image twice as fast as
        the sequential version on an Intel i7' — on all three machines
        (Figure 9's first two bars)."""
        for name, r in results.items():
            ratio = (r[DecodeMode.SEQUENTIAL].total_us
                     / r[DecodeMode.SIMD].total_us)
            assert 1.7 < ratio < 2.4, name

    def test_huffman_is_large_fraction_of_simd(self, results):
        """Section 4.5: Huffman ~ half the SIMD decode time (density-
        dependent; 35-55% across the Figure 7 range)."""
        r = results["GTX 560"][DecodeMode.SIMD]
        frac = r.breakdown["huffman"] / r.total_us
        assert 0.35 < frac < 0.55

    def test_huffman_rate_in_figure7_range(self):
        """Figure 7: 1-6 ns/pixel over densities 0.05-0.45."""
        for d in (0.05, 0.45):
            us = calibrate.huffman_time_us(W * H, int(d * W * H),
                                           platforms.GTX560.cpu)
            ns_per_px = us * 1e3 / (W * H)
            assert 0.8 < ns_per_px < 7.0


class TestGpuAnchors:
    def test_kernels_much_faster_than_simd_parallel_phase(self, results):
        """Section 6.1: kernel-only ~10x SIMD on GTX 560, ~13.7x on
        GTX 680 (we accept 6-20x: the shape is 'order of magnitude')."""
        for name, lo in (("GTX 560", 5.0), ("GTX 680", 7.0)):
            r = results[name]
            simd_par = (r[DecodeMode.SIMD].total_us
                        - r[DecodeMode.SIMD].breakdown["huffman"])
            kernels = r[DecodeMode.GPU].breakdown.get("kernel", 0.0)
            assert simd_par / kernels > lo

    def test_transfers_erode_gpu_advantage(self, results):
        """Section 6.1: with transfers the advantage drops to ~2.6x
        (GTX 560) / ~4.3x (GTX 680)."""
        for name, lo, hi in (("GTX 560", 1.8, 4.5), ("GTX 680", 2.5, 6.5)):
            r = results[name]
            simd_par = (r[DecodeMode.SIMD].total_us
                        - r[DecodeMode.SIMD].breakdown["huffman"])
            b = r[DecodeMode.GPU].breakdown
            gpu_par = (b.get("kernel", 0) + b.get("write", 0)
                       + b.get("read", 0))
            assert lo < simd_par / gpu_par < hi

    def test_gpu_mode_faster_than_simd_on_gtx560_and_gtx680(self, results):
        """Figure 9: GPU mode totals under 0.75 (GTX 560) and 0.70
        (GTX 680) of the SIMD total."""
        for name, hi in (("GTX 560", 0.75), ("GTX 680", 0.70)):
            r = results[name]
            assert (r[DecodeMode.GPU].total_us
                    / r[DecodeMode.SIMD].total_us) < hi, name

    def test_gt430_gpu_mode_slower_than_simd(self, results):
        """Section 6.1: 23% slow-down on GT 430 (we accept 10-50%)."""
        r = results["GT 430"]
        ratio = r[DecodeMode.GPU].total_us / r[DecodeMode.SIMD].total_us
        assert 1.10 < ratio < 1.55


class TestModeOrdering:
    def test_pps_best_everywhere(self, results):
        """Section 6.2: 'PPS achieves the highest performance on all
        machines'."""
        for name, modes in results.items():
            best = min(modes.values(), key=lambda r: r.total_us)
            assert modes[DecodeMode.PPS].total_us <= best.total_us * 1.02, name

    def test_pipeline_beats_plain_gpu(self, results):
        """Section 6.2: 'pipelined execution is always faster than a
        single large GPU kernel invocation'."""
        for name, modes in results.items():
            assert (modes[DecodeMode.PIPELINE].total_us
                    <= modes[DecodeMode.GPU].total_us * 1.001), name

    def test_partitioning_beats_simd_on_all_machines(self, results):
        """Figure 10 / Tables 2-3: SPS and PPS > 1x over SIMD even on
        the weak GT 430."""
        for name, modes in results.items():
            simd = modes[DecodeMode.SIMD].total_us
            assert modes[DecodeMode.SPS].total_us < simd, name
            assert modes[DecodeMode.PPS].total_us < simd, name

    def test_speedups_in_paper_band(self, results):
        """Table 2 at the reference size: PPS ~1.5x / ~2.3x / ~2.5x on
        GT 430 / GTX 560 / GTX 680 (wide bands: single image, not the
        corpus mean)."""
        bands = {"GT 430": (1.1, 2.0), "GTX 560": (1.8, 2.9),
                 "GTX 680": (1.9, 3.2)}
        for name, (lo, hi) in bands.items():
            modes = results[name]
            speedup = (modes[DecodeMode.SIMD].total_us
                       / modes[DecodeMode.PPS].total_us)
            assert lo < speedup < hi, f"{name}: {speedup:.2f}"

    def test_gtx680_fastest_gtx430_slowest(self, results):
        pps = {n: r[DecodeMode.PPS].total_us for n, r in results.items()}
        assert pps["GTX 680"] < pps["GTX 560"] < pps["GT 430"]


class TestAmdahlAnchor:
    def test_pps_near_theoretical_bound(self, results):
        """Figure 11: PPS reaches ~88% of Ttotal/THuff on GTX 680 at
        large sizes (we accept >70%)."""
        r = results["GTX 680"]
        simd = r[DecodeMode.SIMD]
        bound = simd.total_us / simd.breakdown["huffman"]
        achieved = simd.total_us / r[DecodeMode.PPS].total_us
        assert achieved / bound > 0.70
        assert achieved / bound <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# Figures 6, 7, 10, 11, 12: sweeps over size and entropy density.
# ---------------------------------------------------------------------------

#: The figures' x-axis: square images, 256 to 2048 pixels a side.
SWEEP_SIDES = (256, 384, 512, 768, 1024, 1536, 2048)

#: Mid-range entropy density of the sweeps (Figure 7's typical region).
SWEEP_DENSITY = 0.20


def sweep(subsampling):
    return [PreparedImage.virtual(s, s, subsampling, SWEEP_DENSITY)
            for s in SWEEP_SIDES]


def r_squared(x, y):
    """Coefficient of determination of the least-squares line."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    pred = np.polyval(np.polyfit(x, y, 1), x)
    return 1 - ((y - pred) ** 2).sum() / ((y - y.mean()) ** 2).sum()


class TestFigureAnchors:
    @pytest.mark.parametrize("subsampling", ["4:2:2", "4:4:4"])
    def test_parallel_phase_linear_in_pixels(self, subsampling):
        """Figure 6: on the GTX 560 the SIMD and GPU parallel phases
        scale linearly with image size."""
        dec = HeterogeneousDecoder.for_platform(platforms.GTX560)
        pixels, simd_par, gpu_par = [], [], []
        for prep in sweep(subsampling):
            simd = dec.decode(prep, DecodeMode.SIMD)
            b = dec.decode(prep, DecodeMode.GPU).breakdown
            pixels.append(prep.geometry.width * prep.geometry.height)
            simd_par.append(simd.total_us - simd.breakdown["huffman"])
            gpu_par.append(b.get("kernel", 0) + b.get("write", 0)
                           + b.get("read", 0))
        assert r_squared(pixels, simd_par) > 0.999
        assert r_squared(pixels, gpu_par) > 0.995

    def test_huffman_rate_linear_in_density(self):
        """Figure 7: the Huffman rate is linear in the entropy density,
        within the 1-6 ns/pixel band, and the Eq 4 fit the model uses
        agrees with the simulator within 5%."""
        dec = HeterogeneousDecoder.for_platform(platforms.GTX560)
        model = dec.model_for("4:2:2")
        side = 1024
        d = np.array([0.02, 0.05, 0.08, 0.12, 0.16, 0.20, 0.25, 0.30, 0.35,
                      0.40, 0.45])
        rate = np.array([
            dec.decode(PreparedImage.virtual(side, side, "4:2:2", x),
                       DecodeMode.SIMD).breakdown["huffman"] * 1e3
            / (side * side) for x in d])
        fit = [model.t_huff(side, side, x) * 1e3 / (side * side) for x in d]
        assert rate.min() > 0.5 and rate.max() < 7.0
        assert abs(np.corrcoef(d, rate)[0, 1]) > 0.999
        assert np.allclose(fit, rate, rtol=0.05)

    def test_largest_444_speedup_orderings(self):
        """Figure 10 at its largest size (2048x2048 4:4:4): PPS >= SPS
        and pipeline >= GPU (2% slack) and PPS > 1x on every machine;
        the weak GPU loses alone on the GT 430; PPS > 1.8x on the
        GTX 680."""
        prep = PreparedImage.virtual(2048, 2048, "4:4:4", SWEEP_DENSITY)
        final = {}
        for plat in platforms.ALL_PLATFORMS:
            dec = HeterogeneousDecoder.for_platform(plat)
            simd = dec.decode(prep, DecodeMode.SIMD).total_us
            final[plat.name] = {m: simd / dec.decode(prep, m).total_us
                                for m in EVALUATED_MODES}
        for name, sp in final.items():
            assert sp[DecodeMode.PPS] >= sp[DecodeMode.SPS] * 0.98, name
            assert sp[DecodeMode.PIPELINE] >= sp[DecodeMode.GPU] * 0.98, name
            assert sp[DecodeMode.PPS] > 1.0, name
        assert final["GT 430"][DecodeMode.GPU] < 1.0
        assert final["GTX 680"][DecodeMode.PPS] > 1.8

    def test_pps_approaches_the_bound_as_images_grow(self):
        """Figure 11 (GTX 680, 4:4:4): PPS never beats Ttotal/THuff
        (Eq 19), the larger half of the sweep reaches > 70% of it, and
        the smallest image lags."""
        pcts = [pct for _, pct in amdahl_series(platforms.GTX680,
                                                sweep("4:4:4"))]
        large = pcts[len(pcts) // 2:]
        assert all(p <= 100.0 + 1e-6 for p in pcts)
        assert min(large) > 70.0
        assert pcts[0] <= max(large) + 1e-9

    def test_gt430_sps_balances_cpu_and_gpu(self):
        """Figure 12: 'GPU and CPU shared similar execution times' —
        on the GT 430, where both devices get substantial work, SPS's
        CPU and GPU busy times at 2048x2048 4:2:2 are within 3x."""
        prep = PreparedImage.virtual(2048, 2048, "4:2:2", SWEEP_DENSITY)
        series = balance_series(platforms.GT430, [prep],
                                modes=(DecodeMode.SPS,))
        (_, cpu_us, gpu_us), = series[DecodeMode.SPS]
        assert cpu_us > 0 and gpu_us > 0
        assert 0.3 < cpu_us / gpu_us < 3.0


# ---------------------------------------------------------------------------
# Tables 2 and 3: mean speedup over SIMD across a real encoded corpus.
# ---------------------------------------------------------------------------

def corpus_summaries(subsampling):
    """Per-machine speedup summaries over a real corpus: 14 encoded
    images whose per-row entropy offsets drive the simulated Huffman
    stage, replayed in pricing mode."""
    spec = CorpusSpec(
        sizes=((192, 144), (256, 192), (320, 320), (448, 336), (512, 384),
               (768, 576), (1024, 768)),
        subsampling=subsampling, quality=85,
        seeds=(101,), detail_levels=(0.3, 0.7),
    )
    corpus = [p.as_virtual() for p in prepare_corpus(build_corpus(spec))]
    return {plat.name: summarize_speedups(measure_corpus(plat, corpus))
            for plat in platforms.ALL_PLATFORMS}


@pytest.fixture(scope="module")
def table2():
    return corpus_summaries("4:2:2")


@pytest.fixture(scope="module")
def table3():
    return corpus_summaries("4:4:4")


class TestTableAnchors:
    def test_table2_pps_best_on_every_machine(self, table2):
        """Table 2 (4:2:2): PPS is within 3% of the best mean speedup on
        every machine; GPU-only loses on the GT 430 where PPS still
        wins; the GTX 680's PPS is at least the GT 430's."""
        for name, s in table2.items():
            best = max(s.values(), key=lambda v: v.mean)
            assert s[DecodeMode.PPS].mean >= best.mean * 0.97, name
        assert table2["GT 430"][DecodeMode.GPU].mean < 1.0
        assert table2["GT 430"][DecodeMode.PPS].mean > 1.0
        assert (table2["GTX 680"][DecodeMode.PPS].mean
                >= table2["GT 430"][DecodeMode.PPS].mean)

    def test_table3_same_trend_at_444(self, table3):
        """Table 3 (4:4:4), 'a similar trend': PPS > 0.95x everywhere,
        GPU-only < 1x on the GT 430, pipeline > GPU on the GTX 560."""
        for name, s in table3.items():
            assert s[DecodeMode.PPS].mean > 0.95, name
        assert table3["GT 430"][DecodeMode.GPU].mean < 1.0
        assert (table3["GTX 560"][DecodeMode.PIPELINE].mean
                > table3["GTX 560"][DecodeMode.GPU].mean)
