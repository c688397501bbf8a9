"""GPU kernels: math equivalence against the CPU primitives, launch
geometry per the paper, and the cost orderings the design claims."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import JpegUnsupportedError, KernelError
from repro.gpusim import GTX560TI, CommandQueue, kernel_time_us
from repro.jpeg.blocks import ImageGeometry
from repro.jpeg.color import ycbcr_to_rgb_float
from repro.jpeg.idct import idct_2d_aan, samples_from_idct
from repro.jpeg.quantization import dequantize_blocks, luminance_table
from repro.jpeg.sampling import upsample_h2v1_fancy
from repro.kernels import (
    ColorConvertKernel,
    GpuDecodeProgram,
    GpuProgramOptions,
    IdctKernel,
    MergedAllKernel,
    MergedIdctColorKernel,
    MergedUpsampleColorKernel,
    PlanarBlockLayout,
    UpsampleKernel,
    deinterleave_rgb_vectors,
    interleave_rgb_vectors,
)

RNG = np.random.default_rng(7)
QUANT = luminance_table(80)


def rand_coeffs(n):
    return (RNG.random((n, 8, 8)) * 60 - 30).astype(np.int16)


class TestIdctKernel:
    def test_math_matches_cpu_path(self):
        k = IdctKernel()
        coeffs = rand_coeffs(12)
        expected = samples_from_idct(idct_2d_aan(dequantize_blocks(coeffs, QUANT)))
        assert np.array_equal(k.execute(coeffs=coeffs, quant=QUANT), expected)

    def test_eight_items_per_block(self):
        k = IdctKernel(workgroup_blocks=8)
        launch = k.describe_launch(coeffs=rand_coeffs(64), quant=QUANT)
        assert launch.ndrange.global_size == 64 * 8
        assert launch.ndrange.local_size == 8 * 8

    def test_workgroup_must_be_multiple_of_4(self):
        with pytest.raises(KernelError):
            IdctKernel(workgroup_blocks=6)

    def test_empty_launch_rejected(self):
        with pytest.raises(KernelError):
            IdctKernel().describe_launch(coeffs=rand_coeffs(0), quant=QUANT)

    def test_vectorized_fewer_write_transactions(self):
        coeffs = rand_coeffs(64)
        vec = IdctKernel(vectorized=True).describe_launch(coeffs=coeffs, quant=QUANT)
        sca = IdctKernel(vectorized=False).describe_launch(coeffs=coeffs, quant=QUANT)
        assert sca.traffic.write_transactions == 4 * vec.traffic.write_transactions

    def test_local_memory_scales_with_workgroup(self):
        coeffs = rand_coeffs(256)
        small = IdctKernel(workgroup_blocks=4).describe_launch(coeffs=coeffs, quant=QUANT)
        large = IdctKernel(workgroup_blocks=32).describe_launch(coeffs=coeffs, quant=QUANT)
        assert (large.traffic.local_bytes_per_group
                > small.traffic.local_bytes_per_group)


class TestUpsampleKernel:
    def test_math_is_algorithm1(self):
        k = UpsampleKernel()
        plane = RNG.integers(0, 256, (16, 24)).astype(np.uint8)
        assert np.array_equal(k.execute(plane=plane), upsample_h2v1_fancy(plane))

    def test_sixteen_items_per_block(self):
        k = UpsampleKernel(workgroup_blocks=2)
        plane = np.zeros((16, 16), dtype=np.uint8)  # 4 blocks
        launch = k.describe_launch(plane=plane)
        assert launch.ndrange.global_size == 4 * 16

    def test_divergent_variant_slower(self):
        plane = np.zeros((64, 64), dtype=np.uint8)
        good = UpsampleKernel(divergence_free=True).describe_launch(plane=plane)
        bad = UpsampleKernel(divergence_free=False).describe_launch(plane=plane)
        assert bad.divergence_factor > good.divergence_factor
        assert (kernel_time_us(bad, GTX560TI)
                >= kernel_time_us(good, GTX560TI))

    def test_unaligned_plane_rejected(self):
        with pytest.raises(KernelError):
            UpsampleKernel().describe_launch(plane=np.zeros((10, 16)))


class TestColorKernel:
    def test_math_is_algorithm2(self):
        k = ColorConvertKernel()
        y, cb, cr = (RNG.integers(0, 256, (24, 32)).astype(np.uint8)
                     for _ in range(3))
        assert np.array_equal(k.execute(y=y, cb=cb, cr=cr),
                              ycbcr_to_rgb_float(y, cb, cr))

    def test_vec4_stores_quarter_transactions(self):
        y = np.zeros((64, 64), dtype=np.uint8)
        vec = ColorConvertKernel(vectorized=True).describe_launch(y=y, cb=y, cr=y)
        sca = ColorConvertKernel(vectorized=False).describe_launch(y=y, cb=y, cr=y)
        assert sca.traffic.write_transactions == 4 * vec.traffic.write_transactions

    def test_shape_mismatch_rejected(self):
        y = np.zeros((16, 16), dtype=np.uint8)
        with pytest.raises(KernelError):
            ColorConvertKernel().describe_launch(y=y, cb=y[:8], cr=y)

    def test_non_warp_workgroup_rejected(self):
        with pytest.raises(KernelError):
            ColorConvertKernel(workgroup_items=100)


class TestMergedKernels:
    def test_idct_color_math(self):
        k = MergedIdctColorKernel()
        quants = [QUANT, QUANT, QUANT]
        comps = [rand_coeffs(6) for _ in range(3)]
        out = k.execute(y_coeffs=comps[0], cb_coeffs=comps[1],
                        cr_coeffs=comps[2], quants=quants)
        planes = [samples_from_idct(idct_2d_aan(dequantize_blocks(c, QUANT)))
                  for c in comps]
        expected = ycbcr_to_rgb_float(planes[0], planes[1], planes[2])
        assert np.array_equal(out, expected)

    def test_upsample_color_math(self):
        k = MergedUpsampleColorKernel()
        cb = RNG.integers(0, 256, (16, 16)).astype(np.uint8)
        cr = RNG.integers(0, 256, (16, 16)).astype(np.uint8)
        y = RNG.integers(0, 256, (16, 32)).astype(np.uint8)
        out = k.execute(y_plane=y, cb_plane=cb, cr_plane=cr)
        expected = ycbcr_to_rgb_float(
            y, upsample_h2v1_fancy(cb), upsample_h2v1_fancy(cr))
        assert np.array_equal(out, expected)

    def test_merged_cheaper_than_separate_444(self):
        """Section 4.4: merging saves the intermediate global round trip."""
        comps = [rand_coeffs(4096) for _ in range(3)]
        quants = [QUANT] * 3
        merged = MergedIdctColorKernel().describe_launch(
            y_coeffs=comps[0], cb_coeffs=comps[1], cr_coeffs=comps[2],
            quants=quants)
        t_merged = kernel_time_us(merged, GTX560TI)
        idct = IdctKernel()
        t_separate = sum(
            kernel_time_us(idct.describe_launch(coeffs=c, quant=QUANT), GTX560TI)
            for c in comps)
        y = np.zeros((512, 512), dtype=np.uint8)
        t_separate += kernel_time_us(
            ColorConvertKernel().describe_launch(y=y, cb=y, cr=y), GTX560TI)
        assert t_merged < t_separate

    def test_wrong_chroma_width_rejected(self):
        k = MergedUpsampleColorKernel()
        bad_y = np.zeros((16, 16), dtype=np.uint8)
        c = np.zeros((16, 16), dtype=np.uint8)
        with pytest.raises(KernelError):
            k.describe_launch(y_plane=bad_y, cb_plane=c, cr_plane=c)

    def test_all_merged_kernel_loses_occupancy(self):
        """The fusion the paper rejects: register pressure must show,
        as under 0.6x the two-stage kernel's occupancy."""
        comps = [rand_coeffs(4096) for _ in range(3)]
        launch = MergedAllKernel().describe_launch(
            y_coeffs=comps[0], cb_coeffs=comps[1], cr_coeffs=comps[2],
            quants=[QUANT] * 3)
        from repro.gpusim import occupancy
        occ_all = occupancy(launch.ndrange, GTX560TI,
                            launch.registers_per_item,
                            launch.traffic.local_bytes_per_group)
        two_stage = MergedIdctColorKernel().describe_launch(
            y_coeffs=comps[0], cb_coeffs=comps[1], cr_coeffs=comps[2],
            quants=[QUANT] * 3)
        occ_two = occupancy(two_stage.ndrange, GTX560TI,
                            two_stage.registers_per_item,
                            two_stage.traffic.local_bytes_per_group)
        assert occ_all < 0.6 * occ_two

    def test_all_merged_execute_is_ablation_only(self):
        with pytest.raises(NotImplementedError):
            MergedAllKernel().execute(y_coeffs=None, cb_coeffs=None,
                                      cr_coeffs=None, quants=None)


class TestLayout:
    def test_block_counts_422(self):
        geo = ImageGeometry(64, 48, "4:2:2")
        layout = PlanarBlockLayout(geo, 0, geo.mcu_rows)
        y, cb, cr = layout.component_block_counts()
        assert y == 2 * cb == 2 * cr
        assert layout.coefficient_nbytes == layout.total_samples * 2

    def test_rgb_bytes_cropped_to_image(self):
        geo = ImageGeometry(30, 20, "4:2:2")  # padded grid is 32x24
        layout = PlanarBlockLayout(geo, 0, geo.mcu_rows)
        assert layout.rgb_nbytes == 30 * 20 * 3

    def test_span_pixels_bottom_clamped(self):
        geo = ImageGeometry(32, 20, "4:2:2")  # 3 MCU rows, image 20 px high
        bottom = PlanarBlockLayout(geo, 2, 3)
        assert bottom.output_pixels() == 32 * 4

    def test_rgb_vector_grouping_bijective(self):
        rows = RNG.integers(0, 256, (5, 8, 3)).astype(np.uint8)
        vecs = interleave_rgb_vectors(rows)
        assert vecs.shape == (5, 6, 4)
        assert np.array_equal(deinterleave_rgb_vectors(vecs), rows)


class TestProgram:
    def test_420_rejected(self):
        geo = ImageGeometry(32, 32, "4:2:0")
        with pytest.raises(JpegUnsupportedError):
            GpuDecodeProgram(CommandQueue(GTX560TI), geo, [QUANT] * 3)

    def test_price_span_matches_run_span_timing(self, jpeg_422):
        from repro.core import PreparedImage
        prep = PreparedImage.from_bytes(jpeg_422)
        geo = prep.geometry
        q1 = CommandQueue(GTX560TI)
        p1 = GpuDecodeProgram(q1, geo, prep.quants)
        _, res = p1.run_span(prep.coefficients, 0, geo.mcu_rows, 0.0)
        q2 = CommandQueue(GTX560TI)
        p2 = GpuDecodeProgram(q2, geo, prep.quants)
        _, events = p2.price_span(0, geo.mcu_rows, 0.0)
        assert len(events) == len(res.events)
        for a, b in zip(res.events, events):
            assert a.start == pytest.approx(b.start)
            assert a.end == pytest.approx(b.end)

    def test_price_span_444_unmerged(self):
        geo = ImageGeometry(64, 64, "4:4:4")
        q = CommandQueue(GTX560TI)
        p = GpuDecodeProgram(q, geo, [QUANT] * 3,
                             GpuProgramOptions(merge_kernels=False))
        _, events = p.price_span(0, geo.mcu_rows, 0.0)
        kinds = [e.kind for e in events]
        assert kinds[0] == "write" and kinds[-1] == "read"
        assert kinds.count("kernel") == 4  # 3x IDCT + color

    def test_price_span_422_unmerged(self):
        geo = ImageGeometry(64, 64, "4:2:2")
        q = CommandQueue(GTX560TI)
        p = GpuDecodeProgram(q, geo, [QUANT] * 3,
                             GpuProgramOptions(merge_kernels=False))
        _, events = p.price_span(0, geo.mcu_rows, 0.0)
        assert [e.kind for e in events].count("kernel") == 6
