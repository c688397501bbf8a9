"""A6 — ablation: PPS re-partitioning (Eq 16/17) on skewed-entropy
images.

The Huffman-time model assumes uniformly distributed entropy (Eq 4);
images with detail concentrated in one band violate it, and the paper
compensates by re-solving the split before the last GPU chunk.  This
bench encodes real images with back- and front-loaded detail and
compares PPS with re-partitioning on vs off."""

from functools import lru_cache

from repro.core import DecodeMode, ExecutionConfig, PreparedImage
from repro.core.executors import execute
from repro.data import synthetic_skewed
from repro.evaluation import format_table, platforms
from repro.jpeg import EncoderSettings, encode_jpeg

from common import decoder_for, write_result


@lru_cache(maxsize=1)
def skewed_corpus():
    out = []
    for name, kwargs in (
        ("dense-bottom", dict(dense_at_top=False)),
        ("dense-top", dict(dense_at_top=True)),
    ):
        img = synthetic_skewed(384, 384, seed=31, dense_fraction=0.45, **kwargs)
        data = encode_jpeg(img, EncoderSettings(quality=85,
                                                subsampling="4:2:2"))
        out.append((name, PreparedImage.from_bytes(data).as_virtual()))
    return out


def render() -> str:
    model = decoder_for("GTX 560").model_for("4:2:2")
    rows = []
    for name, prep in skewed_corpus():
        on, off = (execute(ExecutionConfig(platform=platforms.GTX560,
                                           model=model, repartition=rep),
                           prep, DecodeMode.PPS) for rep in (True, False))
        rows.append([name, f"{on.total_us / 1e3:.3f}",
                     f"{off.total_us / 1e3:.3f}",
                     str(on.partition.cpu_rows), str(off.partition.cpu_rows)])
        assert on.total_us <= off.total_us * 1.05, name
    return format_table(
        ["Image", "PPS+repart (ms)", "PPS fixed (ms)",
         "CPU rows (repart)", "CPU rows (fixed)"],
        rows,
        title="Ablation A6: Eq 16/17 re-partitioning on skewed entropy, GTX 560")


def test_abl_repartition(benchmark):
    out = benchmark(render)
    write_result("abl_repartition", out)
