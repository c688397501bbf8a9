"""Pinned inputs for the perf ledger: recipes, generation, verification.

Every workload owns a fixed list of :class:`Recipe` entries.  A recipe
plus a seed fully determines one JPEG: the synthetic source image
(``repro.data`` generators, seeded per image) and the encoder settings.
The default seed's encoded bytes are committed under ``corpus/`` with a
manifest, so a later change to ``repro.jpeg.encoder`` or the generators
cannot silently change what parent and change are timed on; any other
seed is generated on the fly and its digests are printed.

:func:`verify` is the correctness gate the runner calls before timing:
bit identity against the ``reference`` entropy engine, a PSNR floor
against the source image, and (default seed) the manifest's pinned
input and output digests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

CORPUS_DIR = Path(__file__).parent / "corpus"
MANIFEST_PATH = CORPUS_DIR / "manifest.json"

#: The seed whose encoded corpus is committed.
DEFAULT_SEED = 1

#: Decoded pixels must reach this PSNR against the source image unless
#: the recipe states its own floor.  The noisy ``photo`` sources measure
#: 25-34 dB at the qualities used here, a wrong colour transform or a
#: shifted block about 10-15 dB.
MIN_PSNR_DB = 22.0


@dataclass(frozen=True)
class Recipe:
    """How to make one corpus member (source image + encoder settings)."""

    name: str
    kind: str                  # repro.data.GENERATORS key
    width: int
    height: int
    subsampling: str
    quality: int
    detail: float | None = None        # synthetic_photo only
    restart_interval: int = 0
    progressive: bool = False
    colorspace: str = "ycbcr"
    #: PSNR floor for this member.  Random-noise ``detail`` sources lose
    #: their chroma noise to subsampling and their luma noise to
    #: quantization by design (17 dB at 4:2:2, 22 dB at 4:4:4, whatever
    #: the seed), so they carry a lower floor.
    min_psnr_db: float = MIN_PSNR_DB
    #: Generator seed used whatever the run's seed: the member's content
    #: is the same in every run (``None``: content follows the run seed).
    content_seed: int | None = None


@dataclass
class Member:
    """One generated (or loaded) corpus member, ready to time."""

    recipe: Recipe
    data: bytes
    #: Source RGB; ``None`` for members loaded from the committed corpus
    #: (their PSNR was recorded when the manifest was built and their
    #: output digest is pinned instead).
    source: np.ndarray | None
    #: Filled by :func:`verify`.
    pixels: np.ndarray | None = None

    @property
    def megapixels(self) -> float:
        return self.recipe.width * self.recipe.height / 1e6

    @property
    def bpp(self) -> float:
        return len(self.data) * 8 / (self.recipe.width * self.recipe.height)


def _photo(name, w, h, sub, q, detail, **kw) -> Recipe:
    return Recipe(name, "photo", w, h, sub, q, detail=detail, **kw)


def _http_thumbnail(i: int) -> Recipe:
    return _photo(f"http_small{i:02d}", 256, 192, ("4:2:0", "4:2:2")[i % 2],
                  80, 0.4 + 0.1 * (i % 3))


def _session_small_recipes() -> list[Recipe]:
    """24 small photos: sizes, detail and subsampling cycle out of step
    so every combination of layout and size class occurs; every third
    member carries restart markers."""
    sizes = ((160, 120), (208, 156), (256, 192), (320, 240))
    subs = ("4:2:0", "4:2:2", "4:4:4")
    details = (0.3, 0.45, 0.6, 0.8, 0.5)
    out = []
    for i in range(24):
        w, h = sizes[i % 4]
        out.append(_photo(f"small{i:02d}", w, h, subs[i % 3], 80,
                          details[i % 5],
                          restart_interval=4 if i % 3 == 2 else 0))
    return out


#: workload name -> its pinned request list.  Sizes are smaller than a
#: camera frame on purpose: the driver caps a whole run at ~35 s, so one
#: pass over a workload must take about half a second for the run to
#: hold >= 15 rounds.
RECIPES: dict[str, list[Recipe]] = {
    # High entropy density: Huffman decode dominates.
    "direct_dense": [
        Recipe("dense_detail_422", "detail", 480, 360, "4:2:2", 85,
               min_psnr_db=14.0),
        _photo("dense_photo_420", 640, 480, "4:2:0", 92, 1.0),
        Recipe("dense_detail_444_dri", "detail", 384, 384, "4:4:4", 75,
               restart_interval=8, min_psnr_db=14.0),
    ],
    # Low entropy density, many pixels: IDCT / upsample / colour dominate.
    "direct_smooth": [
        Recipe("smooth_444", "smooth", 800, 600, "4:4:4", 85),
        Recipe("smooth_420_fancy", "smooth", 1280, 960, "4:2:0", 85),
        _photo("smooth_photo_422", 800, 600, "4:2:2", 75, 0.0),
    ],
    # Tiny images: per-request fixed cost dominates.
    "session_small": _session_small_recipes(),
    # A gallery back end's mix over HTTP: two full frames, two previews,
    # mostly thumbnails, a progressive and a grayscale stream.  The
    # scheduler fans out an image that dominates its batch, and the two
    # full frames sit on either side of how: `http_large_422` carries
    # restart markers (restart-segment fan-out, whose cost does not
    # depend on the pixels), `http_frame_420_mf` is marker-free
    # (speculative fan-out).  The speculative path costs about 1x or 3x
    # a whole decode depending on the content (about half the seeds
    # each), so that frame's content is pinned, to one of the 3x kind:
    # the path and its cost are on the clock, and the run does not
    # measure its seed.
    #
    # The session resolves a batch as a whole, so the four client
    # threads move through this list about four requests at a time.  The
    # order puts each full frame at the head of a group it outweighs (the
    # scheduler fans out an image that costs more than the rest of its
    # batch together), puts the slower small streams (progressive,
    # grayscale) into those two groups, and leaves 16 of the 24 requests
    # in groups of like thumbnails, so the median latency sits inside
    # that cluster and not on the edge between two.
    "http_mixed": (
        [_photo("http_large_422", 800, 600, "4:2:2", 80, 0.3,
                restart_interval=50),
         _photo("http_medium0", 448, 336, "4:2:0", 80, 0.4),
         _photo("http_medium1", 448, 336, "4:4:4", 80, 0.4),
         _photo("http_progressive", 256, 192, "4:2:0", 80, 0.4,
                progressive=True),
         _photo("http_frame_420_mf", 640, 480, "4:2:0", 80, 0.3,
                content_seed=1),
         Recipe("http_gray", "gray", 256, 192, "4:4:4", 80,
                colorspace="gray")]
        + [_http_thumbnail(i) for i in range(18)]
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def synth_seed(seed: int, workload: str, index: int) -> int:
    """Per-image generator seed: distinct per (run seed, workload, slot)."""
    digest = hashlib.sha256(f"{seed}/{workload}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def generate(workload: str, seed: int) -> list[Member]:
    """Synthesize and encode *workload*'s members for *seed*."""
    from repro.data import GENERATORS
    from repro.jpeg import EncoderSettings, encode_jpeg

    members = []
    for index, recipe in enumerate(RECIPES[workload]):
        gen = GENERATORS[recipe.kind]
        kwargs = {} if recipe.detail is None else {"detail": recipe.detail}
        content = recipe.content_seed if recipe.content_seed is not None \
            else synth_seed(seed, workload, index)
        rgb = gen(recipe.height, recipe.width, seed=content, **kwargs)
        data = encode_jpeg(rgb, EncoderSettings(
            quality=recipe.quality, subsampling=recipe.subsampling,
            restart_interval=recipe.restart_interval,
            colorspace=recipe.colorspace, progressive=recipe.progressive))
        members.append(Member(recipe, data, rgb))
    return members


class CorpusError(Exception):
    """The inputs (or their decoded pixels) are not what was pinned."""


def load_manifest() -> dict:
    return json.loads(MANIFEST_PATH.read_text())


def load_committed(workload: str) -> list[Member]:
    """The default seed's members, read from ``corpus/`` and checked
    against the manifest's input digests and recipes."""
    entries = load_manifest()["images"]
    members = []
    for recipe in RECIPES[workload]:
        entry = entries.get(recipe.name)
        if entry is None or entry["recipe"] != asdict(recipe):
            raise CorpusError(
                f"{recipe.name}: recipe differs from corpus/manifest.json "
                "(rebuild the corpus with build_corpus.py in its own change)")
        data = (CORPUS_DIR / f"{recipe.name}.jpg").read_bytes()
        if sha256(data) != entry["sha256"]:
            raise CorpusError(f"{recipe.name}: committed bytes do not match "
                              "the manifest's SHA-256")
        members.append(Member(recipe, data, None))
    return members


def load(workload: str, seed: int) -> list[Member]:
    """Members for *seed*: committed bytes for the default seed,
    generated otherwise."""
    if seed == DEFAULT_SEED:
        return load_committed(workload)
    return generate(workload, seed)


def psnr_db(a: np.ndarray, b: np.ndarray) -> float:
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    return float("inf") if mse == 0 else 10.0 * np.log10(255.0 ** 2 / mse)


def verify(members: list[Member]) -> list[str]:
    """Decode every member on both entropy engines and check it.

    Fills ``member.pixels`` (the oracle the timed rounds compare shapes
    and, for the first pass, pixels against).  Returns one failure
    message per member that is wrong — empty when all are right.  A
    generated member is held to its PSNR floor against its source, a
    committed one (no source) to the manifest's output digest.
    """
    from repro.jpeg import DecodeOptions, decode_jpeg

    entries = load_manifest()["images"] \
        if any(m.source is None for m in members) else {}
    failures = []
    for m in members:
        name = m.recipe.name
        m.pixels = decode_jpeg(m.data).rgb
        oracle = decode_jpeg(
            m.data, DecodeOptions(entropy_engine="reference")).rgb
        if m.pixels.shape != (m.recipe.height, m.recipe.width, 3):
            failures.append(f"{name}: decoded shape {m.pixels.shape}")
        elif not np.array_equal(m.pixels, oracle):
            failures.append(f"{name}: fast and reference engines disagree")
        elif m.source is not None and \
                psnr_db(m.pixels, m.source) < m.recipe.min_psnr_db:
            failures.append(
                f"{name}: PSNR {psnr_db(m.pixels, m.source):.1f} dB below "
                f"the {m.recipe.min_psnr_db} dB floor")
        elif m.source is None and sha256(m.pixels.tobytes()) != \
                entries[name]["out_sha256"]:
            failures.append(f"{name}: decoded pixels differ from the "
                            "manifest's output SHA-256")
    return failures


def manifest_entry(member: Member) -> dict:
    """Manifest record of one verified, generated member."""
    r = member.recipe
    return {
        "sha256": sha256(member.data),
        "out_sha256": sha256(member.pixels.tobytes()),
        "bytes": len(member.data),
        "width": r.width,
        "height": r.height,
        "subsampling": r.subsampling,
        "bpp": round(member.bpp, 4),
        "psnr_db": round(psnr_db(member.pixels, member.source), 2),
        "recipe": asdict(r),
    }
