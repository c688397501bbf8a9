"""The serving import graph: a cold start loads only what serves.

A scheduled process-pool session prices with the shipped fitted models
and decodes every image with ``decode_jpeg``, so it never needs the
paper's evaluation layer (simulated executors, profiler, GPU kernels,
gpusim's queue, the figure harness, the encoder) nor the HTTP and
sharded front ends.  Nor does it need the per-symbol reference
entropy engine and its bit reader, the ``HeterogeneousDecoder`` facade,
or named POSIX shared memory: plane slots are nameless ``memfd`` files,
so no resource-tracker process is ever started.  Each check runs a
fresh interpreter: this test process has imported everything already.

What the cold start does load it should load cheaply: the ledger
starts from source, so every line of it is compiled, and every
``@dataclass`` on it generates and compiles its methods at import.
Both are ratchets: lower the pins when they fall, never raise them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

from repro.service.transport import shm_available

ROOT = Path(__file__).resolve().parents[1]
SMALL = ROOT / "benchmarks/perf/corpus/small00.jpg"

#: What a scheduled session's cold start must not load.
NOT_SERVING = (
    "repro.core.executors", "repro.core.profiling", "repro.core.partition",
    "repro.kernels.program",
    "repro.gpusim.queue", "repro.gpusim.kernel",
    "repro.evaluation.harness", "repro.data",
    "repro.jpeg.encoder", "repro.jpeg.progressive", "repro.jpeg.speculative",
    "repro.service.http", "repro.service.remote",
    "repro.jpeg.bitstream", "repro.jpeg.entropy",
    "repro.core.decoder", "repro.core.modes",
    # the Gantt renderer: only the CLI's trace viewer draws a chart
    "repro.core.timeline",
    "multiprocessing.shared_memory",
    # the fan-out plans and their restart-run coder (a thumbnail decodes
    # whole), and the encoder's forward DCT
    "repro.service.fanout", "repro.jpeg.parallel_huffman", "repro.jpeg.dct",
)

#: What plain ``decode_jpeg`` must not load: the encoder, the fan-out
#: coders and the reference entropy engine with its bit reader.
NOT_DECODING = (
    "repro.jpeg.encoder", "repro.jpeg.progressive", "repro.jpeg.speculative",
    "repro.jpeg.bitstream", "repro.jpeg.entropy",
    "repro.jpeg.parallel_huffman", "repro.jpeg.dct",
)

#: ``@dataclass`` classes the cold session creates: the paper-model
#: records (``Platform``, the device specs, ``GpuProgramOptions``,
#: ``PerformanceModel``, ``PolynomialModel`` and the two horner nodes)
#: that pricing loads.
DATACLASSES = 8

#: Source lines of the ``repro`` modules the cold session loads.
SERVING_LINES = 8_707

_SESSION = """
import dataclasses, json, sys
created = []
process_class = dataclasses._process_class
def counting(cls, *args):
    created.append(cls.__qualname__)
    return process_class(cls, *args)
dataclasses._process_class = counting
import repro.service
from repro.service import DecodeSession

data = open(sys.argv[1], "rb").read()
with DecodeSession(workers=2, backend="process", scheduler="model") as s:
    result = s.submit(data, timeout=None).result(timeout=60)
    transport, shm_bytes = s.decoder.transport, s.stats.bytes_shm
loaded = sorted(m for m in sys.modules
                if m.startswith(("repro", "multiprocessing")))
lines = sum(open(sys.modules[m].__file__).read().count("\\n")
            for m in loaded if m.startswith("repro"))
dataclasses_created = list(created)
import multiprocessing.resource_tracker as tracker
tracker_pid = tracker._resource_tracker._pid
import repro.core, repro.evaluation, repro.jpeg, repro.service
resolved = [repro.core.HeterogeneousDecoder.__name__,
            repro.service.DecodeHTTPServer.__name__,
            repro.jpeg.encode_jpeg.__name__,
            repro.evaluation.platforms.__name__]
print(json.dumps({"ok": result.ok, "loaded": loaded, "resolved": resolved,
                  "transport": transport, "shm_bytes": shm_bytes,
                  "tracker_pid": tracker_pid, "lines": lines,
                  "dataclasses": dataclasses_created}))
"""

_DECODE = """
import json, sys
from repro.jpeg import decode_jpeg

rgb = decode_jpeg(open(sys.argv[1], "rb").read()).rgb
print(json.dumps({"shape": list(rgb.shape),
                  "loaded": sorted(m for m in sys.modules
                                   if m.startswith("repro"))}))
"""


@lru_cache(maxsize=None)
def _fresh(script: str) -> dict:
    """Run *script* on the ledger's 4:2:0 thumbnail in a new interpreter
    and return the JSON line it prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, str(SMALL)],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_scheduled_session_loads_only_what_serves():
    report = _fresh(_SESSION)
    assert report["ok"]
    assert [m for m in NOT_SERVING if m in report["loaded"]] == []
    # The thumbnail's 57,600 pixel bytes rode a slot where the host has
    # nameless shared memory, and no resource tracker was started.
    if shm_available():
        assert report["transport"] == "shm" and report["shm_bytes"] > 0
    assert report["tracker_pid"] is None
    # The lazy names still resolve, once asked for.
    assert report["resolved"] == [
        "HeterogeneousDecoder", "DecodeHTTPServer", "encode_jpeg",
        "repro.evaluation.platforms"]
    # The ledger starts from source, with no bytecode cache: every cold
    # start compiles each of these lines again.
    assert report["lines"] <= SERVING_LINES, (
        f"the cold session loads {report['lines']} lines of repro, "
        f"ratchet {SERVING_LINES}")


def test_scheduled_session_creates_few_dataclasses():
    """Each ``@dataclass`` generates and compiles its methods at import
    (frozen ones cost the most): records on the serving path are named
    tuples or plain classes instead."""
    created = _fresh(_SESSION)["dataclasses"]
    assert len(created) <= DATACLASSES, (
        f"{len(created)} dataclasses on the cold path, ratchet "
        f"{DATACLASSES}: {created}")


def test_decode_jpeg_loads_no_encoder_or_fanout_coder():
    report = _fresh(_DECODE)
    assert report["shape"] == [120, 160, 3]
    assert [m for m in NOT_DECODING if m in report["loaded"]] == []
