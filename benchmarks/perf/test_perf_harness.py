"""Tests of the perf-ledger harness itself (no timing assertions).

The unit tests feed the ledger arithmetic synthetic rounds and check the
declared metrics against the contract's limits.  The smoke tests run
the real command once per workload in ``--smoke`` mode (three rounds,
one cold start, every probe) so a renamed public function or a broken
probe fails here rather than in the first real benchmark run.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import compare  # noqa: E402
import corpus  # noqa: E402
import ledger  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Reply, WorkloadError  # noqa: E402

SPEC = ledger.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def make_round(slowdown: float = 1.0, **overrides) -> ledger.Round:
    """A synthetic round on a host running *slowdown* times slow."""
    fields = dict(
        megapixels=2.0, wall_s=0.5 * slowdown, cpu_s=0.9 * slowdown,
        pool_cpu_s=0.8 * slowdown,
        latencies_s=[0.010 * slowdown, 0.020 * slowdown, 0.030 * slowdown],
        calib_before_ms=50.0 * slowdown, calib_after_ms=50.0 * slowdown)
    fields.update(overrides)
    return ledger.Round(**fields)


class TestNormalization:
    def test_slow_host_with_slow_calibration_reads_the_same(self):
        nominal = [make_round() for _ in range(5)]
        slow = [make_round(slowdown=2.0) for _ in range(5)]
        fast_metrics = ledger.end_to_end(nominal, 50.0)
        slow_metrics = ledger.end_to_end(slow, 50.0)
        assert fast_metrics == pytest.approx(slow_metrics)
        assert fast_metrics["throughput_mp_s"] == pytest.approx(4.0)
        assert fast_metrics["latency_p50_ms"] == pytest.approx(20.0)
        assert fast_metrics["cpu_ms_per_mp"] == pytest.approx(450.0)

    def test_raw_metrics_show_what_normalization_removed(self):
        slow = ledger.host_metrics([make_round(slowdown=2.0)] * 3)
        assert slow["host.raw_throughput_mp_s"] == pytest.approx(2.0)
        assert slow["host.raw_latency_p50_ms"] == pytest.approx(40.0)
        assert slow["host.calib_ms_p50"] == pytest.approx(100.0)

    def test_factor_is_the_mean_of_the_bracket(self):
        r = make_round(calib_before_ms=40.0, calib_after_ms=80.0)
        assert r.host_factor(50.0) == pytest.approx(1.2)

    def test_metrics_are_medians_over_rounds(self):
        rounds = [make_round(), make_round(), make_round(wall_s=5.0)]
        assert ledger.end_to_end(rounds, 50.0)["throughput_mp_s"] == \
            pytest.approx(4.0)

    def test_calibration_kernel_is_independent_of_the_program(self):
        source = (HERE / "calib.py").read_text()
        assert "repro" not in source.split('"""', 2)[2]
        assert calib.calibrate() > 0


class TestTailPercentile:
    @pytest.mark.parametrize("count, expected", [
        (5, 50.0), (19, 50.0), (20, 50.0), (40, 75.0), (100, 90.0),
        (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)])
    def test_highest_percentile_with_ten_samples_beyond(self, count, expected):
        assert ledger.tail_percentile(count) == expected

    def test_percentile_interpolates(self):
        assert ledger.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert ledger.percentile([7.0], 99) == 7.0


class TestDeclaredMetrics:
    def test_benchmark_json_keys_and_limits(self):
        assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
        assert 2 <= len(SPEC["workloads"]) <= 8
        assert 1 <= len(SPEC["end_to_end"]) <= 16
        assert 1 <= len(SPEC["per_layer"]) <= 128
        assert 1 <= SPEC["run_seconds"] <= 60
        assert SPEC["paths"] == ["benchmarks/perf"]

    def test_names_units_directions_bounds(self):
        names = [e["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
                 for e in SPEC[section]]
        assert len(names) == len(set(names))
        assert all(NAME.match(n) for n in names)
        for w in SPEC["workloads"]:
            assert set(w) == {"name", "why"}
            assert len(w["why"]) <= 200 and "\n" not in w["why"]
        for m in SPEC["end_to_end"]:
            assert set(m) == {"name", "unit", "better", "bound"}
            assert 0 < m["bound"] <= 0.25
        for m in SPEC["per_layer"]:
            assert set(m) == {"name", "unit", "better"}
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        assert (setup["unit"], setup["better"]) == ("s", "lower")
        assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])

    def test_workloads_match_the_runner(self):
        declared = {w["name"] for w in SPEC["workloads"]}
        assert declared == set(WORKLOADS) == set(corpus.RECIPES) \
            == set(probes.ON_PATH)

    def test_every_probe_metric_is_declared(self):
        declared = {m["name"] for m in SPEC["per_layer"]}
        probed = {n for _, names in probes.PROBES for n in names}
        assert probed <= declared
        assert probes.TIME_METRICS | probes.RATE_METRICS <= probed

    def test_only_probes_on_the_request_path_run(self, monkeypatch):
        ran = []
        monkeypatch.setattr(probes, "PROBES", tuple(
            ((lambda members, wall, probe=probe, names=names:
              ran.append(probe) or dict.fromkeys(names, 1.0)), names)
            for probe, names in probes.PROBES))
        monkeypatch.setattr(probes, "ON_PATH", {
            "direct_dense": tuple(p for p, _ in probes.PROBES[:1])})
        metrics, skipped, wrong = probes.run_probes("direct_dense", [], 1.0)
        assert len(ran) == 1 and not skipped and not wrong
        assert metrics["entropy.share"] == 1.0
        assert metrics["scheduler.plan_share"] == 0.0
        assert metrics["http.serialize_ms_per_mb"] == 0.0


class TestCorpus:
    def test_committed_bytes_match_the_manifest(self):
        manifest = corpus.load_manifest()
        assert manifest["seed"] == corpus.DEFAULT_SEED
        loaded = {m.recipe.name: m for w in corpus.RECIPES
                  for m in corpus.load_committed(w)}
        assert set(loaded) == set(manifest["images"])
        on_disk = {p.stem for p in corpus.CORPUS_DIR.glob("*.jpg")}
        assert on_disk == set(loaded)
        for name, entry in manifest["images"].items():
            assert entry["bytes"] == len(loaded[name].data)
            assert entry["psnr_db"] >= loaded[name].recipe.min_psnr_db

    def test_a_changed_byte_is_refused(self, tmp_path, monkeypatch):
        shutil.copytree(corpus.CORPUS_DIR, tmp_path / "corpus")
        victim = tmp_path / "corpus" / "small00.jpg"
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0x01
        victim.write_bytes(bytes(data))
        monkeypatch.setattr(corpus, "CORPUS_DIR", tmp_path / "corpus")
        monkeypatch.setattr(corpus, "MANIFEST_PATH",
                            tmp_path / "corpus" / "manifest.json")
        with pytest.raises(corpus.CorpusError, match="small00"):
            corpus.load_committed("session_small")

    def test_synth_seeds_differ_per_seed_workload_and_slot(self):
        seeds = {corpus.synth_seed(s, w, i) for s in (1, 2)
                 for w in ("direct_dense", "http_mixed") for i in range(3)}
        assert len(seeds) == 12


class _FlakyWorkload:
    """Every pass answers its first request wrongly."""

    def __init__(self, workers=1):
        pass

    def start(self):
        pass

    def stop(self):
        return {}

    def pool_root(self):
        return None

    def run_pass(self, requests):
        replies = [Reply(True, 0.001, np.zeros((*shape, 3), np.uint8))
                   for _data, shape in requests]
        replies[0] = Reply(False, 0.001)
        return replies


class TestFailureCounting:
    def members(self):
        recipe = corpus.Recipe("m", "photo", 8, 8, "4:4:4", 80)
        return [corpus.Member(recipe, b"x", None,
                              pixels=np.zeros((8, 8, 3), np.uint8))
                for _ in range(3)]

    def test_failed_reply_and_wrong_pixels_both_count(self):
        members = self.members()
        good = Reply(True, 0.001, np.zeros((8, 8, 3), np.uint8))
        wrong = Reply(True, 0.001, np.ones((8, 8, 3), np.uint8))
        refused = Reply(False, 0.001)
        assert run.wrong_replies([good, wrong, refused], members) == 2

    def test_failed_operations_are_missing_from_the_round(self):
        rounds = run.timed_rounds(_FlakyWorkload(), self.members(),
                                  seconds=0, max_rounds=2)
        assert [r.failed for r in rounds] == [1, 1]
        assert all(len(r.latencies_s) == 2 for r in rounds)
        assert all(r.megapixels == pytest.approx(2 * 64 / 1e6) for r in rounds)


class _DeadWorkload(_FlakyWorkload):
    """Answers the warm-up pass, then fails every request (a server
    that died), and cannot be stopped cleanly."""

    passes = 0

    def run_pass(self, requests):
        self.passes += 1
        if self.passes == 1:
            return [Reply(True, 0.001, np.zeros((*shape, 3), np.uint8))
                    for _data, shape in requests]
        return [Reply(False, 0.001) for _ in requests]

    def stop(self):
        raise WorkloadError("decode server exited with -9")


class TestAllFailing:
    def test_rounds_without_a_success_are_left_out_of_the_medians(self):
        dead = make_round(megapixels=0.0, latencies_s=[], failed=3)
        assert ledger.end_to_end([make_round(), dead], 50.0) == \
            ledger.end_to_end([make_round()], 50.0)
        assert ledger.host_metrics([make_round(), dead])["host.rounds"] == 1
        with pytest.raises(ValueError):
            ledger.end_to_end([dead], 50.0)

    def test_run_reports_counts_and_incorrect_instead_of_crashing(
            self, monkeypatch, capsys):
        recipe = corpus.Recipe("m", "photo", 8, 8, "4:4:4", 80)
        members = [corpus.Member(recipe, b"x", None,
                                 pixels=np.zeros((8, 8, 3), np.uint8))
                   for _ in range(3)]
        monkeypatch.setattr(run, "load_verified", lambda w, s: members)
        monkeypatch.setattr(run, "leftovers", lambda owners: [])
        monkeypatch.setitem(run.WORKLOADS, "direct_dense", _DeadWorkload)
        monkeypatch.setattr(run, "SMOKE_ROUNDS", 2)
        monkeypatch.setattr(run, "cold_starts", lambda *a: (0.1, set()))
        args = type("Args", (), dict(workload="direct_dense", seed=1,
                                     seconds=1.0, trace=0, smoke=True))
        result, _host = run.run(args)
        assert result == {"correct": False, "attempted": 3 + 3 + 6,
                          "failed": 6, "metrics": {}}
        out = capsys.readouterr().out
        assert "# WRONG decode server exited with -9" in out
        assert "# WRONG no request of the timed rounds succeeded" in out


class TestLeftovers:
    def test_only_segments_of_this_runs_processes_count(
            self, monkeypatch, tmp_path):
        for name in ("repro-111-ab12-0", "repro-probe-111-cd", "repro-222-x",
                     "psm_other", "repro-1110-x"):
            (tmp_path / name).write_bytes(b"")
        real_path = run.Path
        monkeypatch.setattr(
            run, "Path", lambda p: tmp_path if p == "/dev/shm" else real_path(p))
        left = run.leftovers({111})
        assert [item.rsplit("/", 1)[1] for item in left
                if item.startswith("/dev/shm")] == \
            ["repro-111-ab12-0", "repro-probe-111-cd"]


class TestCompare:
    def test_verdicts(self):
        base = [100.0, 101.0, 99.0, 100.5]
        assert compare.verdict(base, base, 0.1, True) == "same"
        assert compare.verdict(base, [x * 0.8 for x in base], 0.1,
                               True) == "worse"
        assert compare.verdict(base, [x * 0.8 for x in base], 0.1,
                               False) == "better"
        assert compare.verdict(base, [x * 1.005 for x in base], 0.1,
                               False) == "same"

    def test_shift_beyond_the_spread_is_flagged_inside_the_bound(self):
        base = [100.0, 101.0, 99.0, 100.5]        # spread 1.6 %
        assert compare.verdict(base, [x * 1.05 for x in base], 0.1,
                               False) == "shifted-worse"
        assert compare.verdict(base, [x * 1.05 for x in base], 0.1,
                               True) == "shifted-better"

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [80.0, 100.0, 120.0, 140.0]
        assert compare.verdict(noisy, noisy, 0.1, True) == "unresolved"
        # ... unless every run of the change beats every run of the base.
        assert compare.verdict(noisy, [x * 2 for x in noisy], 0.1,
                               True) == "better"

    def test_exit_code_follows_worse(self, tmp_path, monkeypatch):
        def write(path, throughput, seconds=20):
            lines = [json.dumps({
                "workload": "direct_dense", "seed": s, "trace": 0,
                "seconds": seconds,
                "metrics": {"throughput_mp_s": {
                    "value": throughput + 0.001 * s, "unit": "MP/s"}}})
                for s in range(4)]
            path.write_text("\n".join(lines) + "\n")
            return str(path)
        base = write(tmp_path / "a.jsonl", 2.0)
        same = write(tmp_path / "b.jsonl", 2.01)
        slow = write(tmp_path / "c.jsonl", 1.0)   # -50 %: beyond any bound
        assert compare.main([base, same]) == 0
        assert compare.main([base, same, slow]) == 1
        # sets timed over different windows are refused, not compared
        short = write(tmp_path / "d.jsonl", 2.0, seconds=5)
        assert compare.main([base, short]) == 2


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_declared_metric(workload):
    """The real command, shortened: correct outputs, every end-to-end
    and layer metric printed by name, nothing left behind."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(corpus.DEFAULT_SEED), "--trace", "1", "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parents[1])
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert not [ln for ln in lines if ln.startswith("# probes_skipped")]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1

    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: e["unit"] for n, e in result["metrics"].items()} == layer
    assert all(isinstance(e["value"], (int, float))
               for e in result["metrics"].values())
    printed = {ln.split()[0] for ln in lines if not ln.startswith(("#", "{"))}
    assert printed >= set(layer) | {m["name"] for m in SPEC["end_to_end"]}

    values = {n: e["value"] for n, e in result["metrics"].items()}
    assert values["ops_failed"] == 0 and values["transport.leaked"] == 0
    # The runner waited for everything it started and looked for
    # shared-memory segments of its own processes: had it left a child
    # or a segment, it would have said so and reported itself incorrect.
    assert not [ln for ln in lines if ln.startswith("# WRONG")]
    off_path = set(layer) & {n for probe, names in probes.PROBES
                             if probe not in probes.ON_PATH[workload]
                             for n in names}
    assert all(values[n] == 0 for n in off_path)
