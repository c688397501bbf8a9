"""CLI commands, driven through main() with temp files."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.jpeg import EncoderSettings, decode_jpeg, encode_jpeg, parse_jpeg

CORPUS = Path(__file__).resolve().parents[1] / "benchmarks/perf/corpus"


@pytest.fixture()
def jpeg_file(tmp_path, jpeg_422):
    path = tmp_path / "img.jpg"
    path.write_bytes(jpeg_422)
    return path


class TestInfo:
    def test_prints_header_facts(self, jpeg_file, capsys):
        assert main(["info", str(jpeg_file)]) == 0
        out = capsys.readouterr().out
        assert "144 x 96" in out
        assert "4:2:2" in out
        assert "bytes/pixel" in out


class TestSynth:
    def test_generates_valid_jpeg(self, tmp_path, capsys):
        out_path = tmp_path / "gen.jpg"
        assert main(["synth", str(out_path), "--width", "96", "--height",
                     "64", "--seed", "3"]) == 0
        info = parse_jpeg(out_path.read_bytes())
        assert (info.width, info.height) == (96, 64)

    def test_restart_interval_flag(self, tmp_path):
        out_path = tmp_path / "rst.jpg"
        main(["synth", str(out_path), "--width", "64", "--height", "64",
              "--restart-interval", "2"])
        assert parse_jpeg(out_path.read_bytes()).restart_interval == 2

    def test_kinds(self, tmp_path):
        for kind in ("smooth", "detail", "skewed"):
            out_path = tmp_path / f"{kind}.jpg"
            assert main(["synth", str(out_path), "--kind", kind,
                         "--width", "48", "--height", "48"]) == 0


def _read_ppm(path):
    with open(path, "rb") as f:
        assert f.readline().strip() == b"P6"
        w, h = map(int, f.readline().split())
        assert f.readline().strip() == b"255"
        return np.frombuffer(f.read(), dtype=np.uint8).reshape(h, w, 3)


class TestDecode:
    def test_reference_decode_to_ppm(self, jpeg_file, tmp_path, jpeg_422):
        out_path = tmp_path / "out.ppm"
        assert main(["decode", str(jpeg_file), str(out_path)]) == 0
        assert np.array_equal(_read_ppm(out_path), decode_jpeg(jpeg_422).rgb)

    def test_pps_decode_matches_reference(self, jpeg_file, tmp_path,
                                          jpeg_422, capsys):
        out_path = tmp_path / "out.ppm"
        assert main(["decode", str(jpeg_file), str(out_path),
                     "--mode", "pps", "--platform", "GTX 560"]) == 0
        assert "simulated pps decode" in capsys.readouterr().out
        assert np.array_equal(_read_ppm(out_path), decode_jpeg(jpeg_422).rgb)


class TestProfileEvaluate:
    def test_profile_saves_model(self, tmp_path, capsys):
        out_path = tmp_path / "model.json"
        assert main(["profile", "--platform", "GTX 560",
                     "--output", str(out_path)]) == 0
        from repro.core import PerformanceModel
        model = PerformanceModel.load(out_path)
        assert model.platform_name == "GTX 560"

    def test_evaluate_lists_all_modes(self, tmp_path, small_rgb, capsys):
        """Every mode gets a row with its speed relative to SIMD; on a
        geometry the GPU kernels do not cover (4:2:0), the GPU modes
        read n/a and the command still succeeds."""
        for subsampling in ("4:2:0", "4:2:2"):
            path = tmp_path / "img.jpg"
            path.write_bytes(encode_jpeg(small_rgb, EncoderSettings(
                quality=85, subsampling=subsampling)))
            assert main(["evaluate", str(path)]) == 0, subsampling
            rows = dict(line.split(None, 1)
                        for line in capsys.readouterr().out.splitlines()[1:])
            assert list(rows) == ["sequential", "simd", "gpu", "pipeline",
                                  "sps", "pps"]
            assert rows["simd"].endswith(" 1.00x")
            sequential = float(rows["sequential"].split()[-1].rstrip("x"))
            assert 0.3 < sequential < 0.7
            for mode in ("gpu", "pipeline", "sps", "pps"):
                assert rows[mode].startswith("n/a") == (
                    subsampling == "4:2:0"), (subsampling, mode)


class TestServeBatch:
    def test_serve_batch_schedules_nothing(self, jpeg_file, tmp_path,
                                           jpeg_422, capsys):
        """A local session has one pool, so there is no placement to
        choose: no serving command takes ``--schedule``, and serve-batch
        reports no schedule."""
        parser = build_parser()
        for command in ("serve-batch", "serve", "serve-worker"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--schedule", "model"])
        capsys.readouterr()
        out_dir = tmp_path / "out"
        assert main(["serve-batch", str(jpeg_file), "--backend", "serial",
                     "--out-dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "schedule" not in out
        (ppm,) = sorted(out_dir.glob("*.ppm"))
        assert np.array_equal(_read_ppm(ppm), decode_jpeg(jpeg_422).rgb)

    def test_serve_batch_decodes_420(self, tmp_path, capsys):
        """A 4:2:0 frame, outside the GPU kernels' scope, decodes through
        serve-batch like any other: every image runs ``decode_jpeg``,
        and the service takes no decode mode."""
        src = CORPUS / "small00.jpg"
        assert parse_jpeg(src.read_bytes()).subsampling_mode == "4:2:0"
        out_dir = tmp_path / "out"
        assert main(["serve-batch", str(src),
                     "--backend", "thread", "--workers", "2",
                     "--out-dir", str(out_dir)]) == 0
        assert "FAIL" not in capsys.readouterr().err
        (ppm,) = sorted(out_dir.glob("*.ppm"))
        assert np.array_equal(_read_ppm(ppm),
                              decode_jpeg(src.read_bytes()).rgb)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-batch", str(src),
                                       "--mode", "gpu"])


    def test_backpressure_paces_the_submits(self, jpeg_file, tmp_path,
                                            jpeg_422):
        """A one-slot queue: each submit waits for the pump, and every
        repeat is still reported and written."""
        out_dir = tmp_path / "out"
        assert main(["serve-batch", str(jpeg_file), "--repeat", "4",
                     "--queue-capacity", "1", "--backend", "serial",
                     "--out-dir", str(out_dir)]) == 0
        ppms = sorted(out_dir.glob("*.ppm"))
        assert len(ppms) == 4
        want = decode_jpeg(jpeg_422).rgb
        assert all(np.array_equal(_read_ppm(p), want) for p in ppms)

    def test_missed_deadline_is_a_failure(self, jpeg_file, capsys):
        """A request shed at admission is reported and fails the run."""
        assert main(["serve-batch", str(jpeg_file), "--backend", "serial",
                     "--default-deadline-ms", "0.001"]) == 1
        err = capsys.readouterr().err
        assert "FAIL" in err and "DeadlineExceededError" in err


class TestRefusedConfiguration:
    """A configuration the service refuses ends in one ``repro: error:``
    line and argparse's exit status, not a traceback."""

    @pytest.mark.parametrize("flags", [
        ["--retry-budget", "-1"],
        ["--workers", "0"],
        ["--queue-capacity", "0"],
        ["--default-deadline-ms", "0"],
    ])
    def test_one_line_and_exit_status_2(self, jpeg_file, flags, capsys):
        assert main(["serve-batch", str(jpeg_file), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: error: ServiceError: ")
        assert captured.err.count("\n") == 1

    def test_serve_names_the_shard_depth(self, capsys):
        """--shard-depth 0 is refused as the depth it is, not as the
        worker count of the host pool it would open."""
        assert main(["serve", "--hosts", "127.0.0.1:1",
                     "--shard-depth", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("repro: error: ServiceError: shard depth "
                                "must be positive, got 0\n")

    @pytest.mark.parametrize("flag, value", [
        ("--platform", "GT 430"), ("--breaker-threshold", "5")])
    def test_serve_refuses_lane_flags_without_hosts(self, flag, value,
                                                    capsys):
        """The flags that tune worker-host lanes mean nothing to a
        local session: without ``--hosts`` they are refused, not
        ignored."""
        assert main(["serve", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"repro: error: ServiceError: {flag} tunes "
                                f"the worker-host lanes and needs --hosts\n")


class TestSessionFlags:
    """serve-batch / serve / serve-worker take the session flags from
    one declaration and turn them into one keyword set."""

    SHARED = ("queue_capacity", "workers", "backend", "retry_budget",
              "tracing", "trace_sample", "trace_log")

    def test_shared_flags_parse_to_identical_defaults(self):
        from repro.cli import _session_kwargs, build_parser

        parser = build_parser()
        parsed = [vars(parser.parse_args([command])) for command in
                  ("serve-batch", "serve", "serve-worker")]
        defaults = [{name: args[name] for name in self.SHARED}
                    for args in parsed]
        assert defaults[0] == defaults[1] == defaults[2]
        assert defaults[0]["queue_capacity"] == 32
        kwargs = [_session_kwargs(parser.parse_args([command]))
                  for command in ("serve-batch", "serve", "serve-worker")]
        assert kwargs[0] == kwargs[1] == kwargs[2]

    def test_one_spelling_per_command_for_the_group_size(self):
        """The group size is spelled once, as ``session.MAX_GROUP``: no
        command parses a flag for it, nor for a hold timer."""
        from repro.cli import build_parser
        from repro.service.session import MAX_GROUP

        assert MAX_GROUP == 8
        parser = build_parser()
        for command in ("serve-batch", "serve", "serve-worker"):
            assert not [dest for dest in vars(parser.parse_args([command]))
                        if "batch" in dest or "group" in dest]
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--max-delay-ms", "1"])

    def test_serve_hosts_builds_a_plain_session_over_remote_lanes(self):
        from repro.cli import _serve_session, build_parser
        from repro.service import DecodeSession
        from repro.service.remote import HostPool

        args = build_parser().parse_args(
            ["serve", "--hosts", "a:1,b:2", "--shard-depth", "3",
             "--breaker-threshold", "5", "--platform", "GT 430"])
        session = _serve_session(args)      # connects to nothing yet
        try:
            assert type(session) is DecodeSession
            scheduler = session.decoder.scheduler
            assert scheduler.breakers.threshold == 5
            assert [lane.endpoint for lane in scheduler.executors] \
                == ["a:1", "b:2"]
            assert all(lane.depth == 3 for lane in scheduler.executors)
            # --platform names the hosts' pricing prior too.
            assert {lane.platform.name for lane in scheduler.executors} \
                == {"GT 430"}
            links = session.decoder.links
            assert list(links) == [lane.name for lane in scheduler.executors]
            assert all(type(link) is HostPool for link in links.values())
            assert [link.workers for link in links.values()] == [3, 3]
            # The local fallback pool stays small whatever the flags say.
            assert (session.decoder.pool.backend,
                    session.decoder.pool.workers) == ("serial", 1)
        finally:
            session.close(drain=False)

    def test_shard_depth_defaults_to_the_lanes_own(self):
        from repro.cli import _serve_session, build_parser
        from repro.service.remote import RemoteLane

        session = _serve_session(
            build_parser().parse_args(["serve", "--hosts", "a:1"]))
        try:
            (lane,) = session.decoder.scheduler.executors
            assert lane.depth == RemoteLane.depth
        finally:
            session.close(drain=False)
