"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.apps.registry import APP_REGISTRY, get_app
from repro.cli import main
from repro.core.backends import EXECUTORS
from repro.data.pnm import read_pnm


class TestRegistry:
    def test_all_five_apps_registered(self):
        assert sorted(APP_REGISTRY) == ["2dconv", "debayer", "dwt53",
                                        "histeq", "kmeans"]

    def test_get_unknown_lists_options(self):
        with pytest.raises(KeyError, match="known"):
            get_app("fft")

    @pytest.mark.parametrize("name", sorted(APP_REGISTRY))
    def test_specs_are_runnable(self, name):
        spec = get_app(name)
        image = spec.make_input(32, 0)
        automaton = spec.build(image)
        reference = (spec.reference(image)
                     if spec.reference_kind != "input" else image)
        result = automaton.run_simulated(total_cores=8.0,
                                         schedule=spec.schedule)
        final = result.timeline.final_record(
            automaton.terminal_buffer_name)
        assert spec.metric(final.value, reference) == float("inf")
        if spec.to_image is not None:
            img = spec.to_image(final.value)
            assert np.asarray(img).dtype == np.uint8


class TestCli:
    def test_apps_command(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for name in APP_REGISTRY:
            assert name in out

    def test_run_completes(self, capsys):
        assert main(["run", "2dconv", "--size", "32"]) == 0
        out = capsys.readouterr().out
        assert "completed" in out
        assert "inf" in out

    def test_run_with_deadline(self, capsys):
        assert main(["run", "dwt53", "--size", "32",
                     "--deadline", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "stopped early" in out

    def test_run_with_target_snr(self, capsys):
        assert main(["run", "debayer", "--size", "32",
                     "--target-snr", "12"]) == 0
        out = capsys.readouterr().out
        assert "stopped early" in out or "completed" in out

    def test_run_with_energy_budget(self, capsys):
        assert main(["run", "2dconv", "--size", "32",
                     "--energy-budget", "0.5"]) == 0
        capsys.readouterr()

    def test_run_contract_requires_deadline(self, capsys):
        assert main(["run", "dwt53", "--size", "32",
                     "--contract"]) == 2

    def test_run_contract(self, capsys):
        assert main(["run", "dwt53", "--size", "32",
                     "--deadline", "0.7", "--contract"]) == 0
        out = capsys.readouterr().out
        assert "contract plan" in out

    def test_run_save_image(self, tmp_path, capsys):
        path = tmp_path / "out.ppm"
        assert main(["run", "kmeans", "--size", "32",
                     "--save", str(path)]) == 0
        capsys.readouterr()
        assert read_pnm(path).shape == (32, 32, 3)

    def test_run_rejects_unknown_app(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "unknown-app"])
        capsys.readouterr()

    def test_run_trace_chrome(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["run", "2dconv", "--size", "32",
                     "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        import json
        doc = json.load(open(path))
        events = doc["traceEvents"]
        assert events
        kinds = {e.get("ph") for e in events}
        assert {"B", "E"} <= kinds

    def test_run_trace_jsonl(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["run", "2dconv", "--size", "32",
                     "--trace", str(path),
                     "--trace-format", "jsonl"]) == 0
        capsys.readouterr()
        import json
        events = [json.loads(line)
                  for line in open(path).read().splitlines()]
        assert any(e["kind"] == "accuracy.sample" for e in events)

    def test_run_trace_rejected_in_contract_mode(self, tmp_path,
                                                 capsys):
        assert main(["run", "dwt53", "--size", "32",
                     "--deadline", "0.7", "--contract",
                     "--trace", str(tmp_path / "t.json")]) == 2
        assert "--trace" in capsys.readouterr().err

    def test_figures_selected(self, capsys):
        assert main(["figures", "fig10_organizations"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out

    def test_figures_unknown_name(self, capsys):
        assert main(["figures", "fig99_nonsense"]) == 2
        assert "unknown" in capsys.readouterr().err


class TestExecutorFlag:
    @pytest.mark.parametrize("executor", ["threaded", "process"])
    def test_run_wall_clock_executor(self, executor, capsys):
        assert main(["run", "2dconv", "--size", "32",
                     "--executor", executor,
                     "--timeout-s", "120"]) == 0
        out = capsys.readouterr().out
        assert f"({executor} executor)" in out
        assert "completed" in out
        assert "inf" in out            # reaches the precise output

    def test_run_simulated_rejects_timeout(self, capsys):
        assert main(["run", "2dconv", "--size", "32",
                     "--timeout-s", "5"]) == 2
        assert "--timeout-s" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--deadline", "0.5"],
                                       ["--dynamic"],
                                       ["--contract"]])
    def test_wall_clock_rejects_virtual_time_flags(self, flags, capsys):
        assert main(["run", "2dconv", "--size", "32",
                     "--executor", "process"] + flags) == 2
        assert flags[0] in capsys.readouterr().err


@pytest.mark.timeout(120)
class TestServeCommand:
    def test_in_process_gain_policy(self, capsys):
        assert main(["serve", "--size", "16", "--requests", "4",
                     "--policy", "gain"]) == 0
        out = capsys.readouterr().out
        assert "calibrating 2dconv" in out and "served" in out

    @pytest.mark.parametrize("fleet, flags, named", [
        (["--workers", "2"], ["--trace", "t.json"], "--trace"),
        (["--workers", "2"], ["--policy", "gain"], "--policy gain"),
        (["--endpoints", "127.0.0.1:1"], ["--trace", "t.json"],
         "--trace"),
    ], ids=["workers-trace", "workers-gain", "endpoints-trace"])
    def test_fleet_rejects_in_process_flags(self, fleet, flags, named,
                                            tmp_path, capsys,
                                            monkeypatch):
        from repro import cli
        from repro.serve.router import FleetRouter

        def forbidden(*args, **kwargs):
            raise AssertionError("rejected before calibrating or forking")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "calibrate_app", forbidden)
        monkeypatch.setattr(FleetRouter, "start", forbidden)
        assert main(["serve", "--size", "16"] + fleet + flags) == 2
        assert named in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestWorkerConfig:
    SHARED = ["--slots", "3", "--queue-limit", "5", "--executor",
              "process"]

    def test_equal_flags_give_equal_worker_configs(self, monkeypatch):
        """``serve --workers``, ``serve-worker`` and ``serve-front``
        hand their workers the config of one builder, so the same flags
        configure the same worker; ``serve-front --memo-ttl-s`` is the
        router's memo, not the workers'."""
        from repro import cli
        from repro.serve import router, transport
        from repro.serve.fleet import WORKER_DEFAULTS

        class Handed(Exception):
            """Carries the config a command gave its workers."""

        def router_start(self):
            raise Handed(self.worker_config)

        def listener(listen, config, **kwargs):
            raise Handed({**WORKER_DEFAULTS, **config})

        monkeypatch.setattr(cli, "calibrate_app",
                            lambda **kwargs: {"baseline_wall_s": 1.0})
        monkeypatch.setattr(router.FleetRouter, "start", router_start)
        monkeypatch.setattr(transport, "serve_worker_listener", listener)
        configs = {}
        for argv in (["serve", "--workers", "2"], ["serve-worker"],
                     ["serve-front", "--memo-ttl-s", "7"]):
            argv = argv + self.SHARED
            with pytest.raises(Handed) as handed:
                main(argv)
            built = cli._worker_config_from_args(
                cli.build_parser().parse_args(argv))
            configs[argv[0]] = {**WORKER_DEFAULTS, **built}
            assert handed.value.args[0] == configs[argv[0]], argv[0]
        assert configs["serve"] == configs["serve-worker"] \
            == configs["serve-front"]
        assert configs["serve"]["slots"] == 3
        assert configs["serve-front"]["memo_ttl_s"] \
            == WORKER_DEFAULTS["memo_ttl_s"]


@pytest.mark.check
class TestCheckCommand:
    @pytest.mark.timeout(120)
    def test_check_self_test(self, tmp_path, capsys):
        import json

        path = tmp_path / "selftest.json"
        assert main(["check", "--self-test",
                     "--executors", "simulated",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "violation cases caught" in out
        doc = json.load(open(path))
        assert doc["ok"] is True

    @pytest.mark.timeout(120)
    def test_check_differential_writes_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "conformance.json"
        assert main(["check", "dwt53", "--size", "16",
                     "--executors", "simulated,threaded",
                     "--no-serve", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        doc = json.load(open(path))
        assert doc["ok"] is True
        assert doc["apps"][0]["app"] == "dwt53"

    def test_check_rejects_unknown_app(self, capsys):
        assert main(["check", "fft", "--no-serve"]) == 2
        assert "unknown app" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [
        ["dwt53", "--size", "16", "--no-serve"], ["--self-test"],
        ["--restore", "dwt53", "--size", "16"]],
        ids=["differential", "self-test", "restore"])
    def test_check_rejects_unknown_executor_before_any_leg(self, mode,
                                                            capsys):
        assert main(["check", *mode,
                     "--executors", "simulated,bogus"]) == 2
        captured = capsys.readouterr()
        assert "bogus" in captured.err
        for name in EXECUTORS:
            assert name in captured.err
        assert captured.out == ""

    @pytest.mark.timeout(120)
    def test_check_restore_runs_the_pairs_of_its_executors(self, capsys):
        assert main(["check", "--restore", "dwt53", "--size", "16",
                     "--executors", "threaded"]) == 0
        out = capsys.readouterr().out
        assert out.count(", restore on ") == 1
        assert "across [threaded>threaded]" in out

    def test_check_fleet_rejects_executors_before_any_leg(self, capsys):
        from repro.serve.fleet import WORKER_DEFAULTS

        assert main(["check", "--fleet", "--executors", "bogus"]) == 2
        captured = capsys.readouterr()
        assert WORKER_DEFAULTS["executor"] in captured.err
        assert "--executors" in captured.err
        assert captured.out == ""

    @pytest.mark.slow
    @pytest.mark.timeout(300)
    def test_check_fuzz_smoke(self, tmp_path, capsys, monkeypatch):
        pytest.importorskip("hypothesis")
        monkeypatch.chdir(tmp_path)
        assert main(["check", "--fuzz", "--max-examples", "5"]) == 0
        assert "no falsifying automaton" in capsys.readouterr().out

    @pytest.mark.timeout(120)
    def test_check_replay_round_trip(self, tmp_path, capsys):
        from repro.check.fuzz import save_spec

        spec = {"format": 1, "cores": 4, "faults": None,
                "stop_after": None, "data": list(range(16)),
                "stages": [{"kind": 0, "op": 0, "cost": 5,
                            "inputs": [0], "chunks": 1,
                            "perm": "tree", "sync": False}]}
        path = tmp_path / "seed.json"
        save_spec(spec, str(path))
        assert main(["check", "--replay", str(path)]) == 0
        assert "passed" in capsys.readouterr().out
