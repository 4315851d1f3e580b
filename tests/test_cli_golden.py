"""Golden CLI outputs: the runtime port must not move a byte.

The files under ``tests/golden/`` were captured from the pre-runtime
CLI (the one that inlined ``_simulate_once``/``_router_simulate_once``
per command).  Every test here replays the exact generating command
through today's scenario-dispatched CLI and compares byte-for-byte --
stdout for ``--json``/table output, the written file for
``--metrics-out``.  Plus the new runtime-only behaviours: a cached
rerun and a shard-merged sweep reproduce the same bytes.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text()


def run_cli(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


SIMULATE_SWITCH = ["simulate", "--load", "0.7", "--duration-us", "10", "--seed", "3"]
SIMULATE_ROUTER = ["simulate", "--switches", "2", "--load", "0.7", "--duration-us", "10", "--seed", "3"]
SWEEP_SWITCH = ["sweep", "--loads", "0.4,0.8", "--duration-us", "10", "--seed", "3"]
SWEEP_ROUTER = ["sweep", "--switches", "2", "--loads", "0.4,0.8", "--duration-us", "10", "--seed", "3"]
FAULTS_SINGLE = [
    "faults", "--switches", "2", "--load", "0.6", "--duration-us", "20",
    "--seed", "3", "--fault", "switch:1@2000-8000",
]
ATTACK_BOTH = [
    "attack", "--strategy", "known-assignment", "--switches", "4",
    "--ribbons", "4", "--trials", "2", "--seed", "5", "--duration-us", "4",
]


class TestGoldenStdout:
    def test_simulate_switch_json(self, capsys):
        out = run_cli(capsys, SIMULATE_SWITCH + ["--json"])
        assert out == golden_text("simulate_switch.json")

    def test_simulate_router_json(self, capsys):
        out = run_cli(capsys, SIMULATE_ROUTER + ["--json"])
        assert out == golden_text("simulate_router.json")

    def test_sweep_switch_table(self, capsys):
        out = run_cli(capsys, SWEEP_SWITCH)
        assert out == golden_text("sweep_switch.txt")

    def test_sweep_router_table(self, capsys):
        out = run_cli(capsys, SWEEP_ROUTER)
        assert out == golden_text("sweep_router.txt")

    def test_faults_single_json(self, capsys):
        out = run_cli(capsys, FAULTS_SINGLE + ["--json"])
        assert out == golden_text("faults_single.json")

    def test_faults_campaign_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the golden ends "wrote faults_campaign.json"
        out = run_cli(capsys, [
            "faults", "--switches", "2", "--campaign", "3", "--load", "0.6",
            "--duration-us", "20", "--seed", "3", "--json",
            "--out", "faults_campaign.json",
        ])
        assert out == golden_text("faults_campaign_stdout.txt")
        # The written document is the stdout document.
        written = (tmp_path / "faults_campaign.json").read_text()
        assert out.startswith(written.rstrip("\n").split("\n")[0])

    def test_attack_both_json(self, capsys):
        out = run_cli(capsys, ATTACK_BOTH + ["--json"])
        assert out == golden_text("attack_both.json")

    def test_metrics_cmd_jsonl(self, capsys):
        out = run_cli(capsys, [
            "metrics", "--switches", "2", "--duration-us", "10",
            "--format", "jsonl",
        ])
        assert out == golden_text("metrics_cmd.jsonl")


class TestGoldenMetricsFiles:
    @pytest.mark.parametrize(
        "base, golden",
        [
            (SIMULATE_SWITCH, "simulate_switch_metrics.jsonl"),
            (SIMULATE_ROUTER, "simulate_router_metrics.jsonl"),
            (SWEEP_SWITCH, "sweep_switch_metrics.jsonl"),
            (SWEEP_ROUTER, "sweep_router_metrics.jsonl"),
            (FAULTS_SINGLE, "faults_single_metrics.jsonl"),
            (ATTACK_BOTH, "attack_metrics.jsonl"),
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_metrics_out_matches(self, capsys, tmp_path, base, golden):
        out_path = tmp_path / "metrics.jsonl"
        run_cli(capsys, base + ["--metrics-out", str(out_path)])
        assert out_path.read_text() == golden_text(golden)


class TestRuntimeBehaviours:
    def test_cached_rerun_is_byte_identical(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        cold = run_cli(capsys, SIMULATE_SWITCH + ["--json", "--cache-dir", cache])
        warm = run_cli(capsys, SIMULATE_SWITCH + ["--json", "--cache-dir", cache])
        assert cold == warm == golden_text("simulate_switch.json")

    def test_shard_merge_matches_golden(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        for k in range(2):
            run_cli(capsys, SWEEP_SWITCH + ["--cache-dir", cache, "--shard", f"{k}/2"])
        merged = run_cli(capsys, SWEEP_SWITCH + ["--cache-dir", cache])
        assert merged == golden_text("sweep_switch.txt")
