import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import acbound
from acbound import cli, verification
from acbound.cli import main
from acbound.entropy_model import ComponentKind
from acbound.verification import HIGH_COST_SEED_BLOCK


@pytest.fixture
def block_file(tmp_path):
    path = tmp_path / "block.txt"
    lines = [" ".join(str(int(v)) for v in row) for row in HIGH_COST_SEED_BLOCK]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects bad usage by exiting
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLimits:
    def test_published_set_text(self, capsys):
        code, out, _ = run(capsys, ["limits", "--sf-set", "paper", "--refinement", "base"])
        assert code == 0
        assert "1134" in out and "1071" in out
        assert "349" in out
        assert out.strip().splitlines()[-1].startswith("# manifest:")

    def test_single_cell(self, capsys):
        code, out, _ = run(capsys, [
            "limits", "--sf", "1", "--component", "chroma", "--refinement", "base",
        ])
        assert code == 0
        assert "349" in out

    def test_csv(self, capsys):
        code, out, _ = run(capsys, [
            "limits", "--sf", "1/64", "--component", "both", "--refinement", "base", "--csv",
        ])
        assert code == 0
        assert "sf,luminance,chrominance" in out
        assert "1/64,1134,1071" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, [
            "limits", "--sf", "1/2", "--component", "lum", "--refinement", "maxconfig", "--json",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["crude_bound"] == 1642
        assert payload["limits"][0]["luminance"]["limit"] == 517
        assert payload["limits"][0]["luminance"]["refinement"] == "maxconfig_pruned"

    def test_byte_stable(self, capsys, monkeypatch):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        argv = ["limits", "--sf-set", "paper", "--refinement", "best", "--json"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second
        data = first.encode()
        assert len(data) == 44933
        assert hashlib.sha256(data).hexdigest() == (
            "d3b7c434dc6ffe8326d85ef21dfb03078f134f568bca33059df5e8c5fdb5dd79"
        )

    def test_invalid_sf(self, capsys):
        code, _, err = run(capsys, ["limits", "--sf", "3/2"])
        assert code == 2
        assert "outside" in err


@pytest.mark.parametrize("argv", [
    ["verify", "toy", "--n", "0"],
    ["verify", "toy", "--exponents", "7,7"],
    ["verify", "fuzz", "--trials", "0"],
    ["search", "--sf", "1", "--iterations", "0"],
    ["limits", "--json", "--csv"],
    ["limits", "--sf-set", "paper", "--sf", "1"],
    ["verify", "toy", "--n", "64"],
])
def test_bad_input_exits_2(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "error" in err
    assert "Traceback" not in err


class TestEncode:
    def test_seed_block_luminance(self, capsys, block_file):
        code, out, _ = run(capsys, [
            "encode", block_file, "--sf", "1/64", "--component", "lum",
        ])
        assert code == 0
        assert "ac bits:        999" in out

    def test_seed_block_chroma_json(self, capsys, block_file):
        code, out, _ = run(capsys, [
            "encode", block_file, "--sf", "1/64", "--component", "chroma", "--json",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["ac_bits"] == 936

    def test_constant_block(self, capsys, tmp_path):
        path = tmp_path / "flat.txt"
        path.write_text("\n".join(" ".join(["128"] * 8) for _ in range(8)) + "\n")
        code, out, _ = run(capsys, [
            "encode", str(path), "--sf", "1/2", "--component", "lum",
        ])
        assert code == 0
        assert "ac bits:        4" in out

    def test_parse_error_carries_position(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        rows = [" ".join(["10"] * 8) for _ in range(8)]
        rows[2] = "10 10 10 oops 10 10 10 10"
        path.write_text("\n".join(rows) + "\n")
        code, _, err = run(capsys, ["encode", str(path), "--sf", "1", "--component", "lum"])
        assert code == 2
        assert ":3:4:" in err

    def test_block_file_is_closed(self, block_file):
        # an unclosed file only warns when it is collected, so run a fresh interpreter
        src = str(Path(acbound.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "acbound.cli", "encode", block_file, "--sf", "1"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0
        assert "ResourceWarning" not in proc.stderr

    def test_out_of_range_sample(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        rows = [" ".join(["10"] * 8) for _ in range(8)]
        rows[7] = "10 10 10 10 10 10 10 300"
        path.write_text("\n".join(rows) + "\n")
        code, _, err = run(capsys, ["encode", str(path), "--sf", "1", "--component", "lum"])
        assert code == 2
        assert "outside 0..255" in err


def render_check(check):
    suffix = f" ({check['detail']})" if check["detail"] else ""
    return f"{'PASS' if check['ok'] else 'FAIL'} {check['name']}{suffix}"


class TestVerify:
    def test_deltas_suite(self, capsys):
        code, out, _ = run(capsys, ["verify", "deltas", "--sf", "1", "--component", "chroma"])
        assert code == 0
        assert "PASS losses 2n-1" in out
        assert "FAIL" not in out

    def test_toy_suite(self, capsys):
        code, out, _ = run(capsys, ["verify", "toy", "--n", "2"])
        assert code == 0
        assert out.count("PASS") == 2

    def test_toy_with_exponents(self, capsys):
        code, out, _ = run(capsys, [
            "verify", "toy", "--n", "2", "--exponents", "0,1", "--component", "chroma",
        ])
        assert code == 0

    def test_fuzz_suite(self, capsys):
        code, out, _ = run(capsys, [
            "verify", "fuzz", "--trials", "500", "--seed", "7",
            "--sf", "1/4", "--component", "lum",
        ])
        assert code == 0
        assert "min_slack" in out

    def test_json_reporting(self, capsys):
        code, out, _ = run(capsys, ["verify", "toy", "--n", "2", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert all(check["ok"] for check in payload["checks"])
        assert len(payload["checks"]) == 2

    @pytest.mark.parametrize("argv", [["verify", "deltas"], ["verify", "toy", "--n", "2"]])
    def test_json_checks_match_text_lines(self, capsys, argv):
        _, text, _ = run(capsys, argv)
        _, out, _ = run(capsys, argv + ["--json"])
        rendered = [render_check(check) for check in json.loads(out)["checks"]]
        assert rendered == text.splitlines()[:-1]

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        def toy_oracle(n_positions, component, exponents=None):
            # the luminance instance claims a block longer than its limit
            return (120, 100) if component is ComponentKind.LUMINANCE else (90, 100)

        monkeypatch.setattr(cli, "toy_oracle", toy_oracle)
        code, out, _ = run(capsys, ["verify", "toy", "--n", "2"])
        assert code == 1
        assert out.splitlines()[:2] == [
            "FAIL toy n=2 luminance (exact=120 limit=100 gap=-20)",
            "PASS toy n=2 chrominance (exact=90 limit=100 gap=10)",
        ]
        code, out, _ = run(capsys, ["verify", "toy", "--n", "2", "--json"])
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert [check["ok"] for check in payload["checks"]] == [False, True]

    def test_fuzz_violation_is_a_failed_check(self, capsys, monkeypatch):
        monkeypatch.setattr(verification, "upper_limit", lambda *args: SimpleNamespace(limit=100))
        argv = ["verify", "fuzz", "--trials", "300", "--sf", "1", "--component", "lum"]
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out.splitlines()[0] == "FAIL fuzz luminance sf=1 (max_bits=225 min_slack=-125)"
        assert "Traceback" not in err
        code, out, _ = run(capsys, argv + ["--json"])
        assert code == 1
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize("env_seed, flags, seed", [
        ("5", [], 5), (None, ["--seed", "7"], 7), (None, [], 0),
    ])
    def test_fuzz_manifest_records_what_ran(self, capsys, monkeypatch, env_seed, flags, seed):
        if env_seed is None:
            monkeypatch.delenv("ACBOUND_SEED", raising=False)
        else:
            monkeypatch.setenv("ACBOUND_SEED", env_seed)
        code, out, _ = run(capsys, [
            "verify", "fuzz", "--trials", "100", "--sf", "1", "--component", "lum", "--json",
        ] + flags)
        assert code == 0
        manifest = json.loads(out)["manifest"]
        assert manifest["seed"] == seed
        assert manifest["parameters"] == {
            "suite": "fuzz", "trials": 100, "sf": "1", "component": "lum",
        }

    def test_toy_manifest_records_its_instance(self, capsys):
        _, out, _ = run(capsys, ["verify", "toy", "--n", "3", "--exponents", "0,1,2", "--json"])
        manifest = json.loads(out)["manifest"]
        assert manifest["seed"] is None
        assert manifest["parameters"] == {
            "suite": "toy", "n": 3, "component": "both", "exponents": "0,1,2",
        }


class TestSearch:
    def test_seeded_search(self, capsys):
        code, out, _ = run(capsys, [
            "search", "--sf", "1/64", "--component", "lum",
            "--iterations", "30", "--restarts", "1", "--seed", "9",
        ])
        assert code == 0
        assert "best ac bits:" in out

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("ACBOUND_SEED", "21")
        code, out, _ = run(capsys, [
            "search", "--sf", "1/2", "--component", "chroma",
            "--iterations", "20", "--restarts", "1",
        ])
        assert code == 0
        assert '"seed": 21' in out
