import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import acbound
from acbound import bound_engine, cli, verification
from acbound.cli import main
from acbound.entropy_model import ComponentKind, ParameterError
from acbound.quantization import scaled_annex_k
from acbound.transform import level_shift
from acbound.verification import HIGH_COST_SEED_BLOCK, encode_block


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

    @pytest.mark.parametrize("refinement, output, digest", [
        ("base", [], "7c8ed4538525b49b336a64d714c011f3d53f794ce7f585761d29252fa99d06be"),
        ("base", ["--csv"], "4c2478ee038676df6f775279de1197a420c5585e00338835c2ac686d29a012dd"),
        ("base", ["--json"], "762ee01904096aab441dd3a2d71c62b28b2352bc0b3ab94a87a2e00c71688009"),
        ("capacity", [], "b8973ad6a5eed1b45c7848deede8e236ee50282738c47f0f744fd309e963ce8a"),
        ("capacity", ["--csv"],
         "6bb4053720127d9f7046f670461b02cc4168e02ee5920e97a27ff208c5d9e807"),
        ("capacity", ["--json"],
         "1b3307c021e791bd8909a2c8ff497c5245eec7025da517588a3bb013b88ed2f2"),
        ("maxconfig", [], "715dc366ca32e7efc7c066f66a076df5565ce90a2a2746da77541543ca59da9d"),
        ("maxconfig", ["--csv"],
         "718c8ca64593eed98603ca3e4cb592a0355770292e4dc0f5d3a350b1fcb89fe7"),
        ("maxconfig", ["--json"],
         "9ffa483bb97e452a0cf3f29206d0fa4b8ad70d744a700142572b310c2db33cdb"),
        ("best", [], "7862b8ebcf9f43230f158ca2a6777f04260360f8ec53105dde17e1504961edc1"),
        ("best", ["--csv"], "37a61752f55c8dfdff52af3aefab5f202219c7c1cee72abef23584d82fa2b974"),
        ("best", ["--json"], "d3b7c434dc6ffe8326d85ef21dfb03078f134f568bca33059df5e8c5fdb5dd79"),
    ])
    def test_paper_table_pinned_at_every_level(self, capsys, monkeypatch, refinement, output,
                                               digest):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        code, out, _ = run(
            capsys, ["limits", "--sf-set", "paper", "--refinement", refinement] + output
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_invalid_sf(self, capsys):
        code, _, err = run(capsys, ["limits", "--sf", "3/2"])
        assert code == 2
        assert "outside" in err

    def test_invalid_sf_is_reported_before_any_limit(self, capsys, monkeypatch):
        def started(*args):
            raise AssertionError("a limit was computed")

        monkeypatch.setattr(cli, "upper_limit", started)
        code, _, err = run(capsys, ["limits", "--sf", "1", "--sf", "2"])
        assert code == 2
        assert err == "error: scale factor 2 outside [1/64, 1]\n"


# block files the bad-input cases read, written to the working directory
BAD_BLOCK_FILES = {
    "seven_lines.txt": "0 0 0 0 0 0 0 0\n" * 7,
    "short_line.txt": "0 0 0 0 0 0 0 0\n" * 3 + "0 0 0 0 0 0 0\n" + "0 0 0 0 0 0 0 0\n" * 4,
}


@pytest.mark.parametrize("argv", [
    ["verify", "toy", "--n", "0"],
    ["verify", "toy", "--exponents", "7,7"],
    ["verify", "fuzz", "--trials", "0"],
    ["search", "--sf", "1", "--iterations", "0"],
    ["limits", "--json", "--csv"],
    ["limits", "--sf-set", "paper", "--sf", "1"],
    ["verify", "toy", "--n", "64"],
    ["verify", "toy", "--n", "1000000000000"],
    ["search", "--sf", "1", "--iterations", "1000000000000"],
    ["search", "--sf", "1", "--restarts", "1000000000000"],
    ["limits", "--sf", "1.5"],
    ["limits", "--sf", "1/0"],
    ["verify", "toy", "--n", "3", "--exponents", "1,x,2"],
    ["verify", "toy", "--n", "2", "--exponents", "1,2,3"],
    ["verify", "toy", "--n", "2", "--exponents", ""],
    ["verify", "fuzz", "--trials", "10", "--sf", "1", "--seed", "-1"],
    ["search", "--sf", "1", "--seed", "-1"],
    ["encode", "--sf", "1", str(Path(__file__).parent)],
    ["encode", "--sf", "2", "missing.txt"],
    ["encode", "--sf", "1", "seven_lines.txt"],
    ["encode", "--sf", "1", "short_line.txt"],
])
def test_bad_input_exits_2(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in BAD_BLOCK_FILES.items():
        (tmp_path / name).write_text(text)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("sf", ["1e-5000", "1e-10000000"])
@pytest.mark.parametrize("command", [
    ["limits"], ["encode", "missing.txt"], ["search"], ["verify", "deltas"], ["verify", "fuzz"],
], ids=" ".join)
def test_sf_with_a_long_exponent_exits_2_at_once(capsys, command, sf):
    # refused before Fraction expands the exponent, which takes seconds at
    # 1e-10000000 and gives 1e-5000 a denominator str() refuses
    start = time.perf_counter()
    code, out, err = run(capsys, [*command, "--sf", sf])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == f"error: cannot parse scale factor '{sf}': exponent beyond 4300 in magnitude\n"


def test_long_sf_outside_the_range_is_not_shown(capsys):
    code, out, err = run(capsys, ["limits", "--sf", "1e-4300"])
    assert (code, out) == (2, "")
    assert err == "error: scale factor (over 64 bits) outside [1/64, 1]\n"


def test_bad_sf_is_reported_before_the_block_file(capsys):
    code, _, err = run(capsys, ["encode", "--sf", "2", "missing.txt"])
    assert code == 2
    assert err == "error: scale factor 2 outside [1/64, 1]\n"


def test_undecodable_block_file_exits_2(capsys, tmp_path):
    path = tmp_path / "block.bin"
    path.write_bytes(b"\xff\xfe" * 64)
    code, _, err = run(capsys, ["encode", "--sf", "1", str(path)])
    assert code == 2
    assert err.startswith(f"error: cannot read {path}: ")


def test_bad_source_date_epoch_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "soon")
    code, out, err = run(capsys, ["limits", "--sf", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad SOURCE_DATE_EPOCH 'soon'")


def test_a_program_fault_is_not_bad_input(monkeypatch):
    def fault(*args):
        raise ValueError("a fault, not bad input")

    monkeypatch.setattr(cli, "upper_limit", fault)
    with pytest.raises(ValueError, match="a fault"):
        main(["limits", "--sf", "1"])


def test_huge_fuzz_trials_exit_2_before_any_block(capsys, monkeypatch):
    def started(*args):
        raise AssertionError("the fuzz run started")

    monkeypatch.setattr(verification, "structured_extreme_blocks", started)
    code, out, err = run(capsys, ["verify", "fuzz", "--trials", "1000000000000"])
    assert code == 2
    assert out == ""
    assert err == f"error: at most {verification.MAX_TRIALS} trials are supported\n"


@pytest.mark.parametrize("n", ["0", "64", "-1", "1000000000000"])
def test_toy_position_counts_are_refused_as_reference_config_refuses(capsys, n):
    code, out, err = run(capsys, ["verify", "toy", "--n", n])
    assert (code, out) == (2, "")
    for exponents in ([], [0] * 64):
        with pytest.raises(ParameterError) as refused:
            bound_engine.reference_config(ComponentKind.LUMINANCE, exponents)
        assert err == f"error: {refused.value}\n"


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

    @pytest.mark.parametrize("argv, digest", [
        ([], "6a54ba9f80c44cfb69eef58276134fdec93c5331474ccdc00198689cea60994c"),
        (["--json"], "016b2db0f02f1da30ddb29fba9ace73a775e5fe646974ae14b02637d3a43cc7c"),
        (["--sf", "1/64", "--component", "lum"],
         "82f1475a891b03bf37e85da80df0e464fce4dbfa52c710e59bd67bc174833ded"),
        (["--sf", "1/64", "--component", "lum", "--json"],
         "da917354a86cf662226115b3c89a22bac1d31e8a5bbc8240cddc01c2e4f8f3da"),
    ])
    def test_deltas_pinned(self, capsys, monkeypatch, argv, digest):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        code, out, _ = run(capsys, ["verify", "deltas"] + argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_deltas_reads_only_what_the_limit_read(self, capsys, monkeypatch):
        def full_sets(ref):
            raise AssertionError("verify deltas built the full base sets")

        monkeypatch.setattr(bound_engine.ReferenceConfig, "base_sets", property(full_sets))
        for argv in ([], ["--sf", "1/64", "--component", "lum"]):
            code, out, _ = run(capsys, ["verify", "deltas"] + argv)
            assert code == 0
            assert "FAIL" not in out

    def test_deltas_recounts_the_reference_length(self, capsys, monkeypatch):
        # a reference whose stored length is one bit off, which the limit copies
        def off_by_one(component, exponents):
            ref = bound_engine.reference_length(component, exponents)
            return dataclasses.replace(ref, ref_len=ref.ref_len + 1)

        monkeypatch.setattr(cli, "reference_length", off_by_one)
        code, out, _ = run(capsys, ["verify", "deltas"])
        assert code == 1
        assert out.splitlines()[0] == "FAIL reference length (len=350)"

    def test_toy_json_pinned(self, capsys, monkeypatch):
        # a luminance exponent vector of 63 positions, as the CI step runs it
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        exponents = ("3,3,3,3,3,4,3,3,3,4,4,4,4,4,5,4,4,4,4,4,5,5,5,4,5,5,5,5,5,5,5,5,"
                     "5,6,6,6,6,6,6,6,6,5,5,6,6,6,6,6,6,6,6,6,5,6,6,6,6,6,6,6,6,6,6")
        code, out, _ = run(capsys, [
            "verify", "toy", "--n", "63", "--component", "lum", "--exponents", exponents, "--json",
        ])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "12b15b5b698849d1f938d8eb7b76328d55fdba344ff087010e69128cbf15d8f7"
        )

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

    def test_fuzz_json_pinned(self, capsys, monkeypatch):
        # all 14 paper cells; at coarse scale factors most sizes are zero
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        code, out, _ = run(capsys, ["verify", "fuzz", "--trials", "20000", "--seed", "1", "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d3abd8dc2e1e3788bde2341af773d6d09109ff14cd07076229625468de24c556"
        )

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
        line = out.splitlines()[0]
        assert line.startswith("FAIL fuzz luminance sf=1 (max_bits=225 min_slack=-125 block=")
        assert "Traceback" not in err
        # the witness: 64 raw samples in raster order that re-encode to max_bits
        samples = [int(v) for v in line.rstrip(")").split("block=")[1].split(",")]
        assert len(samples) == 64 and all(0 <= v <= 255 for v in samples)
        raw = np.array(samples).reshape(8, 8)
        q = scaled_annex_k(ComponentKind.LUMINANCE, 1)
        assert encode_block(level_shift(raw), q, ComponentKind.LUMINANCE).ac_bits == 225
        code, out, _ = run(capsys, argv + ["--json"])
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["checks"][0]["detail"] == line.split(" (", 1)[1][:-1]

    @pytest.mark.parametrize("flags, seed", [(["--seed", "7"], 7), ([], 0)])
    def test_fuzz_manifest_records_what_ran(self, capsys, flags, seed):
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

    @pytest.mark.parametrize("argv, digest", [
        (["--sf", "1/64", "--restarts", "1", "--iterations", "200", "--seed", "1"],
         "a5beecfaf547e6adfb112769a4bf3c853eca75e5638deea40c483ba8f07c7917"),
        (["--sf", "1", "--component", "chroma", "--restarts", "9", "--iterations", "300",
          "--mutation", "single_pixel", "--seed", "4"],
         "92e198bae964119afa1560dc0056a53425a3726b265ecc8d37f4fe87f23975d8"),
        # long enough to accept moves that change nothing, inside a window
        (["--sf", "1/64", "--component", "chroma", "--restarts", "3", "--iterations", "2000",
          "--seed", "5"],
         "d075b4e9606c7d2664744ace3cca1128212ddc20cb7e7ba12c1ef711500a3a45"),
    ])
    def test_json_pinned(self, capsys, monkeypatch, argv, digest):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        code, out, _ = run(capsys, ["search"] + argv + ["--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
