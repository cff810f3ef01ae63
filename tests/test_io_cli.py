"""ORIFIELD round trips, report/summary files, CLI exit codes."""
import math

import numpy as np
import pytest

from defect_robust import (
    InvalidAngle,
    OrientationField,
    ParseError,
    PeriodMode,
    SweepConfig,
    normalize_and_rank,
    read_field,
    run_sweep,
    write_field,
    write_report,
    write_summary,
)
from defect_robust.cli import main

NEM = PeriodMode.NEMATIC


@pytest.fixture
def field():
    rng = np.random.default_rng(3)
    return OrientationField.from_angles(rng.uniform(0, math.pi, (5, 7)), h=0.5, mode=NEM)


class TestFieldFormat:
    def test_round_trip_bit_exact(self, field, tmp_path):
        p = tmp_path / "f.orif"
        write_field(field, p)
        back = read_field(p)
        assert back.nx == field.nx and back.ny == field.ny
        assert back.h == field.h and back.mode is field.mode
        assert np.array_equal(back.angles, field.angles)

    def test_write_read_write_byte_identical(self, field, tmp_path):
        p1, p2 = tmp_path / "a.orif", tmp_path / "b.orif"
        write_field(field, p1)
        write_field(read_field(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_format(self, field, tmp_path):
        p = tmp_path / "f.orif"
        write_field(field, p)
        assert p.read_text().splitlines()[0] == "ORIFIELD 1 7 5 0.5 nematic"

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.orif"
        p.write_text("NOTAFIELD 1 2 2 1 nematic\n0 0\n0 0\n")
        with pytest.raises(ParseError, match="line 1"):
            read_field(p)

    def test_negative_size_names_line_1(self, tmp_path):
        p = tmp_path / "neg.orif"
        for header in ("ORIFIELD 1 2 -3 1.0 nematic", "ORIFIELD 1 -2 2 1.0 nematic"):
            p.write_text(header + "\n0 0\n0 0\n")
            with pytest.raises(ParseError, match="line 1"):
                read_field(p)

    def test_truncated_row_names_line(self, tmp_path):
        p = tmp_path / "trunc.orif"
        p.write_text("ORIFIELD 1 3 2 1 nematic\n0 0 0\n0 0\n")
        with pytest.raises(ParseError, match="line 3"):
            read_field(p)
        # data after the last row is an error too; trailing blank lines are not
        p.write_text("ORIFIELD 1 3 2 1 nematic\n0 0 0\n0 0 0\n\n9 9 9\nhello\n")
        with pytest.raises(ParseError, match="line 5"):
            read_field(p)
        p.write_text("ORIFIELD 1 3 2 1 nematic\n0 0 0\n0 0 0\n\n  \n")
        assert read_field(p).ny == 2

    def test_missing_row(self, tmp_path):
        p = tmp_path / "short.orif"
        p.write_text("ORIFIELD 1 2 3 1 nematic\n0 0\n0 0\n")
        with pytest.raises(ParseError):
            read_field(p)

    def test_non_finite_angle(self, tmp_path):
        p = tmp_path / "nan.orif"
        p.write_text("ORIFIELD 1 2 2 1 polar\n0 nan\n0 0\n")
        with pytest.raises(InvalidAngle):
            read_field(p)
        p.write_text("ORIFIELD 1 2 2 inf polar\n0 0\n0 0\n")
        with pytest.raises(ValueError, match="finite"):
            read_field(p)

    def test_angles_canonicalized_on_read(self, tmp_path):
        p = tmp_path / "wide.orif"
        p.write_text("ORIFIELD 1 2 2 1 nematic\n-0.5 4.0\n0 0\n")
        f = read_field(p)
        assert f.angles[0, 0] == pytest.approx(math.pi - 0.5)
        assert f.angles[0, 1] == pytest.approx(4.0 - math.pi)


class TestReportFiles:
    def test_report_and_summary_consistent(self, tmp_path):
        cfg = SweepConfig(templates=("single", "2x2"), n_centers=50,
                          noise_amplitudes=(0.0, 0.2), n_noise_realizations=2)
        res = run_sweep(cfg)
        rank = normalize_and_rank(res)
        rpt = tmp_path / "report.csv"
        summ = tmp_path / "summary.txt"
        write_report(res, rpt)
        write_summary(res, rank, summ)

        lines = rpt.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["template", "amplitude", "sample_index", "center_x",
                          "center_y", "charge", "robustness", "normalized_robustness"]
        # 2 templates x (50 clean + 100 noisy) rows
        assert len(lines) - 1 == 2 * (50 + 100)

        # summary stats recomputable from the CSV rows
        rows = [ln.split(",") for ln in lines[1:]]
        r2 = [float(r[6]) for r in rows if r[0] == "2x2" and float(r[1]) == 0.0]
        kv = dict(ln.split(" = ") for ln in summ.read_text().splitlines())
        assert float(kv["2x2.amplitude_0.robustness_mean"]) == pytest.approx(
            np.mean(r2), abs=1e-12)
        assert float(kv["2x2.amplitude_0.robustness_min"]) == pytest.approx(
            np.min(r2), abs=1e-12)
        assert kv["ranking.amplitude_0.1"] in ("single", "2x2")

        # every column parses back to the block's arrays bit for bit; cross and
        # 3x3 (resolutions sqrt(5) and 3) make robustness / resolution inexact,
        # and noise 1.0 moves the charge both up and down
        cfg2 = SweepConfig(templates=("cross", "3x3"), n_centers=30,
                           noise_amplitudes=(0.0, 1.0), n_noise_realizations=3)
        for cfg, res in ((cfg, res), (cfg2, run_sweep(cfg2))):
            write_report(res, rpt)
            write_summary(res, normalize_and_rank(res), summ)
            rows = [ln.split(",") for ln in rpt.read_text().splitlines()[1:]]
            kv = dict(ln.split(" = ") for ln in summ.read_text().splitlines())
            for i, amp in enumerate(cfg.noise_amplitudes):
                for t in cfg.templates:
                    blk = res.block(t.name, amp)
                    assert blk.centers is res.block(t.name, 0.0).centers
                    cols = zip(*(r[2:] for r in rows if r[0] == t.name and float(r[1]) == amp))
                    index, cx, cy, charge, rob, norm = (np.array(c, dtype=float) for c in cols)
                    reps = 1 if amp == 0.0 else cfg.n_noise_realizations
                    assert np.array_equal(index, blk.sample_index)
                    assert np.array_equal(index, np.arange(cfg.n_centers * reps))
                    assert np.array_equal(cx, blk.center_x)
                    assert np.array_equal(cx, np.repeat(blk.centers[:, 0], reps))
                    assert np.array_equal(cy, blk.center_y)
                    assert np.array_equal(cy, np.repeat(blk.centers[:, 1], reps))
                    assert np.array_equal(charge, blk.charge)
                    assert np.array_equal(rob, blk.robustness)
                    assert np.array_equal(norm, blk.normalized)
                    assert np.array_equal(norm, rob / t.resolution)
                    agreement = float(kv[f"{t.name}.amplitude_{i}.charge_agreement"])
                    assert agreement == np.mean(charge == float(cfg.charge))

    def test_rows_sorted(self, tmp_path):
        cfg = SweepConfig(templates=("2x2", "single"), n_centers=10,
                          noise_amplitudes=(0.2, 0.0), n_noise_realizations=2)
        res = run_sweep(cfg)
        rpt = tmp_path / "r.csv"
        write_report(res, rpt)
        keys = [(r.split(",")[0], float(r.split(",")[1]), int(r.split(",")[2]))
                for r in rpt.read_text().splitlines()[1:]]
        assert keys == sorted(keys)


class TestCli:
    def test_generate_then_charge_round_trip(self, tmp_path, capsys):
        out = tmp_path / "f.orif"
        # argparse needs '=' to keep a leading '-' out of option matching
        assert main(["generate", "--charge=-1/2", "--center", "7.4,7.3",
                     "--size", "16,16", "--out", str(out)]) == 0
        assert main(["charge", "--field", str(out), "--template", "3x3",
                     "--at", "6,6"]) == 0
        captured = capsys.readouterr().out
        assert "charge = -1/2" in captured

    def test_robustness_output(self, tmp_path, capsys):
        out = tmp_path / "f.orif"
        main(["generate", "--charge", "1/2", "--center", "7.4,7.3",
              "--size", "16,16", "--out", str(out)])
        assert main(["robustness", "--field", str(out), "--template", "2x2",
                     "--at", "7,7"]) == 0
        text = capsys.readouterr().out
        assert "robustness = " in text and "normalized = " in text

    def test_scan_finds_single_defect(self, tmp_path, capsys):
        out = tmp_path / "f.orif"
        main(["generate", "--charge", "1/2", "--center", "7.4,7.3",
              "--size", "16,16", "--out", str(out)])
        assert main(["scan", "--field", str(out), "--template", "single"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 1
        di, dj, cx, cy, q, r = rows[0].split(",")
        assert (di, dj) == ("7", "7")
        assert float(q) == 0.5

    def test_oracle_subcommand(self, capsys):
        assert main(["oracle", "--template", "2x2", "--charge", "1/2",
                     "--density", "60"]) == 0
        kv = dict(ln.split(" = ") for ln in capsys.readouterr().out.splitlines())
        assert math.pi / 4 - 1e-9 <= float(kv["lower"]) <= float(kv["upper"]) <= math.pi / 2
        # a charge the mode cannot have is a data error, as in sweep, generate and convergence
        for charge, mode in (("1/3", "nematic"), ("1/2", "polar")):
            assert main(["oracle", "--template", "single", "--charge", charge, "--mode", mode]) == 2
            assert f"{mode} charge must be a multiple" in capsys.readouterr().err

    def test_convergence_subcommand(self, capsys):
        assert main(["convergence", "--charge", "1/2", "--sizes", "1,2,4",
                     "--density", "40"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # header + one row per size

    def test_sweep_subcommand_and_determinism(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"templates": ["single", "2x2"], "n_centers": 40,'
                       ' "noise_amplitudes": [0.0, 0.2], "n_noise_realizations": 2}')
        r1, s1 = tmp_path / "r1.csv", tmp_path / "s1.txt"
        r2, s2 = tmp_path / "r2.csv", tmp_path / "s2.txt"
        assert main(["sweep", "--config", str(cfg), "--out", str(r1),
                     "--summary", str(s1)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(r2),
                     "--summary", str(s2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()

    def test_seed_flag_equals_config_base_seed(self, tmp_path, capsys):
        base = '{"templates": ["single"], "n_centers": 20, "noise_amplitudes": [0.0, 0.2], "n_noise_realizations": 2'
        outputs = []
        for flag, key in ((["--seed", "7"], ""), ([], ', "base_seed": 7'), (["--seed", "7"], ', "base_seed": 7')):
            cfg, rpt, summ = tmp_path / "c.json", tmp_path / f"r{len(outputs)}.csv", tmp_path / f"s{len(outputs)}.txt"
            cfg.write_text(base + key + "}")
            assert main([*flag, "sweep", "--config", str(cfg), "--out", str(rpt), "--summary", str(summ)]) == 0
            outputs.append((rpt.read_bytes(), summ.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]
        assert b"base_seed = 7\n" in outputs[0][1]

    def test_usage_errors_exit_1(self, capsys):
        assert main(["bogus"]) == 1
        assert main(["charge", "--field", "x"]) == 1  # missing required flags
        assert main(["generate", "--charge", "1/2", "--center", "nope",
                     "--size", "8,8", "--out", "f"]) == 1
        assert main(["oracle", "--template", "single", "--charge", "1/2", "--mode", "circular"]) == 1

    def test_data_errors_exit_2(self, tmp_path, capsys):
        assert main(["charge", "--field", str(tmp_path / "missing.orif"),
                     "--template", "single", "--at", "0,0"]) == 2
        # the spacing is checked before anything divides by it or scales the centre's range
        for spacing, center in (("0", "0,0"), ("0", "7.4,7.3"), ("nan", "7.4,7.3")):
            assert main(["generate", "--charge", "1/2", "--center", center, "--size", "16,16",
                         "--spacing", spacing, "--out", str(tmp_path / "g.orif")]) == 2
            assert "grid spacing h" in capsys.readouterr().err
        bad = tmp_path / "bad.orif"
        bad.write_text("garbage\n")
        assert main(["robustness", "--field", str(bad), "--template", "single",
                     "--at", "0,0"]) == 2
        cfg = tmp_path / "bad.json"
        for text, named in [("{not json", "property name"), ('{"n_center": 5}', "'n_center'"),
                            ('{"grid": {"nz": 4}}', "'nz'"), ("[1]", "list"),
                            ('{"n_centers": 2.7}', "'n_centers'"),
                            ('{"n_noise_realizations": true}', "'n_noise_realizations'"),
                            ('{"grid": {"nx": 32.0}}', "'nx'"),
                            ('{"templates": "single"}', "'templates'"),
                            ('{"templates": ["single", 3]}', "'templates'"),
                            ('{"noise_amplitudes": [true]}', "'noise_amplitudes'"),
                            ('{"grid": {"h": Infinity}}', "spacing h"),
                            # a global rotation changes no charge or robustness, so the
                            # sweep has no phase: the key is unknown
                            ('{"phase": Infinity}', "unknown key 'phase'"),
                            ('{"noise_amplitudes": [0.0, NaN]}', "noise_amplitudes"),
                            ('{"noise_amplitudes": [0.0, Infinity]}', "noise_amplitudes"),
                            ('{"noise_amplitudes": [0.0, 2.0]}', "'noise_amplitudes'"),  # above P/2
                            ('{"oracle_density": 1}', "'oracle_density'"),
                            ('{"mode": "circular"}', "'mode'"), ('{"charge": true}', "'charge'"),
                            ('{"charge": "1/0"}', "'charge'")]:
            cfg.write_text(text)
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                         "--summary", str(tmp_path / "s.txt")]) == 2
            assert named in capsys.readouterr().err
        # a --seed that differs from the config's base_seed names both
        cfg.write_text('{"templates": ["single"], "n_centers": 2, "noise_amplitudes": [0.0], "base_seed": 5}')
        assert main(["--seed", "1", "sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                     "--summary", str(tmp_path / "s.txt")]) == 2
        err = capsys.readouterr().err
        assert "'base_seed' = 5 differs from seed 1" in err

    def test_unknown_template_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "f.orif"
        main(["generate", "--charge", "1/2", "--center", "3.4,3.3",
              "--size", "8,8", "--out", str(out)])
        assert main(["charge", "--field", str(out), "--template", "blob",
                     "--at", "0,0"]) == 2
        # one fit check, in the estimator, names the grid
        for command in ("charge", "robustness"):
            assert main([command, "--field", str(out), "--template", "3x3", "--at", "6,0"]) == 2
            assert "leaves the field of 8x8 vertices" in capsys.readouterr().err
