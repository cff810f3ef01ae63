"""ORIFIELD round trips, report/summary files, CLI exit codes."""
import dataclasses
import hashlib
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import defect_robust
from defect_robust import (
    InvalidAngle,
    NoiseSpec,
    OrientationField,
    ParseError,
    PeriodMode,
    SweepConfig,
    add_noise,
    builtin_template,
    normalize_and_rank,
    read_field,
    run_sweep,
    winding,
    write_field,
    write_report,
    write_summary,
)
from defect_robust import fieldio
from defect_robust.cli import main
from defect_robust.fieldio import _fmt, _g17

NEM = PeriodMode.NEMATIC


def _report_reference(result):
    """The report as formatted one float at a time, every float ``%.17g``."""
    text = "template,amplitude,sample_index,center_x,center_y,charge,robustness,normalized_robustness\n"
    for key in sorted(result.blocks):
        b = result.blocks[key]
        prefix = f"{b.template},{b.amplitude:.17g},"
        cols = (b.sample_index, b.center_x, b.center_y, b.charge, b.robustness, b.normalized)
        text += "".join(prefix + "%d,%.17g,%.17g,%.17g,%.17g,%.17g\n" % row
                        for row in zip(*(c.tolist() for c in cols)))
    return text.encode()


def _scan_reference(field, template):
    """The scan CSV from ``winding`` on each placement's directly indexed
    vertex angles, every placement in row-major order."""
    xs, ys = zip(*template.boundary.vertices)
    ii, jj = np.array(xs), np.array(ys)
    text = "offset_i,offset_j,center_x,center_y,charge,robustness\n"
    for dj in range(-min(ys), field.ny - max(ys)):
        for di in range(-min(xs), field.nx - max(xs)):
            _, k, _, per_edge = winding(field.angles[jj + dj, ii + di], field.mode)
            if k != 0:
                cx = sum(i + di for i in xs) / len(xs) * field.h
                cy = sum(j + dj for j in ys) / len(ys) * field.h
                text += "%d,%d,%.17g,%.17g,%.17g,%.17g\n" % (
                    di, dj, cx, cy, int(k) / field.mode.periods_per_turn, per_edge.min())
    return text


@pytest.fixture
def field():
    rng = np.random.default_rng(3)
    return OrientationField.from_angles(rng.uniform(0, math.pi, (5, 7)), h=0.5, mode=NEM)


_POWERS_OF_TEN = [float(f"1e{k}") for k in range(-5, 18)]
#: Exact ties at the 17th significant digit, (2m+1)/2**s with 18 significant
#: digits, rounded down (to even) and up.
_TIES = [4938271560493825 / 2**2, 4938271560493827 / 2**2, 987654312098761 / 2**3, 987654312098763 / 2**3,
         100001 / 2**18, 100003 / 2**18, 131071 / 2**18, 131073 / 2**18, 131075 / 2**18]


@given(st.lists(st.one_of(st.floats(), st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(min_value=1e-5, max_value=1e17)), min_size=1, max_size=40))
# each power of ten and its two float neighbours: the kernel's exponent
# estimate and its correction meet there
@example([v for p in _POWERS_OF_TEN for v in (np.nextafter(p, 0.0), p, np.nextafter(p, math.inf))])
@example(_TIES)
# log10 reads the next power's exponent for the first two; the last, below 1e-4, is in exponent form
@example([0.099999999999999992, 99.999999999999986, 9.9999999999999995e-05])
@example([0.0, -0.0, 5e-324, -5e-324, -0.5, -1e300, 1.5])
@example([math.nan, -math.inf, 0.0])
def test_g17_is_percent_17g(values):
    text = _g17(np.array(values))
    assert text.dtype == np.uint8 and text.shape[0] == len(values)
    assert [bytes(row[row != 0]).decode() for row in text] == ["%.17g" % v for v in values]
    assert _fmt(values[0]) == "%.17g" % values[0]


def test_g17_is_percent_17g_at_scale():
    # 9,000 doubles in each decade of [1e-5, 1e17] (a third of them rounded to
    # 1-5 significant digits, so that their fractions end in zeros) and 20,000
    # robustness values in [0, pi/2]: 218,000 values in all
    rng = np.random.default_rng(2024)
    decades = [10.0 ** k * rng.uniform(1.0, 10.0, 9000) for k in range(-5, 17)]
    for d in decades:
        d[::3] = [float("%.*g" % (digits, v)) for digits, v in zip(rng.integers(1, 6, len(d[::3])).tolist(), d[::3])]
    values = np.concatenate(decades + [rng.uniform(0.0, math.pi / 2, 20_000)])
    assert len(values) >= 200_000
    text = fieldio._text(fieldio._hcat(len(values), *fieldio._g17_parts(values), b"\n")).decode()
    assert text == "".join("%.17g\n" % v for v in values.tolist())


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
        # the text is each angle's %.17g, one float at a time; 0 and a
        # subnormal take the kernel's other path
        angles = field.angles.copy()
        angles[0, :2] = (0.0, 5e-324)
        field = field.with_angles(angles)
        write_field(field, p1)
        lines = ["ORIFIELD 1 7 5 0.5 nematic"] + [" ".join("%.17g" % a for a in row) for row in field.angles.tolist()]
        assert p1.read_text() == "\n".join(lines) + "\n"

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

    def test_size_below_2_names_line_1(self, tmp_path):
        p = tmp_path / "small.orif"
        for header in ("ORIFIELD 1 1 0 1.0 nematic", "ORIFIELD 1 0 2 1.0 nematic", "ORIFIELD 1 2 1 1.0 polar"):
            p.write_text(header + "\n0 0\n0 0\n")
            with pytest.raises(ParseError, match="line 1: grid size") as info:
                read_field(p)
            assert str(info.value).startswith(f"{p}: ")

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
        with pytest.raises(ParseError, match="line 1: grid spacing h"):
            read_field(p)

    @pytest.mark.parametrize("h", ["nan", "inf", "0", "-1"])
    def test_bad_spacing_names_line_1(self, h, tmp_path):
        p = tmp_path / "h.orif"
        p.write_text(f"ORIFIELD 1 2 2 {h} nematic\n0 0\n0 0\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(p))}: line 1: grid spacing h must be positive and finite, got"):
            read_field(p)

    def test_unparsable_input_names_its_line(self, tmp_path):
        p = tmp_path / "bad.orif"
        for text, message in (("", "line 1: empty file"),
                              ("ORIFIELD 1 a 2 1 nematic\n0 0\n0 0\n", "line 1: "),
                              ("ORIFIELD 1 2 2 1 nematic\n0 x\n0 0\n", "line 2: row 0 contains a non-numeric value")):
            p.write_text(text)
            with pytest.raises(ParseError, match=f"^{re.escape(str(p))}: {message}"):
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
        # and noise 1.0 moves the charge both up and down.  Both template
        # orders are unsorted, and the file is byte-equal to the reference.
        cfg2 = SweepConfig(templates=("cross", "3x3"), n_centers=30,
                           noise_amplitudes=(0.0, 1.0), n_noise_realizations=3)
        for cfg, res in ((cfg, res), (cfg2, run_sweep(cfg2))):
            write_report(res, rpt)
            assert rpt.read_bytes() == _report_reference(res)
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
                    assert kv[f"{t.name}.amplitude_{i}.robustness_max"] == "%.17g" % blk.robustness.max()
                assert kv[f"amplitude.{i}"] == "%.17g" % amp
            for t in cfg.templates:
                assert kv[f"{t.name}.resolution"] == "%.17g" % t.resolution

    def test_report_bytes_for_hand_built_blocks(self, tmp_path):
        # counts no sweep of these templates reaches, the type's largest among
        # them, and centres shared by no other block are formatted as they are
        cfg = SweepConfig(templates=("single", "2x2"), n_centers=4,
                          noise_amplitudes=(0.0, 0.2), n_noise_realizations=2)
        res = run_sweep(cfg)
        blk = res.block("2x2", 0.2)
        winding = np.resize(np.array([-3, -1, 0, 1, 2, 127], dtype=blk.winding.dtype), blk.winding.shape)
        res.blocks[("2x2", 0.2)] = dataclasses.replace(blk, winding=winding, centers=blk.centers + 0.25)
        rpt = tmp_path / "r.csv"
        write_report(res, rpt)
        assert rpt.read_bytes() == _report_reference(res)
        rows = [r.split(",") for r in rpt.read_text().splitlines() if r.startswith("2x2,0.2")]
        assert [r[5] for r in rows] == ["-1.5", "-0.5", "0", "0.5", "1", "63.5", "-1.5", "-0.5"]

    def test_report_bytes_for_edge_blocks(self, tmp_path):
        # robustness 0, subnormal, below 1e-4, negative, non-finite and at least
        # 1e16 is written by Python beside the numpy kernel's text in one call
        # for both float columns (up to 24 bytes a value); a block longer than
        # every other, over several chunks, needs the whole cached index column
        cfg = SweepConfig(templates=("single", "2x2"), n_centers=3,
                          noise_amplitudes=(0.0, 0.2), n_noise_realizations=2)
        res = run_sweep(cfg)
        edge = [0.0, 5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308, 9.9999999999999995e-05,
                1e-5, 1e-4, 0.5, math.pi / 2, 1e16, 1.5e300, math.inf, math.nan]
        blk = res.block("2x2", 0.2)
        res.blocks[("2x2", 0.2)] = dataclasses.replace(blk, robustness=np.resize(edge, len(blk.robustness)))
        blk = res.block("single", 0.2)
        rows = 3 * 4000
        assert rows > 2 * fieldio._CHUNK_ROWS
        robustness = np.random.default_rng(5).uniform(0.0, 1.6, rows)
        robustness[::1000] = 0.0
        res.blocks[("single", 0.2)] = dataclasses.replace(blk, robustness=robustness,
                                                          winding=np.resize(blk.winding, rows))
        rpt = tmp_path / "r.csv"
        write_report(res, rpt)
        assert rpt.read_bytes() == _report_reference(res)
        last = rpt.read_text().splitlines()[-1]
        assert last.split(",")[:3] == ["single", "0.20000000000000001", str(rows - 1)]
        assert len([r for r in rpt.read_text().splitlines() if r.startswith("single,0.2")]) == rows

    def test_report_bytes_for_a_polar_sweep(self, tmp_path):
        cfg = SweepConfig(templates=("single", "3x3"), n_centers=40, noise_amplitudes=(0.0, 0.5),
                          n_noise_realizations=3, mode=PeriodMode.POLAR, charge=-1)
        res = run_sweep(cfg)
        rpt = tmp_path / "r.csv"
        write_report(res, rpt)
        assert rpt.read_bytes() == _report_reference(res)
        assert {r.split(",")[5] for r in rpt.read_text().splitlines()[1:]} >= {"-1"}

    def test_rows_sorted(self, tmp_path):
        cfg = SweepConfig(templates=("2x2", "single"), n_centers=10,
                          noise_amplitudes=(0.2, 0.0), n_noise_realizations=2)
        res = run_sweep(cfg)
        rpt = tmp_path / "r.csv"
        write_report(res, rpt)
        keys = [(r.split(",")[0], float(r.split(",")[1]), int(r.split(",")[2]))
                for r in rpt.read_text().splitlines()[1:]]
        assert keys == sorted(keys)


#: What ``import defect_robust`` loads beyond numpy.  A new entry is start-up
#: time for every CLI command: add one here only after measuring it.
_PACKAGE_IMPORTS = {
    "defect_robust", "defect_robust.core", "defect_robust.errors",
    "defect_robust.experiments", "defect_robust.fieldio", "defect_robust.synthesis", "defect_robust.templates",
    "__future__", "copy", "dataclasses", "decimal", "_decimal", "fractions",
}


def test_package_import_loads_only_the_pinned_modules():
    src = str(Path(defect_robust.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy; before = set(sys.modules); "
            "import defect_robust; print(' '.join(sorted(set(sys.modules) - before)))")
    loaded = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True).stdout.split()
    assert "defect_robust.fieldio" in loaded
    assert set(loaded) <= _PACKAGE_IMPORTS


def test_sweep_and_oracle_load_no_numpy_module_after_the_import(tmp_path):
    # numpy 2 imports numpy.ma on the first np.unique, which np.isin calls: about
    # 10 ms of every sweep and oracle process, for arrays of a handful of values
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"templates": ["single", "2x2"], "n_centers": 20, "noise_amplitudes": [0.0, 0.2]}')
    src = str(Path(defect_robust.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy; from defect_robust.cli import main; "
            "before = set(sys.modules); main(sys.argv[2:]); "
            "main(['oracle', '--template', 'cross', '--charge', '1/2']); "
            "print(' '.join(sorted(m for m in set(sys.modules) - before if m.startswith('numpy'))))")
    done = subprocess.run([sys.executable, "-c", code, src, "sweep", "--config", str(cfg), "--out",
                           str(tmp_path / "r.csv"), "--summary", str(tmp_path / "s.txt")],
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == ""


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

    @pytest.mark.parametrize("name", ["single", "3x3", "3x3ext"])
    def test_scan_csv_byte_for_byte(self, name, tmp_path, capsys):
        # a +1/2 and a -1/2 defect on a 26x22 grid with h = 0.5, under noise
        y, x = np.mgrid[0:22, 0:26].astype(float)
        clean = 0.5 * np.arctan2(y - 7.6, x - 6.3) - 0.5 * np.arctan2(y - 13.2, x - 17.4)
        noisy = add_noise(OrientationField.from_angles(clean, h=0.5), NoiseSpec(0.3, 7))
        field_path, out = tmp_path / "f.orif", tmp_path / "scan.csv"
        write_field(noisy, field_path)
        expected = _scan_reference(noisy, builtin_template(name))
        charges = {row.split(",")[4] for row in expected.splitlines()[1:]}
        assert {"0.5", "-0.5"} <= charges
        assert main(["scan", "--field", str(field_path), "--template", name, "--out", str(out)]) == 0
        assert out.read_text() == expected
        assert main(["scan", "--field", str(field_path), "--template", name]) == 0
        assert capsys.readouterr().out == expected

    def test_oracle_subcommand(self, capsys):
        assert main(["oracle", "--template", "2x2", "--charge", "1/2",
                     "--density", "60"]) == 0
        kv = dict(ln.split(" = ") for ln in capsys.readouterr().out.splitlines())
        assert math.pi / 4 - 1e-9 <= float(kv["lower"]) <= float(kv["upper"]) <= math.pi / 2
        # a charge the mode cannot have is a data error, as in sweep, generate and convergence
        for charge, mode in (("1/3", "nematic"), ("1/2", "polar")):
            assert main(["oracle", "--template", "single", "--charge", charge, "--mode", mode]) == 2
            assert f"{mode} charge must be a multiple" in capsys.readouterr().err

    def test_charge_too_large_for_a_float_is_a_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"charge": "1e400", "templates": ["single"], "n_centers": 2, "noise_amplitudes": [0.0]}')
        for argv in (["oracle", "--template", "single", "--charge", "1e400"],
                     ["convergence", "--charge", "1e400", "--sizes", "1"],
                     ["generate", "--charge", "1e400", "--center", "3.3,3.4", "--size", "8,8",
                      "--out", str(tmp_path / "f.orif")],
                     ["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                      "--summary", str(tmp_path / "s.txt")]):
            assert main(argv) == 2
            assert "charge of about 1e400 is too large for a float" in capsys.readouterr().err

    def test_charge_whose_q_pi_overflows_is_a_data_error(self, tmp_path):
        # 1.7e308 converts to a float, but q*atan2 overflows: oracle printed
        # lower = inf and upper = -inf, and generate printed numpy's warning
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"charge": "1.7e308", "templates": ["single"], "n_centers": 2, "noise_amplitudes": [0.0]}')
        src = str(Path(defect_robust.__file__).parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); from defect_robust.cli import main; "
                "sys.exit(main(sys.argv[2:]))")
        for argv in (["oracle", "--template", "single", "--charge", "1.7e308", "--density", "20"],
                     ["convergence", "--charge", "1.7e308", "--sizes", "1"],
                     ["generate", "--charge", "1.7e308", "--center", "3.3,3.4", "--size", "8,8",
                      "--out", str(tmp_path / "f.orif")],
                     ["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                      "--summary", str(tmp_path / "s.txt")]):
            done = subprocess.run([sys.executable, "-c", code, src, *argv], capture_output=True, text=True)
            assert done.returncode == 2, argv
            assert done.stdout == ""
            assert done.stderr.endswith("charge 1.7e+308 is too large: |q|*pi is not a finite float\n"), done.stderr
            assert "Warning" not in done.stderr

    def test_generate_huge_charge_writes_angles_in_the_window(self, tmp_path):
        out = tmp_path / "f.orif"
        assert main(["generate", "--charge", "1e20", "--center", "3.3,3.4", "--size", "8,8", "--out", str(out)]) == 0
        angles = [float(v) for line in out.read_text().splitlines()[1:] for v in line.split()]
        assert len(angles) == 64
        assert all(0.0 <= a < math.pi for a in angles)

    def test_oracle_lower_at_the_wrap_prints_zero(self, capsys):
        assert main(["oracle", "--template", "single", "--charge", "1"]) == 0
        assert "lower = 0\n" in capsys.readouterr().out

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

    @pytest.mark.parametrize("config, report_sha256, summary_sha256", [
        ('{"n_centers": 300, "noise_amplitudes": [0.0, 0.2]}',
         "6cb9815492ffcc75cd60ac37aba0b63f4e35f16f8483f61b3843e80e594e1fac",
         "71b3e38c2c14f9afb5c7e5edae4a58e6257a436c4a8239fbd5848fc76c2a56a8"),
        ('{"n_centers": 300, "noise_amplitudes": [0.0, 0.5], "mode": "polar", "charge": -1}',
         "767fca0178f76f5c7cb91898510620c3c5e9ebb74e6039fca5eb5bd0098e98cc",
         "82050b012239b76bb6ee77c45d4d11bf88ef7b7cf466b89679d573dd939e23ec"),
    ], ids=["nematic", "polar"])
    def test_sweep_bytes_are_pinned(self, config, report_sha256, summary_sha256, tmp_path, capsys):
        # every builtin template at seed 101: any changed byte of either file
        # fails.  The digests were taken with numpy 2.4 on an x86-64 CPU with
        # AVX-512, whose arctan2 differs from libm's in the last bit of some
        # angles; an arctan2 that rounds otherwise writes other bytes.
        cfg, rpt, summ = tmp_path / "c.json", tmp_path / "r.csv", tmp_path / "s.txt"
        cfg.write_text(config)
        assert main(["--seed", "101", "sweep", "--config", str(cfg), "--out", str(rpt), "--summary", str(summ)]) == 0
        assert hashlib.sha256(rpt.read_bytes()).hexdigest() == report_sha256
        assert hashlib.sha256(summ.read_bytes()).hexdigest() == summary_sha256

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
        assert "unknown period mode 'circular'; expected 'nematic' or 'polar'" in capsys.readouterr().err
        for charge in ("abc", "1/0"):
            assert main(["oracle", "--template", "single", "--charge", charge]) == 1
            assert f"invalid charge '{charge}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["generate", "--charge", "1", "--center", "3.4,2.3", "--size", "7,5", "--out", "f.orif"],
        ["oracle", "--template", "cross", "--charge", "1", "--density", "20"],
        ["convergence", "--charge", "1", "--sizes", "1,2", "--density", "20"],
    ])
    def test_mode_flag_parses_as_field_files_and_sweep_json_do(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        outputs = set()
        for mode in ("polar", "Polar", " POLAR "):
            assert main([*argv, "--mode", mode]) == 0
            written = (tmp_path / "f.orif").read_bytes() if argv[0] == "generate" else b""
            outputs.add((capsys.readouterr().out, written))
        assert len(outputs) == 1

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
                            ('{"charge": "1/0"}', "'charge'"),
                            # one block per (template, amplitude): nothing to rank, or one name sampled twice
                            ('{"templates": []}', "'templates' = []: must not be empty"),
                            ('{"noise_amplitudes": []}', "'noise_amplitudes' = []: must not be empty"),
                            ('{"templates": ["2x2", "2x2"]}', "repeats '2x2'"),
                            ('{"templates": ["3x3", "cross", "3X3"]}', "repeats '3x3'"),
                            ('{"noise_amplitudes": [0.1, 0.0, -0.0]}', "repeats -0.0"),
                            ('{"noise_amplitudes": [0.2, 0.1, 0.2]}', "repeats 0.2")]:
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

    def test_scan_with_a_template_that_fits_nowhere_is_data_error(self, tmp_path, capsys):
        field = tmp_path / "f.orif"
        main(["generate", "--charge", "1/2", "--center", "1.4,1.3", "--size", "4,4", "--out", str(field)])
        capsys.readouterr()
        out = tmp_path / "scan.csv"
        # the one fit rule, with the message charge and robustness give; no header-only CSV
        assert main(["scan", "--field", str(field), "--template", "3x3ext", "--out", str(out)]) == 2
        assert "leaves the field of 4x4 vertices" in capsys.readouterr().err
        assert not out.exists()
        # a template that fits exactly once still scans
        assert main(["scan", "--field", str(field), "--template", "3x3", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "offset_i,offset_j,center_x,center_y,charge,robustness"
