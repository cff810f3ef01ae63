"""The benchmark's output checks pass on the program's outputs and fail on
each kind of corruption they exist to catch.

Run with ``python3 -m pytest bench/tests``.  Each fixture runs the program
on a small input, so the whole file takes a few seconds.
"""
import contextlib
import io
import json

import numpy as np
import pytest

import checks
import run
import sweep_op
from checks import CheckError
from defect_robust import NoiseSpec, OrientationField, add_noise, cli


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([str(a) for a in argv]) == 0
    return out.getvalue()


def _edit_csv(path, row, column, edit):
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    cells[column] = edit(cells[column])
    lines[row] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def _drop_csv_row(path, row):
    lines = path.read_text().splitlines(keepends=True)
    del lines[row]
    path.write_text("".join(lines))


# ---------------------------------------------------------------- sweeps

@pytest.fixture(scope="module")
def sweep_config():
    config = run._sweep_config(5, 200, [0.0, 0.2])
    config["n_noise_realizations"] = 3
    config["oracle_density"] = 20
    return config


@pytest.fixture
def report(tmp_path, sweep_config):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(sweep_config))
    csv, summary = tmp_path / "report.csv", tmp_path / "summary.txt"
    _cli("sweep", "--config", cfg, "--out", csv, "--summary", summary)
    return csv, summary


def _check_report(config, csv, summary):
    checks.check_sweep(config, checks.read_report(csv), summary.read_text())


def test_sweep_report_passes(report, sweep_config):
    _check_report(sweep_config, *report)


# Row 1 is the first sample of ("2x2", 0.0); columns 5 and 6 hold charge and
# robustness.
def test_sweep_report_flipped_charge_fails(report, sweep_config):
    _edit_csv(report[0], 1, 5, lambda c: repr(-float(c)))
    with pytest.raises(CheckError, match="charge"):
        _check_report(sweep_config, *report)


def test_sweep_report_robustness_off_by_1e6_fails(report, sweep_config):
    _edit_csv(report[0], 1, 6, lambda r: repr(float(r) + 1e-6))
    with pytest.raises(CheckError, match="robustness"):
        _check_report(sweep_config, *report)


def test_sweep_report_dropped_row_fails(report, sweep_config):
    _drop_csv_row(report[0], 7)
    with pytest.raises(CheckError, match="samples"):
        _check_report(sweep_config, *report)


def test_sweep_report_wrong_ranking_fails(report, sweep_config):
    text = report[1].read_text()
    first, second = (f"ranking.amplitude_0.{k} = " for k in (1, 2))
    a = text.split(first)[1].split("\n")[0]
    b = text.split(second)[1].split("\n")[0]
    report[1].write_text(text.replace(first + a, first + b).replace(second + b, second + a))
    with pytest.raises(CheckError, match="ranking"):
        _check_report(sweep_config, *report)


@pytest.fixture
def sweep_samples(tmp_path, sweep_config):
    summary = tmp_path / "summary.txt"
    result = sweep_op.sweep(sweep_config, summary)
    dump = tmp_path / "samples.npz"
    sweep_op.save_samples(result, dump)
    return sweep_op.load_samples(dump), summary.read_text()


def test_sweep_samples_pass(sweep_samples, sweep_config):
    checks.check_sweep(sweep_config, *sweep_samples)


def test_sweep_samples_flipped_noisy_charge_fails(sweep_samples, sweep_config):
    blocks, summary = sweep_samples
    block = blocks[("3x3", 0.2)]
    # a sample whose clean robustness exceeds 2a must keep charge 1/2
    block["charge"] = block["charge"].copy()
    block["charge"][int(np.argmax(block["robustness"]))] = -0.5
    with pytest.raises(CheckError, match="charge"):
        checks.check_sweep(sweep_config, blocks, summary)


# ---------------------------------------------------------------- oracle

def test_oracle_passes_and_raised_lower_fails():
    text = _cli("oracle", "--template", "cross", "--charge", "1/2", "--density", "41")
    checks.check_oracle("cross", text, 41)
    r = float(checks.clean_robustness("cross", [checks.template_centroid("cross")])[0])
    raised = "".join(f"lower = {r + 1e-9!r}\n" if line.startswith("lower") else line
                     for line in text.splitlines(keepends=True))
    with pytest.raises(CheckError, match="lower"):
        checks.check_oracle("cross", raised, 41)


def test_convergence_passes_and_raised_lower_fails():
    sizes = (1, 2, 3, 8)
    text = _cli("convergence", "--charge", "1/2", "--sizes", "1,2,3,8", "--density", "41")
    checks.check_convergence(text, sizes)
    lines = text.splitlines(keepends=True)
    n, lower, *rest = lines[3].split()
    lines[3] = " ".join([n, f"{float(lower) + 1e-6:.12f}", *rest]) + "\n"
    with pytest.raises(CheckError, match="lower"):
        checks.check_convergence("".join(lines), sizes)


# ---------------------------------------------------------------- scan

@pytest.fixture
def scan(tmp_path):
    clean = run.clean_field(np.array([[20.3, 21.7], [41.6, 40.2]]), np.array([0.5, -0.5]), size=64)
    noisy = add_noise(OrientationField.from_angles(clean), NoiseSpec(0.3, 9))
    field = tmp_path / "field.orif"
    run.write_orifield(field, noisy.angles)
    outs = {t: tmp_path / f"{t}.csv" for t in run.SCAN_TEMPLATES}
    for t, out in outs.items():
        _cli("scan", "--field", field, "--template", t, "--out", out)
    h, angles = checks.read_field_file(field)
    return angles, h, outs, clean


def test_field_parser_matches_program(scan, tmp_path):
    from defect_robust import read_field

    angles, _, _, _ = scan
    assert np.array_equal(angles, read_field(tmp_path / "field.orif").angles)


def test_scan_passes(scan):
    checks.check_scan(*scan, run.SCAN_NOISE)


def test_scan_dropped_row_fails(scan):
    _drop_csv_row(scan[2]["3x3"], 2)
    with pytest.raises(CheckError, match="scan rows"):
        checks.check_scan(*scan, run.SCAN_NOISE)


def test_scan_robustness_off_by_1e6_fails(scan):
    _edit_csv(scan[2]["3x3ext"], 1, 5, lambda r: repr(float(r) + 1e-6))
    with pytest.raises(CheckError, match="robustness"):
        checks.check_scan(*scan, run.SCAN_NOISE)


def test_scan_flipped_charge_fails(scan):
    _edit_csv(scan[2]["single"], 1, 4, lambda c: repr(-float(c)))
    with pytest.raises(CheckError, match="charge"):
        checks.check_scan(*scan, run.SCAN_NOISE)


# ---------------------------------------------------------------- templates

@pytest.mark.parametrize("name", [*checks.CYCLES, "square(1)", "square(4)"])
def test_cycles_are_counterclockwise_boundaries_of_the_cells(name):
    cyc = checks.template_cycle(name)
    x, y = cyc[:, 0], cyc[:, 1]
    area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert area == len(checks.template_cells(name))
    steps = np.abs(np.roll(cyc, -1, axis=0) - cyc).sum(axis=1)
    assert np.all(steps == 1) and len({tuple(v) for v in cyc}) == len(cyc)
    assert len(cyc) == sum(
        (a + da, b + db) not in checks.template_cells(name)
        for a, b in checks.template_cells(name) for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)))

