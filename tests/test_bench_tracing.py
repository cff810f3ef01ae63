"""The traced benchmark (bench/tracing.py) still binds every name it patches."""
import importlib.util
from pathlib import Path

from defect_robust import cli, experiments

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_binds_every_name_and_restores_it(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = [cli.main, experiments.wrap_diff]
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"templates": ["single"], "n_centers": 3, "noise_amplitudes": [0.0, 0.1],'
                   ' "n_noise_realizations": 2, "oracle_density": 3}')
    tracer = tracing.Tracer()
    with tracer.installed():
        # the counters read result fields; an oracle and a tiny sweep call each of them
        assert cli.main(["oracle", "--template", "single", "--charge", "1/2", "--density", "3"]) == 0
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                         "--summary", str(tmp_path / "s.txt")]) == 0
    assert [cli.main, experiments.wrap_diff] == originals
    assert tracer.counts["experiments.oracle_points"] > 0
    assert tracer.counts["fieldio.report_rows"] == 3 + 3 * 2
    assert tracer.counts["experiments.result_bytes"] > 0
