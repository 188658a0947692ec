"""Config round-trips, command outputs, determinism, and exit codes."""

import json

import pytest

from netbalance.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERIFICATION,
    config_to_text,
    main,
    parse_config,
    render_json,
)
from netbalance.errors import ConfigError

BASIC_CONFIG = """\
# tiny deterministic run
graph.family = complete
graph.n = 2
tasks.mode = explicit-counts
tasks.counts = 4,0
run.trials = 2
run.round_cap = 5000
run.stop = exact-ne
run.master_seed = 42
output.trace = true
"""


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_config_round_trip():
    cfg = parse_config(BASIC_CONFIG)
    assert cfg.graph_family == "complete"
    assert cfg.run_master_seed == 42
    assert cfg.output_trace is True
    text = config_to_text(cfg)
    assert parse_config(text) == cfg
    # canonical text is a fixed point
    assert config_to_text(parse_config(text)) == text


def test_config_errors():
    with pytest.raises(Exception, match="unknown key"):
        parse_config("graph.familly = complete\n")
    with pytest.raises(Exception, match="duplicate"):
        parse_config("graph.n = 2\ngraph.n = 3\n")
    with pytest.raises(Exception, match="key = value"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match="bad value for protocol.alpha"):
        parse_config("protocol.alpha = 1/x\n")


def test_render_json_formatting():
    out = render_json({"a": 0.1, "b": [1, None, True], "c": "x"})
    parsed = json.loads(out)
    assert parsed["a"] == 0.1
    assert parsed["b"] == [1, None, True]
    assert "0.10000000000000001" in out  # 17 significant digits


def test_cmd_run_tiny_exact_ne(tmp_path):
    cfg_path = write_config(tmp_path, BASIC_CONFIG)
    assert main(["run", str(cfg_path)]) == EXIT_OK
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["fraction_truncated"] == 0
    for trial in summary["per_trial"]:
        assert trial["rounds_to_exact_ne"] >= 0
        assert not trial["truncated"]
    # trace row 0 for w=(4,0), unit speeds: psi0 = 8, l_delta = 2
    trace = (out / "trace_0.csv").read_text().splitlines()
    assert trace[0] == "round,psi0,psi1,l_delta,max_load,min_load,moves"
    row0 = trace[1].split(",")
    assert float(row0[1]) == pytest.approx(8.0)
    assert float(row0[3]) == pytest.approx(2.0)
    assert trace[-1].split(",")[-1] != ""


def test_cmd_run_byte_identical_reruns(tmp_path):
    cfg_path = write_config(tmp_path, BASIC_CONFIG)
    assert main(["run", str(cfg_path), "--out-dir", str(tmp_path / "a")]) == EXIT_OK
    assert main(["run", str(cfg_path), "--out-dir", str(tmp_path / "b")]) == EXIT_OK
    for name in ("summary.json", "trace_0.csv", "trace_1.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_cmd_run_bad_config_exit_code(tmp_path):
    cfg_path = write_config(tmp_path, "graph.family = complete\n")
    assert main(["run", str(cfg_path)]) == EXIT_CONFIG
    cfg_path2 = write_config(tmp_path, BASIC_CONFIG + "graph.n = \n", name="dup.cfg")
    assert main(["run", str(cfg_path2)]) == EXIT_CONFIG


def test_cmd_run_weighted_random(tmp_path):
    text = """\
graph.family = cycle
graph.n = 4
tasks.mode = weighted-random
tasks.count = 30
run.trials = 1
run.round_cap = 20000
run.stop = exact-ne
run.master_seed = 7
"""
    cfg_path = write_config(tmp_path, text)
    assert main(["run", str(cfg_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["fraction_truncated"] == 0


def _report_value(out, key):
    for line in out.splitlines():
        if line.startswith(f"{key} = "):
            return float(line.split(" = ")[1])
    raise AssertionError(f"{key} not found in report:\n{out}")


def test_cmd_spectra_k4(capsys):
    assert main(["spectra", "--family", "complete", "--n", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert _report_value(out, "lambda2") == pytest.approx(4.0, abs=1e-9)
    assert _report_value(out, "gamma") == pytest.approx(24.0, abs=1e-8)
    assert _report_value(out, "psi_c") == pytest.approx(24.0, abs=1e-8)
    assert "FAIL" not in out


def test_cmd_spectra_c4_gamma(capsys):
    assert main(["spectra", "--family", "cycle", "--n", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    # 32 * Delta * s_max^2 / lambda2 = 32 * 2 / 2
    assert _report_value(out, "gamma") == pytest.approx(32.0, abs=1e-8)


def test_cmd_spectra_speeds(capsys):
    assert main(["spectra", "--family", "complete", "--n", "2",
                 "--speeds", "1,2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert _report_value(out, "mu2") == pytest.approx(1.5, abs=1e-10)
    lines = [ln for ln in out.splitlines() if ln.startswith("bound interlacing")]
    assert len(lines) == 2 and all(ln.endswith("pass") for ln in lines)


def test_cmd_spectra_bad_graph():
    assert main(["spectra", "--family", "cycle", "--n", "2"]) == EXIT_CONFIG


def test_cmd_verify_default(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", "--report", str(report)]) == EXIT_OK
    payload = json.loads(report.read_text())
    assert payload["passed"] is True
    assert payload["cases"] == 108
    assert all(c["passed"] for c in payload["checks"])


def test_cmd_verify_nash_only(tmp_path):
    report = tmp_path / "report.json"
    assert main(["verify", "--corpus", "nash-only", "--report", str(report)]) == EXIT_OK
    payload = json.loads(report.read_text())
    assert payload["passed"] is True
    assert not any(c["lemma"] == "psi1-drop-floor" for c in payload["checks"])


def test_cmd_verify_rejects_alpha_flag(tmp_path):
    # The suite's bounds hold at alpha = 4*s_max, so verify takes no alpha:
    # the flag is a usage error (exit 2) and no report is written.
    report = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--alpha", "8", "--report", str(report)])
    assert exc.value.code == 2
    assert not report.exists()


def test_exit_codes_distinct():
    assert EXIT_OK == 0 and EXIT_VERIFICATION == 1 and EXIT_CONFIG == 2


def test_explicit_weights_config(tmp_path):
    text = """\
graph.family = complete
graph.n = 2
tasks.mode = explicit-weights
tasks.weights = 0:1.0,0.9,0.8;1:0.4
run.trials = 1
run.round_cap = 20000
run.stop = exact-ne
run.master_seed = 5
"""
    cfg_path = write_config(tmp_path, text)
    assert main(["run", str(cfg_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["per_trial"][0]["rounds_to_exact_ne"] >= 1
    # out-of-range weights are a config error
    bad = write_config(tmp_path, text.replace("0.4", "1.4"), name="bad.cfg")
    assert main(["run", str(bad)]) == EXIT_CONFIG


def test_exact_ne_alpha_default_for_unit_tasks(tmp_path):
    # Unit tasks under exact-ne run at 4*s_max/eps = 4*(3/2)/(1/2) = 12, where
    # the exact-equilibrium cap is proven; weighted tasks keep 4*s_max = 6.
    text = BASIC_CONFIG + "speeds.mode = explicit\nspeeds.values = 1,3/2\n"
    assert main(["run", str(write_config(tmp_path, text))]) == EXIT_OK
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["alpha"] == "12"
    weighted = text.replace("explicit-counts", "explicit-weights").replace(
        "tasks.counts = 4,0", "tasks.weights = 0:1.0,0.9,0.8")
    assert main(["run", str(write_config(tmp_path, weighted, name="w.cfg")),
                 "--out-dir", str(tmp_path / "w")]) == EXIT_OK
    assert json.loads((tmp_path / "w" / "summary.json").read_text())["alpha"] == "6"


def test_malformed_task_counts_are_config_errors(tmp_path):
    bad = BASIC_CONFIG.replace("tasks.counts = 4,0", "tasks.counts = 4,x")
    assert main(["run", str(write_config(tmp_path, bad))]) == EXIT_CONFIG


def test_malformed_task_weights_are_config_errors(tmp_path):
    text = BASIC_CONFIG.replace("explicit-counts", "explicit-weights").replace(
        "tasks.counts = 4,0", "tasks.weights = 0:0.5,abc")
    assert main(["run", str(write_config(tmp_path, text))]) == EXIT_CONFIG


def test_repeated_weight_list_node_is_config_error(tmp_path):
    text = BASIC_CONFIG.replace("explicit-counts", "explicit-weights").replace(
        "tasks.counts = 4,0", "tasks.weights = 0:0.5,0.25;0:0.75")
    assert main(["run", str(write_config(tmp_path, text))]) == EXIT_CONFIG


def test_explicit_edge_list_config(tmp_path):
    (tmp_path / "ring.edges").write_text("4\n0 1\n1 2\n2 3\n3 0\n", encoding="utf-8")
    text = """\
graph.family = explicit
graph.edge_list = ring.edges
tasks.mode = uniform
tasks.count = 8
tasks.placement = random
run.trials = 1
run.round_cap = 10000
run.stop = exact-ne
run.master_seed = 3
"""
    cfg_path = write_config(tmp_path, text)
    assert main(["run", str(cfg_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["graph"]["n"] == 4
    assert summary["graph"]["edges"] == 4
