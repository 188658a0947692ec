"""Config round-trips, command outputs, determinism, and exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netbalance.analysis import TRACE_HEADER, TRACE_ROW
from netbalance.cli import (
    CONFIG_KEYS,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERIFICATION,
    fmt17,
    main,
    parse_config,
    render_json,
    run_config,
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


def test_config_round_trip(tmp_path):
    # The config block that `run` writes to summary.json, written back as
    # `key = value` lines, parses to the config that was run.
    text = BASIC_CONFIG + "protocol.alpha = 9/2\nprotocol.eps = 0.1\n"
    cfg = parse_config(text)
    assert cfg.graph_family == "complete"
    assert cfg.run_master_seed == 42
    assert cfg.output_trace is True
    assert main(["run", str(write_config(tmp_path, text))]) == EXIT_OK
    block = json.loads((tmp_path / "out" / "summary.json").read_text())["config"]
    assert list(block) == [key for key in CONFIG_KEYS if key in block]
    assert parse_config("".join(f"{k} = {v}\n" for k, v in block.items())) == cfg


def test_readme_lists_every_config_key():
    # The README's key table names every key of CONFIG_KEYS, once each, in
    # field order, and nothing else.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([a-z_]+\.[a-z_]+)` \|", readme, flags=re.MULTILINE)
    assert rows == list(CONFIG_KEYS)


def test_approx_ne_eps_is_read_as_a_decimal(tmp_path):
    # protocol.eps = 0.7 is the rational 7/10, not the binary float nearest
    # it: both spellings run and echo the same. (3/10)*10 - 2 = 1/s_j exactly,
    # so every trial hits at round 0.
    text = BASIC_CONFIG.replace("run.stop = exact-ne", "run.stop = approx-ne").replace(
        "tasks.counts = 4,0", "tasks.counts = 10,2")
    summaries = []
    for name, eps in (("fraction", "7/10"), ("decimal", "0.7")):
        path = write_config(tmp_path, text + f"protocol.eps = {eps}\n", f"{name}.cfg")
        assert main(["run", str(path), "--out-dir", str(tmp_path / name)]) == EXIT_OK
        summaries.append((tmp_path / name / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]
    payload = json.loads(summaries[0])
    assert payload["config"]["protocol.eps"] == "7/10"
    assert [t["rounds_to_approx_ne"] for t in payload["per_trial"]] == [0, 0]
    with pytest.raises(ConfigError, match="bad value for protocol.eps"):
        parse_config("protocol.eps = 7/x\n")


def test_run_leaves_numpy_ma_unimported(tmp_path):
    # np.percentile's first call imports numpy.ma (about 20 ms per process);
    # a run's hitting-time quartiles need neither.
    cfg_path = write_config(tmp_path, BASIC_CONFIG)
    code = ("import sys; from netbalance.cli import main; "
            f"code = main(['run', {str(cfg_path)!r}]); "
            "print(code, 'numpy.ma' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.stdout.strip() == "0 False", proc.stdout + proc.stderr


def test_config_errors(tmp_path, capsys):
    with pytest.raises(Exception, match="unknown key"):
        parse_config("graph.familly = complete\n")
    with pytest.raises(Exception, match="duplicate"):
        parse_config("graph.n = 2\ngraph.n = 3\n")
    with pytest.raises(Exception, match="key = value"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match="bad value for protocol.alpha"):
        parse_config("protocol.alpha = 1/x\n")
    # Malformed inputs found past parsing are configuration errors (exit 2)
    # too, never tracebacks or the verification-failure code.
    (tmp_path / "bad_edges.txt").write_text("2\n0 1\n1 x\n", encoding="utf-8")
    k2 = "graph.family = complete\ngraph.n = 2\n"
    run = "run.stop = fixed-rounds\nrun.rounds = 1\nrun.master_seed = 1\n"
    for extra in ("speeds.mode = explicit\nspeeds.values = 1,x\ntasks.count = 4\n",
                  "speeds.mode = explicit\nspeeds.values = 1,,1\ntasks.count = 4\n",
                  "speeds.mode = explicit\nspeeds.values = 1,1/0\ntasks.count = 4\n",
                  "tasks.count = -3\ntasks.placement = random\n",
                  "tasks.mode = weighted-random\ntasks.count = -2\n"):
        cfg_path = write_config(tmp_path, k2 + extra + run)
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG, extra
    (tmp_path / "binary_edges.txt").write_bytes(b"2\n0 1\n\xff\xfe\n")
    for edge_list in ("bad_edges.txt", "missing.txt", "binary_edges.txt"):
        cfg_path = write_config(tmp_path, f"graph.family = explicit\ngraph.edge_list = "
                                f"{edge_list}\ntasks.count = 4\n" + run)
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG, edge_list
    for argv in (["--n", "2", "--speeds", "1,x"],
                 ["--n", "2", "--speeds", "1,,2"],
                 ["--edge-list", str(tmp_path / "bad_edges.txt")],
                 ["--edge-list", str(tmp_path / "missing.txt")],
                 ["--edge-list", str(tmp_path / "binary_edges.txt")]):
        assert main(["spectra", *argv]) == EXIT_CONFIG, argv
    assert capsys.readouterr().err.count("configuration error") == 13


def test_render_json_formatting():
    out = render_json({"a": 0.1, "b": [1, None, True], "c": "x"})
    parsed = json.loads(out)
    assert parsed["a"] == 0.1
    assert parsed["b"] == [1, None, True]
    assert "0.10000000000000001" in out  # 17 significant digits


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=2.0**53, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.0**53,
                     2.0**53 + 2, 1e300]))
_INTS = st.integers(-(2**63), 2**63 - 1)
_TRACE_VALUES = st.one_of(_FLOATS, _FLOATS.map(np.float64), _INTS.map(np.int64),
                          st.integers(-(2**1000), 2**1000))
_TRACE_COUNTS = st.one_of(_INTS, _INTS.map(np.int64))


@settings(deadline=None)
@given(_TRACE_COUNTS, st.lists(_TRACE_VALUES, min_size=5, max_size=5), _TRACE_COUNTS)
def test_trace_row_template_matches_fmt17(rnd, values, moves):
    # A trace CSV row is TRACE_ROW over the trial's columns; its bytes are
    # those of str for the counts and fmt17 for the floats.
    assert TRACE_ROW.count("%") == len(TRACE_HEADER)
    assert TRACE_ROW % (rnd, *values, moves) == \
        ",".join([str(rnd), *map(fmt17, values), str(moves)])


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


def test_cmd_run_byte_identical_reruns(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, BASIC_CONFIG)
    assert main(["run", str(cfg_path), "--out-dir", str(tmp_path / "a")]) == EXIT_OK
    assert main(["run", str(cfg_path), "--out-dir", str(tmp_path / "b")]) == EXIT_OK
    for name in ("summary.json", "trace_0.csv", "trace_1.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()

    # run_config is `run` without the writer: it makes no file or directory,
    # and its payload and traces hold the bytes that `run` wrote.
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    payload, results = run_config(parse_config(BASIC_CONFIG), tmp_path)
    assert sorted(tmp_path.rglob("*")) == before
    assert (render_json(payload) + "\n").encode("utf-8") == \
        (tmp_path / "a" / "summary.json").read_bytes()
    assert [res.trial_id for res in results] == [0, 1]
    for res in results:
        lines = [",".join(TRACE_HEADER)]
        for rnd, *values, moves in zip(*(column.tolist() for column in res.trace)):
            lines.append(",".join([str(rnd), *map(fmt17, values), str(moves)]))
        assert ("\n".join(lines) + "\n").encode("utf-8") == \
            (tmp_path / "a" / f"trace_{res.trial_id}.csv").read_bytes()


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
    assert main(["spectra", "--family", "cycle", "--n", "4", "--speeds", "1,2"]) == EXIT_CONFIG


def test_cmd_verify_default(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", "--report", str(report)]) == EXIT_OK
    payload = json.loads(report.read_text())
    assert payload["passed"] is True
    assert payload["cases"] == 108
    assert all(c["passed"] for c in payload["checks"])


def test_cmd_verify_rejects_alpha_flag(tmp_path):
    # The suite's bounds hold at alpha = 4*s_max, so verify takes no alpha:
    # the flag is a usage error (exit 2) and no report is written. So are
    # the retired --tol and --corpus, even with their old defaults: verify
    # takes --report alone.
    report = tmp_path / "report.json"
    for flag in (["--alpha", "8"], ["--tol", "1e-9"], ["--corpus", "default"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *flag, "--report", str(report)])
        assert exc.value.code == 2, flag
        assert not report.exists(), flag


@pytest.mark.parametrize("line, message", [
    ("protocol.variant = algorithm1", "unknown key 'protocol.variant'"),
    ("protocol.printed_rule = false", "unknown key 'protocol.printed_rule'"),
    ("protocol.psi_constant = 8", "unknown key 'protocol.psi_constant'"),
    ("tasks.seed = 7", "unknown key 'tasks.seed'"),
    ("protocol.eps = 2", "eps must lie in (0, 1)"),
], ids=["variant", "printed_rule", "psi_constant", "tasks_seed", "exact_ne_eps"])
def test_protocol_variant_key_is_unknown(tmp_path, capsys, line, message):
    # Retired keys: the tasks decide the algorithm, Algorithm 2 has one
    # migration rule, psi_c = 8*n*Delta*s_max/lambda2, and random weights
    # always draw from the master seed's weights stream. Even a retired
    # key's old default is refused. Like them, a value caught only after
    # parsing (eps under exact-ne at round 0) writes no output directory.
    text = BASIC_CONFIG + line + "\n"
    assert main(["run", str(write_config(tmp_path, text))]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_speed_multipliers_past_int64_are_config_errors(tmp_path):
    # s_1 = 1 + 10^-20 makes the speed multipliers about 10^20, too large for
    # the exact trigger, which unit and weighted tasks share.
    base = ("graph.family = cycle\ngraph.n = 4\nspeeds.mode = explicit\n"
            "speeds.values = 1,100000000000000000001/100000000000000000000,1,1\n"
            "tasks.count = 8\nrun.stop = fixed-rounds\nrun.rounds = 2\nrun.master_seed = 1\n")
    unit = write_config(tmp_path, base, "unit.cfg")
    assert main(["run", str(unit)]) == EXIT_CONFIG
    weighted = write_config(tmp_path, base + "tasks.mode = weighted-random\n", "weighted.cfg")
    assert main(["run", str(weighted)]) == EXIT_CONFIG


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
