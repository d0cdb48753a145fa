import csv
import io
import json
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from stretched_gasket import ExpTail, ParamSeq, cli, parse

from oracles import geometry_text_by_rows, kusuoka_text_by_rows, laplacian_text_by_rows

BASE = [sys.executable, "-m", "stretched_gasket.cli"]
EXP_FLAGS = ["--eps-prefix", "0.9", "--tail-c", "0.05", "--tail-r", "0.5"]


def run_cli(*argv, check=True):
    proc = subprocess.run(BASE + list(argv), capture_output=True, text=False)
    if check:
        assert proc.returncode == 0, proc.stderr.decode()
    return proc


def test_energy_json_schema():
    out = run_cli("energy", *EXP_FLAGS, "--depth", "2").stdout
    payload = json.loads(out)
    assert set(payload) == {"depth", "e1", "e2", "total", "eps_spec"}
    assert payload["depth"] == 2
    assert payload["total"] == pytest.approx(payload["e1"] + payload["e2"], rel=1e-12)
    assert payload["eps_spec"]["prefix"] == [0.9]


def test_harmonicity_json_schema():
    payload = json.loads(run_cli("harmonicity", *EXP_FLAGS, "--depth", "2").stdout)
    assert set(payload) == {"depth", "residual", "worst_vertex_word", "nd_gamma"}
    assert payload["residual"] <= 1e-10 / 3.0
    assert payload["nd_gamma"] > 0.0
    assert "/" in payload["worst_vertex_word"]


def test_ruelle_json():
    payload = json.loads(run_cli("ruelle", "--eps-const", "0.5", "--eps", "1.0").stdout)
    assert abs(payload["lambda"] - 0.6) <= 1e-12
    assert payload["q"][0][0] == pytest.approx(1.0, abs=1e-10)


def test_kusuoka_csv_and_summary(tmp_path):
    summary_path = tmp_path / "summary.json"
    out = run_cli(
        "kusuoka", *EXP_FLAGS, "--depth", "2", "--json", str(summary_path)
    ).stdout.decode()
    # RFC-4180: CRLF line endings, header + 9 rows.
    lines = out.split("\r\n")
    assert lines[0] == "word,kappa,tau11,tau12,tau22"
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 9
    assert [r["word"] for r in rows] == ["11", "12", "13", "21", "22", "23", "31", "32", "33"]
    total = sum(float(r["kappa"]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-12)
    summary = json.loads(summary_path.read_text())
    assert set(summary) == {"depth", "sum_kappa", "min_eig", "max_kappa_word"}
    assert summary["min_eig"] >= -1e-13


def test_convergence_csv_three_columns():
    out = run_cli("convergence", *EXP_FLAGS, "--depth", "3").stdout.decode()
    rows = out.split("\r\n")
    assert rows[0] == "l,energy,delta"
    first = rows[1].split(",")
    assert first[0] == "0" and first[2] == ""
    assert len(rows[2].split(",")) == 3


def test_ibp_csv():
    out = run_cli("ibp", *EXP_FLAGS, "--depths", "3,4").stdout.decode()
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["depth"] for r in rows] == ["3", "4"]
    assert float(rows[1]["residual"]) <= float(rows[0]["residual"])


def test_laplacian_csv():
    out = run_cli("laplacian", *EXP_FLAGS, "--depth", "1", "--phi", "x^2 + y^2").stdout.decode()
    rows = list(csv.DictReader(io.StringIO(out)))
    cells = [r for r in rows if r["kind"] == "cell"]
    cables = [r for r in rows if r["kind"] == "cable"]
    assert len(cells) == 3 and len(cables) == 3
    for r in cells:
        assert float(r["value"]) == pytest.approx(2.0, rel=1e-12)


def test_geometry_svg_and_json(tmp_path):
    json_path = tmp_path / "edges.json"
    svg = run_cli(
        "geometry", *EXP_FLAGS, "--depth", "1", "--shade", "--json", str(json_path)
    ).stdout.decode()
    assert svg.startswith("<?xml")
    assert 'version="1.1"' in svg
    assert "stroke-dasharray" in svg  # cables dashed
    assert "<polygon" in svg  # shading on
    payload = json.loads(json_path.read_text())
    tri = [e for e in payload["edges"] if e["kind"] == "tri"]
    cab = [e for e in payload["edges"] if e["kind"] == "cable"]
    assert len(tri) == 9
    assert len(cab) == 3
    assert {e["side"] for e in tri} == {"AB", "BC", "AC"}
    assert {e["slot"] for e in cab} == {1, 2, 3}
    assert all(len(e["p"]) == 2 and len(e["q"]) == 2 for e in payload["edges"])


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment\neps.prefix = 0.9,0.8\neps.tail.c = 0.05\neps.tail.r = 0.5\ndepth = 2\nu = x\nv = x\n"
    )
    base = json.loads(run_cli("energy", "--config", str(cfg)).stdout)
    assert base["depth"] == 2
    over = json.loads(run_cli("energy", "--config", str(cfg), "--depth", "3").stdout)
    assert over["depth"] == 3
    assert over["eps_spec"] == base["eps_spec"]


def test_seed_flag_is_refused():
    proc = run_cli("energy", "--eps-const", "0.5", "--depth", "1", "--seed", "7", check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"usage: ")
    assert b"unrecognized arguments: --seed 7" in proc.stderr


def test_usage_errors_exit_one():
    assert run_cli("energy", "--no-such-flag", check=False).returncode == 1
    assert run_cli(check=False).returncode == 1
    assert run_cli("energy", "--eps-prefix", "1.7", check=False).returncode == 1
    proc = run_cli("energy", "--eps-const", "0.5", "--u", "x +", check=False)
    assert proc.returncode == 1
    assert b"error" in proc.stderr
    # Limit-weight command on a constant sequence: configuration error.
    assert run_cli("selfsim", "--eps-const", "0.5", check=False).returncode == 1


@pytest.mark.parametrize("ratio", ["nan", "inf"])
def test_non_finite_ratio_exits_one(ratio):
    proc = run_cli("harmonicity", "--eps-const", "0.5", "--depth", "2", "--ratio", ratio, check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: beta/alpha must be finite")
    assert proc.stdout == b""


@pytest.mark.parametrize(
    "command", ["geometry", "energy", "harmonicity", "ruelle", "ibp", "convergence", "selfsim", "laplacian"]
)
def test_prefactor_underflow_exits_one_without_traceback(command):
    # lam = (3/5) eps^2 underflows to 0.0 at eps = 1e-200.  The Laplacian
    # samples need a tail product, so they take eps_1 = 1e-200 before the
    # default exponential tail: the generation-2 cable weight underflows.
    eps = ["--eps-prefix", "1e-200"] if command == "laplacian" else ["--eps-const", "1e-200"]
    proc = run_cli(command, *eps, "--depth", "3", check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: ")
    assert b"denominator 0.0 underflows" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_kusuoka_table_is_stretch_free():
    # The cylinder table depends on the word alone, so even eps = 1e-200,
    # whose lam underflows to 0.0, prints the table of every other sequence.
    flags = (
        ["--eps-const", "1e-200"],
        ["--eps-const", "0.5"],
        ["--eps-prefix", "0.9,0.8,0.7", "--tail-c", "0.05", "--tail-r", "0.5"],
    )
    outs = {run_cli("kusuoka", *eps, "--depth", "3").stdout for eps in flags}
    assert len(outs) == 1


def test_kusuoka_depth_10_is_the_same_for_every_sequence(tmp_path):
    # Constant, prefix-plus-exponential and pure exponential tails, eps_1
    # near 0 and near 1: stdout and the --json summary agree byte for byte.
    flags = (
        ["--eps-const", "0.023857"],
        ["--eps-prefix", "0.013322,0.342736,0.991617", "--tail-c", "2.610888", "--tail-r", "0.3028"],
        ["--tail-c", "4.217409", "--tail-r", "0.797"],
        ["--eps-const", "0.734866"],
        ["--eps-prefix", "0.782842,0.963499,0.015443", "--tail-c", "0.069548", "--tail-r", "0.7001"],
        ["--tail-c", "2.592006", "--tail-r", "0.6111"],
    )
    outs = set()
    for eps in flags:
        summary = tmp_path / "summary.json"
        proc = run_cli("kusuoka", *eps, "--depth", "10", "--json", str(summary))
        outs.add((proc.stdout, summary.read_bytes()))
    assert len(outs) == 1


def test_kusuoka_rows_carry_the_trace_and_the_exact_small_eigenvalue(tmp_path):
    # kappa is tau11 + tau22 of its own row, and the smallest eigenvalue,
    # (1/2)(3/5)^10 3^-20 for the word 1^10, comes without cancellation.
    summary = tmp_path / "summary.json"
    out = run_cli("kusuoka", "--depth", "10", "--json", str(summary)).stdout.decode()
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3**10
    off = [r["word"] for r in rows if float(r["kappa"]) != float(r["tau11"]) + float(r["tau22"])]
    assert off == []
    exact = Fraction(1, 2) * Fraction(3, 5) ** 10 / Fraction(3) ** 20
    assert json.loads(summary.read_text())["min_eig"] == pytest.approx(float(exact), rel=1e-15)


def test_kusuoka_builds_its_tau_table_once(monkeypatch, capsys):
    # kappa is read off the rows kusuoka prints, not off a second table.
    builds = []
    tau_table = cli.kus_mod.tau_table
    monkeypatch.setattr(cli.kus_mod, "tau_table", lambda l: builds.append(l) or tau_table(l))
    cli.kus_mod.kappa_table.cache_clear()
    assert cli.main(["kusuoka", "--depth", "3"]) == 0
    assert builds == [3]
    capsys.readouterr()


def test_kusuoka_gate_fires_on_a_nan_eigenvalue(monkeypatch, capsys):
    # NaN passes every "<" comparison; the gate asks for a positive value.
    monkeypatch.setattr(cli.kus_mod, "_small_eigenvalues", lambda taus, l: [float("nan")] * len(taus))
    assert cli.main(["kusuoka", "--depth", "2"]) == 2
    assert capsys.readouterr().err == "assertion failed: cylinder matrix min eigenvalue nan is not positive\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["energy", "--u", "1e155*x^2", "--depth", "3"], b"error: a form term overflows the double range"),
        (["convergence", "--u", "1e200*x", "--depth", "3"], b"error: a form term overflows the double range"),
        # Every term fits in a double, their sum does not.
        (["energy", "--u", "2e154*x^2", "--depth", "3"], b"error: a sum of form terms overflows the double range"),
    ],
    ids=["energy", "convergence", "energy-sum"],
)
def test_overflowing_form_terms_exit_one_with_one_error_line(argv, message):
    proc = run_cli(*argv, check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(message)
    assert proc.stderr.count(b"\n") == 1  # no RuntimeWarning, no traceback
    assert proc.stdout == b""
    # Below the double range the form is still reported.
    total = json.loads(run_cli("energy", *EXP_FLAGS, "--u", "1e150*x^2", "--depth", "3").stdout)["total"]
    assert total == 5.6607049169557e299


@pytest.mark.parametrize("argv", [["kusuoka", "--eps-const", "0.5", "--depth", "13"], ["laplacian", "--depth", "20"]])
def test_depth_past_the_cap_exits_one_before_building(argv, capsys):
    # Unchecked, kusuoka printed all 3^13 rows and laplacian would build the
    # 3^20-row cylinder table before the map table's check fired.
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: depth ") and "exceeds cap 12" in err
    assert elapsed < 1.0 and peak < 1 << 20, (elapsed, peak)


@pytest.mark.parametrize("command, depth", [("convergence", "-2"), ("kusuoka", "-1")])
def test_negative_depth_exits_one(command, depth):
    proc = run_cli(command, "--eps-const", "0.5", "--depth", depth, check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: depth must be >= 0, got {depth}".encode())
    assert proc.stdout == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["energy", "--eps-const", "0.5", "--depth", "2", "--u", "1e400*x"],
        ["laplacian", *EXP_FLAGS, "--depth", "1", "--phi", "1e400*x^2"],
        ["laplacian", *EXP_FLAGS, "--depth", "1", "--phi", "1e200*1e200*x^2 - 1e200*1e200*x^2 + x"],
        ["convergence", "--eps-const", "0.5", "--u", "1e400*x"],
    ],
    ids=["energy", "laplacian-inf", "laplacian-nan", "convergence"],
)
def test_non_finite_coefficients_exit_one(argv):
    proc = run_cli(*argv, check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"error: ") and b"not finite" in proc.stderr
    assert proc.stdout == b""


@pytest.mark.parametrize("depth", range(5))
def test_tables_match_the_row_by_row_rendering(depth, tmp_path):
    seq = ParamSeq(prefix=(0.9,), tail=ExpTail(0.05, 0.5))  # EXP_FLAGS
    summary = tmp_path / "summary.json"
    proc = run_cli("kusuoka", *EXP_FLAGS, "--depth", str(depth), "--json", str(summary))
    text, side = kusuoka_text_by_rows(depth)
    assert proc.stdout == text.encode()
    assert summary.read_bytes() == side.encode()
    phi = "x^3 - 0.7*x*y + y^4"
    proc = run_cli("laplacian", *EXP_FLAGS, "--depth", str(depth), "--phi", phi)
    assert proc.stdout == laplacian_text_by_rows(seq, parse(phi), depth).encode()
    edges = tmp_path / "edges.json"
    proc = run_cli("geometry", *EXP_FLAGS, "--depth", str(depth), "--shade", "--json", str(edges))
    svg, side = geometry_text_by_rows(seq, depth)
    assert proc.stdout == svg.encode()
    assert edges.read_bytes() == side.encode()


def test_missing_config_file_exits_one():
    assert run_cli("energy", "--config", "/nonexistent/path.cfg", check=False).returncode == 1


def test_assertion_failures_exit_two():
    proc = run_cli(
        "harmonicity", "--eps-const", "0.5", "--depth", "2", "--ratio", "0.5", check=False
    )
    assert proc.returncode == 2
    assert b"assertion failed" in proc.stderr
    assert b"vertex" in proc.stderr


def test_require_vanishing_gate():
    proc = run_cli(
        "energy", "--eps-const", "0.5", "--v", "x*y", "--require-vanishing", check=False
    )
    assert proc.returncode == 1
    # The product of the three side line-forms vanishes at the corners.
    cubic = "(y^2 - 0.3333333333333333*x^2)*(x - 0.8660254037844386)"
    ok = run_cli("energy", "--eps-const", "0.5", "--v", cubic, "--require-vanishing", check=False)
    assert ok.returncode == 0, ok.stderr.decode()
