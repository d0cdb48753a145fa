import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from stretched_gasket import ExpTail, ParamSeq, cli, geometry, harmonicity, parse

from conftest import cold_peak
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


def test_harmonicity_names_no_vertex_at_depth_zero(capsys):
    # Depth 0 has only the base corners, so no interior vertex is named: null, not "/".
    assert cli.main(["harmonicity", *EXP_FLAGS, "--depth", "0"]) == 0
    payload = strict_json(capsys.readouterr().out)
    assert (payload["residual"], payload["worst_vertex_word"]) == (0.0, None)


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


def test_ibp_decay_gate_compares_the_deepest_depth_with_the_shallowest(monkeypatch, capsys):
    # The sweep's rows keep the requested order; the gate reads them by depth.
    outs = []
    for depths in ("3,5", "5,3"):
        assert cli.main(["ibp", "--depths", depths]) == 0
        outs.append(capsys.readouterr().out.split("\r\n"))
    assert outs[0][0] == outs[1][0] and outs[0][1:3] == outs[1][2:0:-1]
    # A residual that grows with depth fails in either order, named shallowest first.
    real = cli.lap_mod.ibp_table
    monkeypatch.setattr(cli.lap_mod, "ibp_table", lambda *args: [{**r, "residual": r["residual"] * 100.0 ** r["depth"]} for r in real(*args)])
    for depths in ("3,5", "5,3"):
        assert cli.main(["ibp", "--depths", depths]) == 2
        assert capsys.readouterr().err.startswith("assertion failed: residuals do not decay over depths 3..5: ")


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


def test_const_a_flag_is_refused():
    proc = run_cli("energy", "--eps-const", "0.5", "--depth", "1", "--const-a", "0.25", check=False)
    assert proc.returncode == 1
    assert proc.stderr.startswith(b"usage: ")
    assert b"unrecognized arguments: --const-a 0.25" in proc.stderr


def test_config_keys_no_subcommand_reads_are_refused(tmp_path):
    cfg = tmp_path / "run.cfg"
    # A key that another subcommand reads passes, so one file serves every subcommand.
    cfg.write_text("eps.const = 0.5\ndepth = 1\nphi = x^2\n")
    assert run_cli("energy", "--config", str(cfg)).returncode == 0
    for key in ("depht", "constants.a", "quad.order"):
        cfg.write_text(f"eps.const = 0.5\n# {key} is misspelt or gone\n\n{key} = 2\n")
        proc = run_cli("energy", "--config", str(cfg), check=False)
        assert proc.returncode == 1
        assert proc.stderr.decode() == f"error: {cfg}:4: unknown config key {key!r}\n"
        assert proc.stdout == b""


def test_tail_flags_of_both_kinds_are_refused(tmp_path):
    proc = run_cli("energy", "--eps-const", "0.3", "--tail-c", "0.05", check=False)
    assert proc.returncode == 1
    assert proc.stderr == b"error: eps.const and eps.tail.* are mutually exclusive\n"
    assert proc.stdout == b""
    # A tail flag still replaces the config file's tail of the other kind.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps.const = 0.3\ndepth = 1\n")
    spec = json.loads(run_cli("energy", "--config", str(cfg), "--tail-r", "0.25").stdout)["eps_spec"]
    assert spec["tail"] == {"kind": "exp", "c": 0.1, "r": 0.25}
    cfg.write_text("eps.tail.c = 0.05\ndepth = 1\n")
    spec = json.loads(run_cli("energy", "--config", str(cfg), "--eps-const", "0.3").stdout)["eps_spec"]
    assert spec["tail"] == {"kind": "const", "value": 0.3}


#: Flags a subcommand does not take, each a usage error: the pairs that were once accepted and
#: then ignored; ``--quad-order``, which no subcommand takes since the forms use the lowest exact
#: Gauss order, at least 8; and ``energy --require``, a prefix of ``--require-vanishing``
#: (``ibp --depth`` is also one of ``--depths``).
_UNREAD_FLAGS = [
    *[(command, "--depths") for command in cli._COMMANDS if command != "ibp"],
    *[(command, "--json") for command in cli._COMMANDS if command not in ("geometry", "kusuoka")],
    *[(command, "--quad-order") for command in cli._COMMANDS],
    ("ruelle", "--depth"),
    ("ibp", "--depth"),
    ("energy", "--require"),
]


@pytest.mark.parametrize("command, flag", _UNREAD_FLAGS, ids=["".join(pair) for pair in _UNREAD_FLAGS])
def test_flags_the_subcommand_does_not_read_are_refused(command, flag, tmp_path, capsys):
    value = str(tmp_path / "side.json") if flag == "--json" else "3"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--eps-const", "0.5", flag, value])
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"usage: stretched-gasket {command} ")
    assert err.endswith(f"stretched-gasket {command}: error: unrecognized arguments: {flag} {value}\n")
    assert not (tmp_path / "side.json").exists()


@pytest.mark.parametrize("argv", [["ibp", "--depth", "9"], ["kusuoka", "--quad-order", "9"]])
def test_an_unread_flag_is_refused_with_the_subcommand_usage(argv):
    # argparse's subparsers hand what they do not take to the top-level
    # parser, which printed its own usage, naming no subcommand.
    proc = run_cli(*argv, check=False)
    assert proc.returncode == 1 and proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert lines[0].startswith(f"usage: stretched-gasket {argv[0]} [-h]")
    assert lines[-1] == f"stretched-gasket {argv[0]}: error: unrecognized arguments: {' '.join(argv[1:])}"


def test_the_benchmark_defect_probe_is_refused_naming_the_order():
    # A rule too low for x^12 may not print an energy.  The flag is gone, so the probe is a
    # usage error whose line names it; the benchmark passes exit 1 with "quad" and "order".
    proc = run_cli("energy", "--u", "x^12", "--depth", "2", "--quad-order", "2", check=False)
    assert proc.returncode == 1 and proc.stdout == b""
    assert b"quad" in proc.stderr and b"order" in proc.stderr
    assert proc.stderr.decode().splitlines()[-1] == "stretched-gasket energy: error: unrecognized arguments: --quad-order 2"


@pytest.mark.parametrize("text", ["yes", "True", "1"])
def test_shade_key_other_than_true_or_false_is_refused(text, tmp_path, capsys):
    # Read as "not true", these printed an unshaded SVG and exited 0.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"eps.const = 0.5\ndepth = 1\nshade = {text}\n")
    assert cli.main(["geometry", "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"error: shade: expected true or false, got {text!r}\n")


def test_shade_key_and_flag_shade_the_three_cells(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for text, polygons in (("true", 3), ("false", 0)):
        cfg.write_text(f"eps.const = 0.5\ndepth = 1\nshade = {text}\n")
        assert cli.main(["geometry", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.count("<polygon") == polygons
        assert cli.main(["geometry", "--config", str(cfg), "--shade"]) == 0
        assert capsys.readouterr().out.count("<polygon") == 3


@pytest.mark.parametrize(
    "command, key, text",
    [
        ("energy", "depth", "abc"),
        ("ibp", "depths", "3,x"),
        ("selfsim", "eps.tail.r", "half"),
        ("harmonicity", "ratio", "1/3"),
        ("kusuoka", "eps.prefix", "0.9,half"),
    ],
)
def test_malformed_flag_and_config_text_fail_alike(command, key, text, tmp_path, capsys):
    # One converter per option: the flag and the file give the same single error line.
    flag = next(opt.flag for opt in cli._OPTIONS if opt.key == key)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {text}\n")
    assert cli.main([command, flag, text]) == 1
    from_flag = capsys.readouterr()
    assert cli.main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr() == from_flag
    assert from_flag.out == "" and from_flag.err.startswith(f"error: {key}: ") and from_flag.err.count("\n") == 1


def test_ruelle_eigenvalue_as_a_subnormal_double():
    # lam = (3/5) eps^2 = 6e-311 is below the normal range but not 0.0.
    proc = run_cli("ruelle", "--eps", "1e-155")
    assert proc.stderr == b""
    payload = json.loads(proc.stdout)
    assert payload["lambda"] == 0.6 * 1e-155 * 1e-155 and payload["q"] == [[1.0, 0.0], [0.0, 1.0]]


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


@pytest.mark.parametrize("depth, ratio", [("0", "1.7e308"), ("2", "1.7e308"), ("2", "-1.7e308")])
def test_a_ratio_whose_level_maps_overflow_exits_one_with_one_error_line(depth, ratio):
    # Refused by the level maps at every depth, before nd_gamma or the vertex stars read them.
    proc = run_cli("harmonicity", "--eps-const", "0.9", "--depth", depth, f"--ratio={ratio}", check=False)
    assert proc.returncode == 1 and proc.stdout == b""
    want = f"error: beta/alpha {float(ratio)!r} gives level maps past the double range at eps 0.9\n"
    assert proc.stderr.decode() == want


@pytest.mark.parametrize(
    "command", ["geometry", "energy", "harmonicity", "ruelle", "ibp", "convergence", "selfsim", "laplacian"]
)
def test_prefactor_underflow_exits_one_without_traceback(command):
    # lam = (3/5) eps^2 underflows to 0.0 at eps = 1e-200.  The Laplacian
    # samples need a tail product, so they take eps_1 = 1e-200 before the
    # default exponential tail: the generation-2 cable weight underflows.
    # ruelle and ibp read no depth.
    eps = ["--eps-prefix", "1e-200"] if command == "laplacian" else ["--eps-const", "1e-200"]
    depth = [] if command in ("ruelle", "ibp") else ["--depth", "3"]
    proc = run_cli(command, *eps, *depth, check=False)
    assert proc.returncode == 1
    # Nothing is written before the check: the laplacian table's rows come in
    # blocks, and the failing cable weight belongs to rows after the cells.
    assert proc.stdout == b""
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
    # kappa is read off the rows kusuoka prints, not off a second table: the
    # rows are asked for one writer block at a time, and the ranges cover the
    # 3^l words exactly once, whether or not the blocks align with 3^7.  The
    # writer blocks are the library's ranges, so the products walk 5-row
    # ranges too.
    tau_table = cli.kus_mod.tau_table
    for depth, block_rows in ((3, 5), (8, 3**7)):
        ranges = []

        def recorded(l, start=0, stop=None):
            ranges.append((l, start, stop))
            return tau_table(l, start, stop)

        monkeypatch.setattr(cli.kus_mod, "tau_table", recorded)
        monkeypatch.setattr(geometry, "_RANGE_ROWS", block_rows)
        cli.kus_mod.kappa_table.cache_clear()
        assert cli.main(["kusuoka", "--depth", str(depth)]) == 0
        rows = [i for l, start, stop in ranges for i in range(start, 3**l if stop is None else stop)]
        assert {l for l, _, _ in ranges} == {depth} and len(ranges) == -(-(3**depth) // block_rows)
        assert sorted(rows) == list(range(3**depth))
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


@pytest.mark.parametrize("depth", [3, 4])
def test_tables_match_the_row_by_row_rendering_over_many_blocks(depth, tmp_path, monkeypatch, capsys):
    # Five-row blocks: the tables span up to 41 blocks, a partial one last,
    # and the laplacian blocks straddle the cell and cable sections.  The
    # library's ranges are the same constant, so the tables' own rows are
    # built in 5-row ranges too.
    monkeypatch.setattr(geometry, "_RANGE_ROWS", 5)
    seq = ParamSeq(prefix=(0.9,), tail=ExpTail(0.05, 0.5))  # EXP_FLAGS
    phi = "x^3 - 0.7*x*y + y^4"
    text, summary = kusuoka_text_by_rows(depth)
    svg, edges = geometry_text_by_rows(seq, depth)
    runs = [
        (["kusuoka", "--depth", str(depth), "--json"], text, summary),
        (["laplacian", "--depth", str(depth), "--phi", phi], laplacian_text_by_rows(seq, parse(phi), depth), None),
        (["geometry", "--depth", str(depth), "--shade", "--json"], svg, edges),
    ]
    for argv, want, side in runs:
        side_path, out_path = tmp_path / "side.json", tmp_path / "table.out"
        side_arg = [str(side_path)] if side is not None else []
        argv = [*argv[:1], *EXP_FLAGS, *argv[1:], *side_arg]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == want, argv
        if side is not None:
            assert side_path.read_bytes() == side.encode()
        assert cli.main([*argv, "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        assert out_path.read_bytes() == want.encode(), argv


def test_written_tables_stay_within_their_memory_ceilings(tmp_path, capsys):
    # Ceilings are about twice the peaks measured (1.36 and 1.67 MiB, the
    # SVG text in the captured stdout included).  With the whole tau table
    # and edge list built first the peaks were 5.9 and 2.5 MiB, with the
    # text built as one string 30 and 8.4 MiB, and with the whole edge table
    # built before the first byte 1.78 MiB for geometry.  kusuoka holds one
    # block of tau rows and the 8-byte kappa per word; geometry one range of
    # edge rows at a time (all 3,279 at depth 6) and the kappa per cell.
    mib = 2**20
    table, edges = tmp_path / "k.csv", tmp_path / "e.json"
    assert cold_peak(lambda: cli.main(["kusuoka", "--depth", "10", "--out", str(table)])) < 3 * mib
    assert cold_peak(lambda: cli.main(["geometry", "--depth", "6", "--shade", "--json", str(edges)])) < 3.4 * mib
    assert table.read_bytes().count(b"\r\n") == 3**10 + 1
    assert capsys.readouterr().out.endswith("</svg>\n") and edges.read_bytes().endswith(b"]\n}\n")


#: Runs the CLI as ``python -m stretched_gasket`` does and reports its RSS high-water mark.
_PEAK_LAUNCHER = """
import runpy, sys
try:
    runpy.run_module("stretched_gasket", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status", encoding="ascii") as fh:
        sys.stderr.write(next(line for line in fh if line.startswith("VmHWM:")))
"""


def _child_peak_kb(*argv) -> int:
    """VmHWM of the CLI child run on ``argv``, stdout discarded."""
    cmd = [sys.executable, "-c", _PEAK_LAUNCHER, *argv]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, check=True)
    return int(proc.stderr.split()[-2])


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status for VmHWM")
def test_kusuoka_at_the_depth_cap_stays_within_its_rss_ceiling():
    # Measured 35.7 MiB with the tau rows computed block by block, most of it
    # the interpreter and numpy; 96 MiB with the whole 3^12-row cylinder
    # table and its map products (32 MiB) built first, 325 MiB as one string.
    peak_kb = _child_peak_kb("kusuoka", "--depth", "12")
    assert peak_kb <= 55 * 1024, peak_kb


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status for VmHWM")
@pytest.mark.parametrize("command", ["harmonicity", "laplacian"])
def test_blocked_commands_at_the_depth_cap_stay_within_their_rss_ceilings(command):
    # Measured 33.2 and 32.6 MiB with the stars and the samples built 3^7
    # cells or rows at a time, most of it the interpreter and numpy; 568 and
    # 429 MiB with the whole star and sample tables.
    peak_kb = _child_peak_kb(command, "--depth", "12")
    assert peak_kb <= 64 * 1024, peak_kb


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status for VmHWM")
def test_geometry_reads_each_edge_range_once_for_both_files(tmp_path, monkeypatch, capsys):
    # The SVG lines and the JSON edges come from one edge read per range; the shading
    # maps the cells' corners from their map rows and reads no edge row.  Five-row
    # ranges: many of each.
    monkeypatch.setattr(geometry, "_RANGE_ROWS", 5)
    real, calls = cli._edge_rows, []
    monkeypatch.setattr(cli, "_edge_rows", lambda seq, depth, a, b: calls.append((a, b)) or real(seq, depth, a, b))
    depth, edges = 3, tmp_path / "edges.json"
    assert cli.main(["geometry", *EXP_FLAGS, "--depth", str(depth), "--shade", "--json", str(edges)]) == 0
    svg, side = geometry_text_by_rows(ParamSeq(prefix=(0.9,), tail=ExpTail(0.05, 0.5)), depth)
    assert capsys.readouterr().out == svg and edges.read_text() == side
    assert calls == list(geometry._ranges(geometry._carrier_count(depth, 3)))


def test_geometry_refuses_one_path_for_the_svg_and_the_json(tmp_path, capsys):
    # Both files are open while the rows are written, so one path for both is refused
    # before any output.
    path = tmp_path / "both.out"
    argv = ["geometry", *EXP_FLAGS, "--depth", "1", "--out", str(path), "--json", str(tmp_path / "." / "both.out")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: --out and --json name the same file: {tmp_path / '.' / 'both.out'}\n"
    assert not path.exists()


def test_kusuoka_refuses_one_path_for_the_table_and_the_json(tmp_path, capsys):
    # The summary is written after the table, so one path for both would keep the summary alone.
    path = tmp_path / "both.out"
    assert cli.main(["kusuoka", "--depth", "2", "--out", str(path), "--json", str(path)]) == 1
    assert capsys.readouterr().err == f"error: --out and --json name the same file: {path}\n"
    assert not path.exists()


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_geometry_refuses_a_json_path_that_is_the_svg_stream():
    # /dev/stdout names the pipe the SVG goes to: the two would interleave in it.
    proc = run_cli("geometry", *EXP_FLAGS, "--depth", "2", "--json", "/dev/stdout", check=False)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"error: --out and --json name the same file: /dev/stdout\n"


def test_geometry_refuses_a_hard_link_to_the_svg_and_lets_dev_null_take_both(tmp_path, capsys):
    # A hard link names the --out file by another path; it is refused before the first byte.
    svg, link = tmp_path / "edges.svg", tmp_path / "edges.json"
    svg.write_text("kept")
    os.link(svg, link)
    assert cli.main(["geometry", *EXP_FLAGS, "--depth", "1", "--out", str(svg), "--json", str(link)]) == 1
    assert capsys.readouterr().err == f"error: --out and --json name the same file: {link}\n"
    assert svg.read_text() == "kept"
    # /dev/null is one file too, but nothing is read back from it.
    assert cli.main(["geometry", *EXP_FLAGS, "--depth", "1", "--out", os.devnull, "--json", os.devnull]) == 0


def test_geometry_at_depth_10_stays_within_its_rss_ceiling():
    # Measured 33.4 MiB with the polygons' corners mapped from their cells' map
    # rows and the edge rows built a range at a time as the SVG and the edge
    # JSON are written, most of it the interpreter and numpy (34.7 MiB with the
    # polygons read from the cells' edge rows);
    # 99 MiB with the whole 265,719-row edge table built first (62 MiB of
    # tracemalloc), 219 MiB with the SVG text and the edge dicts built whole.
    peak_kb = _child_peak_kb("geometry", "--depth", "10", "--shade", "--json", os.devnull)
    assert peak_kb <= 64 * 1024, peak_kb


NAN = float("nan")


@pytest.mark.parametrize(
    "argv, module, name, edit, message",
    [
        (["kusuoka", "--depth", "2"], "kus_mod", "_trace", lambda k: k * NAN, "level mass sum nan"),
        (["ruelle", "--eps", "0.7"], "kus_mod", "perron_report", lambda p: {**p, "residual": NAN}, "eigen-residual nan"),
        (
            ["ibp", "--phi", "2*x - y", "--depths", "3,4"],
            "lap_mod",
            "ibp_table",
            lambda rows: [{**r, "residual": NAN} for r in rows],
            "affine field residual nan",
        ),
        (
            ["ibp", "--phi", "x^2", "--depths", "3,4"],
            "lap_mod",
            "ibp_table",
            lambda rows: [*rows[:-1], {**rows[-1], "residual": NAN}],
            "residuals do not decay",
        ),
        (
            ["harmonicity", "--depth", "2"],
            "harm_mod",
            "harmonic_report",
            lambda rep: dataclasses.replace(rep, residual=NAN),
            "harmonic residual nan",
        ),
        (
            ["convergence", "--depth", "3"],
            "energy_mod",
            "convergence_rows",
            lambda rows: [rows[0], {**rows[1], "delta": NAN}, *rows[2:]],
            "increment nan at l=1",
        ),
        (
            ["selfsim", "--depth", "3"],
            "energy_mod",
            "selfsimilar_residual",
            lambda pair: (NAN, pair[1]),
            "self-similarity residual nan",
        ),
    ],
    ids=["kusuoka", "ruelle", "ibp-affine", "ibp-decay", "harmonicity", "convergence", "selfsim"],
)
def test_gates_fire_on_a_nan(argv, module, name, edit, message, monkeypatch, capsys):
    # NaN fails every comparison, so each gate asks whether the value is within its bound.
    assert cli.main([argv[0], *EXP_FLAGS, *argv[1:]]) == 0
    real = getattr(getattr(cli, module), name)
    monkeypatch.setattr(getattr(cli, module), name, lambda *args: edit(real(*args)))
    capsys.readouterr()
    assert cli.main([argv[0], *EXP_FLAGS, *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith(f"assertion failed: {message}")


def test_harmonicity_gate_fires_on_a_nan_vertex(monkeypatch, capsys):
    # A NaN boundary vector is the largest norm: the residual is NaN and names its vertex.
    boundary = harmonicity._boundary

    def nan_at_last_interior(weights, tangents):
        # The depth-2 block's last row is base corner C, corner C of the cell 33; 33/B precedes it.
        out = boundary(weights, tangents)
        out[-2] = NAN
        return out

    monkeypatch.setattr(harmonicity, "_boundary", nan_at_last_interior)
    assert cli.main(["harmonicity", *EXP_FLAGS, "--depth", "2"]) == 2
    out, err = capsys.readouterr()
    assert '"residual": null' in out and strict_json(out)["residual"] is None
    assert err == "assertion failed: harmonic residual nan exceeds 3.3e-11 at vertex 33/B\n"


def strict_json(text: str):
    """``json.loads`` that refuses the bare NaN, Infinity and -Infinity of Python's encoder."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


#: Every JSON output: the four reports on stdout and the two --json side files.
_JSON_OUTPUTS = [
    (["energy", "--depth", "2"], False),
    (["harmonicity", "--depth", "2"], False),
    (["ruelle", "--eps", "0.7"], False),
    (["selfsim", "--depth", "2"], False),
    (["kusuoka", "--depth", "2"], True),
    (["geometry", "--depth", "2", "--shade"], True),
]


def _json_output(argv, side, tmp_path, capsys):
    """The exit code and the JSON text of one run: its --json side file, else its stdout."""
    path = tmp_path / "side.json"
    code = cli.main([argv[0], *EXP_FLAGS, *argv[1:], *(["--json", str(path)] if side else [])])
    out = capsys.readouterr().out
    return code, path.read_text() if side else out


@pytest.mark.parametrize("argv, side", _JSON_OUTPUTS, ids=[argv[0] for argv, _ in _JSON_OUTPUTS])
def test_every_json_output_is_strict(argv, side, tmp_path, capsys):
    code, text = _json_output(argv, side, tmp_path, capsys)
    assert code == 0 and strict_json(text)


def _nan_edge(real):
    def rows(seq, depth, start, stop):
        # The table's first start x and last end y, in whichever ranges hold them.
        table = real(seq, depth, start, stop)
        if start == 0:
            table.px[0] = NAN
        if stop == geometry._carrier_count(depth, 3):
            table.qy[-1] = math.inf
        return table

    return rows


@pytest.mark.parametrize(
    "argv, side, module, name, patch, field, code",
    [
        (["ruelle", "--eps", "0.7"], False, "kus_mod", "perron_report", lambda real: lambda eps: {**real(eps), "residual": NAN}, "residual", 2),
        (["selfsim", "--depth", "2"], False, "energy_mod", "selfsimilar_residual", lambda real: lambda *a: (math.inf, real(*a)[1]), "residual", 2),
        (["kusuoka", "--depth", "2"], True, "kus_mod", "_trace", lambda real: lambda taus: real(taus) * NAN, "sum_kappa", 2),
        (["geometry", "--depth", "1"], True, "", "_edge_rows", _nan_edge, "edges", 0),
    ],
    ids=["ruelle", "selfsim", "kusuoka", "geometry"],
)
def test_non_finite_values_are_written_as_null(argv, side, module, name, patch, field, code, tmp_path, monkeypatch, capsys):
    # Python's encoder writes a NaN as the bare token NaN, which strict parsers refuse.
    owner = getattr(cli, module) if module else cli
    monkeypatch.setattr(owner, name, patch(getattr(owner, name)))
    status, text = _json_output(argv, side, tmp_path, capsys)
    payload = strict_json(text)
    assert status == code
    if field == "edges":
        assert payload["edges"][0]["p"][0] is None and payload["edges"][-1]["q"][1] is None
        assert None not in payload["edges"][0]["q"] + payload["edges"][-1]["p"]
    else:
        assert payload[field] is None


@pytest.mark.parametrize("depth, ratio", [("3", "1e155"), ("8", "1e40")])
def test_harmonicity_refuses_a_ratio_whose_map_products_overflow(depth, ratio):
    # One error line naming the ratio and the depth, and no numpy warning before it.
    proc = run_cli("harmonicity", "--depth", depth, "--ratio", ratio, check=False)
    err = proc.stderr.decode().splitlines()
    assert proc.returncode == 1 and proc.stdout == b""
    assert len(err) == 1 and err[0].startswith(f"error: map ratio {float(ratio)!r} at depth {depth}: "), err


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
