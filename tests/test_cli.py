import ast
import json
import math
import pathlib
import re
import shlex
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlametro import cli
from nlametro.fisher import qfi_effective, qfi_effective_closed_form
from nlametro.fock import FockVector
from nlametro.instrument import SUCCESS, NlaParams, branch_probability
from nlametro.montecarlo import DETECTORS
from nlametro.probes import ProbeSpec


def _write_probe(tmp_path, name, amps):
    path = tmp_path / name
    path.write_text(json.dumps([[float(a), 0.0] for a in amps]))
    return path


def _rows(csv_text):
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def test_compare_vacuum_hand_row(tmp_path, capsys):
    probe = _write_probe(tmp_path, "vacuum.json", [1.0])
    rc = cli.main([
        "compare", "--probe", "custom", "--custom-file", str(probe),
        "--p", "1", "--g", "2:2:1",
    ])
    assert rc == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == ["g", "q_eff", "ps_qs", "q_unc"]
    g, q_eff, ps_qs, q_unc = rows[0]
    assert g == 2.0
    assert q_eff == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert ps_qs == pytest.approx(0.0, abs=1e-9)
    assert q_unc == 0.0


def test_compare_prints_q_unc_of_a_one_level_probe_as_zero(capsys):
    # squeezed vacuum at nbar=0 is |0>: its output is |0><0| at every gain
    rc = cli.main(["compare", "--probe", "squeezed-vacuum", "--nbar", "0", "--p", "2",
                   "--g", "1.5:2:2"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "g,q_eff,ps_qs,q_unc\n"
        "1.5,1.75042735,0,0\n"
        "2,0.266666667,0,0\n"
    )


def test_compare_monotone_decreasing_columns(capsys):
    rc = cli.main([
        "compare", "--probe", "coherent", "--nbar", "1",
        "--p", "3", "--g", "1.05:6:200",
    ])
    assert rc == 0
    _, rows = _rows(capsys.readouterr().out)
    assert len(rows) == 200
    q_eff = np.array([r[1] for r in rows])
    assert np.all(np.diff(q_eff) < 0.0)
    # per-row hierarchy from the table itself
    for _, qe, psqs, qunc in rows:
        assert psqs <= qe and qunc <= qe


def test_compare_rejects_gain_at_or_below_one(capsys):
    rc = cli.main([
        "compare", "--probe", "coherent", "--nbar", "1",
        "--p", "3", "--g", "0.9:2:10",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "g > 1" in err


def test_compare_keeps_q_unc_where_the_success_branch_vanishes(capsys):
    # p_s < 1e-20 at each gain; q_unc tracks q_eff instead of reading 0
    rc = cli.main(["compare", "--probe", "coherent", "--nbar", "1", "--p", "60", "--g", "1.5:1000:3"])
    assert rc == 0
    assert capsys.readouterr().out == (
        "g,q_eff,ps_qs,q_unc\n"
        "1.5,1.53176226e-17,1.0327067e-20,3.08463313e-18\n"
        "500.75,1.47297046e-253,4.85527657e-261,1.47297046e-253\n"
        "1000,1.3616282e-280,1.12534324e-288,1.3616282e-280\n"
    )


def test_contributions_two_level_hand_row(tmp_path, capsys):
    s = 1.0 / math.sqrt(2.0)
    probe = _write_probe(tmp_path, "two.json", [s, s])
    rc = cli.main([
        "contributions", "--probe", "custom", "--custom-file", str(probe),
        "--p", "1", "--g", "2:2:1",
    ])
    assert rc == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == ["g", "f_c", "ps_qs", "pf_qf"]
    _, f_c, ps_qs, pf_qf = rows[0]
    assert f_c == pytest.approx(1.0 / 15.0, abs=1e-9)
    assert ps_qs == pytest.approx(0.1, abs=1e-9)
    assert pf_qf == pytest.approx(0.0, abs=1e-9)


def test_contributions_sum_to_q_eff(capsys):
    # JSON output carries full-precision floats (CSV rounds to 9 significant
    # digits, which is coarser than the identity we are checking here).
    rc = cli.main([
        "contributions", "--probe", "squeezed-vacuum", "--nbar", "1.5",
        "--p", "2", "--g", "1.1:3:12", "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    probe = ProbeSpec.from_nbar("squeezed-vacuum", 1.5).build()
    for g, f_c, ps_qs, pf_qf in payload["rows"]:
        q_eff = qfi_effective_closed_form(probe, NlaParams(g=g, p=2))
        assert f_c + ps_qs + pf_qf == pytest.approx(q_eff, rel=1e-9)


def test_csv_formatting_nine_significant_digits(capsys):
    cli.main(["compare", "--probe", "coherent", "--nbar", "1", "--p", "3", "--g", "1.3:1.3:1"])
    out = capsys.readouterr().out
    lines = out.split("\n")
    assert out.endswith("\n") and "\r" not in out
    value = lines[1].split(",")[1]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 9


def test_json_table_matches_csv_values(capsys):
    args = ["compare", "--probe", "coherent", "--nbar", "0.5", "--p", "2", "--g", "1.2:2:3"]
    cli.main(args)
    _, csv_rows = _rows(capsys.readouterr().out)
    cli.main(args + ["--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == cli.TABLE_SCHEMA_VERSION
    assert payload["columns"] == ["g", "q_eff", "ps_qs", "q_unc"]
    for csv_row, json_row in zip(csv_rows, payload["rows"]):
        assert json_row == pytest.approx(csv_row, rel=1e-8)


def test_sweep_nbar_squeezed_beats_coherent_at_moderate_gain(capsys):
    # p = 2, g = 1.5: squeezed vacuum dominates once the input carries at
    # least a photon on average (below nbar ~ 0.9 the coherent probe wins).
    cols = {}
    for kind in ("coherent", "squeezed-vacuum"):
        rc = cli.main([
            "sweep-nbar", "--probe", kind, "--gain", "1.5",
            "--p", "2", "--nbar-grid", "1:3:9",
        ])
        assert rc == 0
        _, rows = _rows(capsys.readouterr().out)
        cols[kind] = np.array([r[1] for r in rows])
    assert np.all(cols["squeezed-vacuum"] >= cols["coherent"])


def test_sweep_nbar_zero_energy_matches_vacuum(tmp_path, capsys):
    cli.main([
        "sweep-nbar", "--probe", "coherent", "--gain", "1.5",
        "--p", "2", "--nbar-grid", "0:0:1", "--format", "json",
    ])
    payload = json.loads(capsys.readouterr().out)
    vacuum_q = 4.0 * 4.0 * 1.5 ** -6 / (1.0 - 1.5 ** -4)
    assert payload["rows"][0][1] == pytest.approx(vacuum_q, rel=1e-12)


def test_sweep_nbar_distinct_threshold_columns(capsys):
    rc = cli.main([
        "sweep-nbar", "--probe", "coherent", "--gain", "1.5",
        "--p", "2", "3", "4", "--nbar-grid", "0:4:20",
    ])
    assert rc == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == ["nbar", "q_eff_p2", "q_eff_p3", "q_eff_p4"]
    arr = np.array(rows)
    assert np.all(np.isfinite(arr)) and np.all(arr[:, 1:] > 0.0)
    # columns must genuinely differ
    assert not np.allclose(arr[:, 1], arr[:, 2])
    assert not np.allclose(arr[:, 2], arr[:, 3])


@pytest.mark.parametrize(
    "thresholds, message",
    [(["2", "2"], "repeats the threshold 2"), (["3", "2", "3", "2", "4"], "repeats the thresholds 2, 3")],
)
def test_sweep_nbar_rejects_a_repeated_threshold(thresholds, message, capsys):
    # a repeated threshold once gave the header nbar,q_eff_p2,q_eff_p2 and exit 0
    rc = cli.main([
        "sweep-nbar", "--probe", "coherent", "--gain", "1.5",
        "--p", *thresholds, "--nbar-grid", "0:1:2",
    ])
    assert rc == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_sweep_nbar_cells_equal_their_single_threshold_values(capsys):
    # with thresholds 1..8 in one call, each cell is its own point's value
    thresholds = range(1, 9)
    rc = cli.main([
        "sweep-nbar", "--probe", "coherent", "--gain", "1.05", "--nbar-grid", "0.1:8:40",
        "--p", *map(str, thresholds), "--format", "json",
    ])
    assert rc == 0
    for nbar, *cells in json.loads(capsys.readouterr().out)["rows"]:
        probe = ProbeSpec.from_nbar("coherent", nbar).build()
        singles = [qfi_effective_closed_form(probe, NlaParams(g=1.05, p=p)) for p in thresholds]
        assert cells == singles, nbar


def test_simulate_writes_reproducible_json(tmp_path):
    probe = _write_probe(tmp_path, "vacuum.json", [1.0])
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = [
        "simulate", "--probe", "custom", "--custom-file", str(probe),
        "--p", "1", "--g-true", "2", "--detector", "herald-only",
        "--shots", "2000", "--replications", "40", "--seed", "123",
    ]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["schema_version"] == cli.RESULT_SCHEMA_VERSION
    assert payload["config"]["seed"] == 123
    assert payload["config"]["probe"]["kind"] == "custom"
    result = payload["result"]
    assert len(result["estimates"]) == 40
    assert result["ratio"] > 0
    # default 61-point grid: each replication evaluates the likelihood at the 61
    # grid gains, and the score at the two ends of one cell plus once per step
    assert result["likelihood_evaluations"] == 61 * 40
    assert result["score_evaluations"] >= 2 * 40
    assert 0 <= result["edge_hits"] <= 40


def test_simulate_records_jsonl(tmp_path):
    probe = _write_probe(tmp_path, "vacuum.json", [1.0])
    records = tmp_path / "records.jsonl"
    rc = cli.main([
        "simulate", "--probe", "custom", "--custom-file", str(probe),
        "--p", "1", "--g-true", "2", "--detector", "herald-only",
        "--shots", "500", "--replications", "10", "--seed", "7",
        "--out", str(tmp_path / "r.json"), "--records", str(records),
    ])
    assert rc == 0
    assert len(records.read_text().splitlines()) == 10


def test_simulate_degenerate_probe_structured_error(tmp_path, capsys):
    probe = _write_probe(tmp_path, "one.json", [0.0, 1.0])
    rc = cli.main([
        "simulate", "--probe", "custom", "--custom-file", str(probe),
        "--p", "1", "--g-true", "2", "--detector", "photon-counting",
        "--shots", "100", "--replications", "5", "--seed", "1",
    ])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "DegenerateLikelihood"


# At p = 0 every level has E_s = 1 and E_f = 0, so no shot carries gain
# information; p_s is the sum of the squared moduli over the image rows,
# which rounds to 1 - 2^-53 for the first probe and to 1 for the second,
# while the failure branch is impossible for both.  (Three levels or more
# give p_s the square of a tail norm, which never rounds to 1 - 2^-53.)
@pytest.mark.parametrize("amps, ps_below_one", [
    ([0.32212805233828007, 0.9466961064125838], True),
    ([0.0, 1.0], False),
])
def test_simulate_probe_above_the_threshold_is_degenerate_however_p_s_rounds(
    tmp_path, capsys, amps, ps_below_one
):
    ps = branch_probability(FockVector(amps), NlaParams(g=2.0, p=0), SUCCESS)
    assert (ps < 1.0) == ps_below_one
    probe = _write_probe(tmp_path, "above.json", amps)
    rc = cli.main([
        "simulate", "--probe", "custom", "--custom-file", str(probe),
        "--p", "0", "--g-true", "2", "--detector", "photon-counting",
        "--shots", "10", "--seed", "1", "--replications", "3",
    ])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "DegenerateLikelihood"


def test_probe_flag_validation(capsys):
    assert cli.main(["compare", "--probe", "custom", "--p", "1", "--g", "2:2:1"]) == 2
    assert "custom-file" in capsys.readouterr().err
    assert cli.main(["compare", "--probe", "coherent", "--p", "1", "--g", "2:2:1"]) == 2
    assert "--nbar or --amplitude" in capsys.readouterr().err


@pytest.mark.parametrize("amps", [[[10 ** 400, 0]], [["0.5", 0], [0.5, 0]], [[True, 0]]])
def test_a_custom_probe_part_that_is_no_double_is_a_usage_error(amps, tmp_path, capsys):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(amps))
    argv = ["compare", "--probe", "custom", "--custom-file", str(path), "--p", "1", "--g", "2:2:1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "amplitude 0 " in captured.err


def test_a_custom_probe_far_from_unit_norm_is_normalized_without_a_warning(tmp_path, capsys):
    argv = ["compare", "--probe", "custom", "--p", "1", "--g", "1.5:3:4", "--custom-file"]
    outputs = []
    for name, text in (("unit.json", "[[1.0, 0], [1.0, 0]]"), ("huge.json", "[[1e200, 0], [1e200, 0]]"),
                       ("tiny.json", "[[1e-320, 0], [1e-320, 0]]")):
        path = tmp_path / name
        path.write_text(text)
        assert cli.main([*argv, str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("text", ["[[NaN, 0]]", "[[0.5, 0], [0, Infinity]]", "[[-Infinity, 0]]"])
def test_a_non_finite_custom_probe_amplitude_is_a_usage_error(text, tmp_path, capsys):
    path = tmp_path / "probe.json"
    path.write_text(text)
    argv = ["compare", "--probe", "custom", "--custom-file", str(path), "--p", "1", "--g", "2:2:1"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "amplitudes must be finite" in captured.err


@pytest.mark.parametrize("argv, absent", [
    ("selfcheck", ("numpy.random", "numpy.polynomial")),
    ("simulate --probe coherent --nbar 1 --p 3 --g-true 2 --detector photon-counting "
     "--shots 500 --replications 20 --seed 1", ("numpy.ma",)),
], ids=["selfcheck", "simulate"])
def test_a_subcommand_leaves_modules_it_does_not_need_unimported(run_python, argv, absent):
    script = ("import sys\n"
              "from nlametro import cli\n"
              f"assert cli.main({argv.split()!r}) == 0\n"
              f"print([name for name in {absent!r} if name in sys.modules], file=sys.stderr)\n")
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stderr.strip().splitlines()[-1] == "[]"


def test_bad_grid_syntax_rejected(capsys):
    assert cli.main(["compare", "--probe", "coherent", "--nbar", "1", "--p", "1", "--g", "1.5:2"]) == 2
    assert "a:b:n" in capsys.readouterr().err


def test_simulate_grid_below_gain_floor_rejected(capsys):
    rc = cli.main([
        "simulate", "--probe", "coherent", "--nbar", "1", "--p", "1", "--g-true", "1.5",
        "--detector", "photon-counting", "--shots", "10", "--replications", "2",
        "--seed", "1", "--grid", "1.000000000001:2:5",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "1.000000000001" in err and "np.float64" not in err


@pytest.mark.parametrize("grid", [
    "1.5:2:x", "1.5:x:61", "x:2:61", "1.5:2", "1.5:2:61:1", "", "1.5:2:0", "1.5:2:2",
    "2:1.5:61", "1.5:1.5:61", "nan:2:61", "1.5:2:6.5", "0.5:2:61", "2.5:3:61",
])
def test_simulate_bad_grid_is_a_usage_error(grid, capsys):
    # the search grid takes the gain grids' checks: exit 2 and one error line,
    # never an argparse exit or an internal name
    rc = cli.main([
        "simulate", "--probe", "coherent", "--nbar", "1", "--p", "3", "--g-true", "2",
        "--detector", "herald-only", "--shots", "100", "--replications", "3",
        "--seed", "1", "--grid", grid,
    ])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "_grid_triple" not in err and "np.float64" not in err


@pytest.mark.parametrize("detector", DETECTORS)
def test_simulate_non_finite_grid_is_a_usage_error(detector, capsys):
    # an infinite upper edge once searched a grid of NaN gains and emitted
    # NaN estimates with exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([
            "simulate", "--probe", "coherent", "--nbar", "1", "--p", "3", "--g-true", "2",
            "--detector", detector, "--shots", "100", "--replications", "3",
            "--seed", "1", "--grid", "1.5:inf:61",
        ])
    assert rc == 2
    assert "endpoints must be finite" in capsys.readouterr().err


def test_compare_rows_equal_single_point_budgets(capsys):
    rc = cli.main([
        "compare", "--probe", "squeezed-vacuum", "--nbar", "2", "--p", "5",
        "--g", "1.01:6:40", "--format", "json",
    ])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    probe = ProbeSpec.from_nbar("squeezed-vacuum", 2.0).build()
    for g, q_eff, ps_qs, q_unc in rows:
        bd = qfi_effective(probe, NlaParams(g=g, p=5))
        assert q_eff == qfi_effective_closed_form(probe, NlaParams(g=g, p=5))
        assert (ps_qs, q_unc) == pytest.approx((bd.ps_qs, bd.q_unc), rel=1e-14)


def test_compare_at_an_energy_whose_head_sum_drifted(capsys):
    # nbar=200 needs 318 of the 512 levels; stopping on one minus the head
    # sum used to overflow the cap here
    rc = cli.main(["compare", "--probe", "coherent", "--nbar", "200", "--p", "3", "--g", "1.5:2:2"])
    assert rc == 0
    _, rows = _rows(capsys.readouterr().out)
    assert len(rows) == 2 and all(math.isfinite(v) for row in rows for v in row)


def test_squeezed_probe_beyond_the_cosh_range_is_a_usage_error(capsys):
    # cosh(800) overflows a double; the probe would need far more than 512 levels
    rc = cli.main([
        "compare", "--probe", "squeezed-vacuum", "--amplitude", "800", "--p", "3", "--g", "1.5:2:2",
    ])
    assert rc == 2
    assert "r=800 needs more than 512 levels" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--amplitude", "--nbar"])
@pytest.mark.parametrize("kind", ["coherent", "squeezed-vacuum"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_probe_energy_is_rejected_by_value(flag, kind, value, capsys):
    rc = cli.main(["compare", "--probe", kind, flag, value, "--p", "3", "--g", "1.5:2:2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"must be finite and non-negative, got {value}" in err and "levels" not in err


def test_main_builds_its_parser_once_and_finds_the_handler_at_call_time(monkeypatch, capsys):
    argv = ["compare", "--probe", "coherent", "--nbar", "1", "--p", "1", "--g", "1.5:2:2"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser built again"))
    # a handler replaced on the module after the first call still runs
    monkeypatch.setattr(cli, "cmd_compare", lambda args: 17)
    assert cli.main(argv) == 17


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(
            "simulate --probe coherent --nbar 1 --p 3 --g-true 2 --detector homodyne "
            "--shots 10000 --replications 6 --seed 3",
            id="simulate-homodyne",
        ),
        pytest.param(
            "simulate --probe custom --custom-file {complex_probe} --p 1 --g-true 2 "
            "--detector homodyne --shots 10000 --replications 4 --seed 3",
            id="simulate-homodyne-complex",
        ),
        pytest.param(
            "compare --probe squeezed-vacuum --nbar 2 --p 5 --g 1.01:6:2000 --format json",
            id="compare-squeezed-dim149",
        ),
    ],
)
def test_output_does_not_depend_on_the_blas_thread_count(run_python, args, tmp_path):
    # the likelihood searches and budgets must not pick up the summation order
    # of a multi-threaded BLAS
    complex_probe = tmp_path / "complex.json"
    amps = np.array([0.6, 0.5j, 0.4 * np.exp(1j * np.pi / 3), 0.3 - 0.2j])
    complex_probe.write_text(json.dumps([[a.real, a.imag] for a in amps / np.linalg.norm(amps)]))
    runs = [
        run_python("-m", "nlametro.cli", *args.format(complex_probe=complex_probe).split(), **extra)
        for extra in ({"OPENBLAS_NUM_THREADS": "1"}, {})
    ]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout == runs[1].stdout


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _readme_examples():
    """``{command: (argv, printed lines)}`` of the README's ``$ nlametro`` examples."""
    examples = {}
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        lines = block.splitlines()
        command = lines.pop(0)
        if not command.startswith("$ nlametro "):
            continue
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0)
        argv = shlex.split(command)[2:]
        examples[argv[0]] = (argv, lines)
    return examples


@pytest.mark.parametrize("command", ["compare", "contributions"])
def test_readme_table_example_prints_what_the_readme_shows(command, capsys):
    argv, printed = _readme_examples()[command]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == printed


def test_readme_simulate_example_prints_what_the_readme_shows(tmp_path, capsys):
    argv, printed = _readme_examples()["simulate"]
    assert argv[argv.index("--seed") + 1] == "9"
    half = 1.0 / math.sqrt(2.0)
    probe = _write_probe(tmp_path, "two_level.json", [half, half])
    argv = [str(probe) if arg == "two_level.json" else arg for arg in argv]
    assert cli.main(argv) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    # the README elides the config and the estimates, and prints ratio_ci on one line
    shown = json.loads(
        "{" + "\n".join(line for line in printed if line.strip() not in ("{", "...", "}")) + "}"
    )
    assert len(shown) == 7
    assert {key: result[key] for key in shown} == shown


def test_readme_python_example_gives_the_values_its_comments_show():
    # each top-level expression of a python block shows its value in a
    # comment, up to an optional ": explanation"
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    checked = 0
    for block in blocks:
        lines, namespace = block.splitlines(), {}
        for node in ast.parse(block).body:
            code = ast.get_source_segment(block, node)
            if not isinstance(node, ast.Expr):
                exec(code, namespace)
                continue
            comment = lines[node.end_lineno - 1].partition("#")[2]
            assert comment, code
            shown = eval(comment.split(":")[0], {"array": np.array})
            value = eval(code, namespace)
            np.testing.assert_allclose(np.asarray(value, dtype=float),
                                       np.asarray(shown, dtype=float), rtol=1e-12, err_msg=code)
            checked += 1
    assert checked == 4


# Payloads for the renderer: every kind of number JSON writes, strings that
# hold the separators it splits on, rows of numbers (a table's "rows", a
# custom probe's [re, im] "amps") and nesting of all of them.
_NUMBER = st.one_of(
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 0, True, False]),
)
_TEXT = st.one_of(st.text(max_size=8), st.sampled_from(
    ["", ", ", "], [", "[", "]", "[[1, 2], [3]]", "a, b], [c", ": ", "{}", "\n", '"', "\\"]))
_ROWS = st.lists(st.lists(_NUMBER, max_size=4), max_size=4)
_AMPS = st.lists(st.lists(st.floats(allow_nan=False), min_size=2, max_size=2), max_size=4)
_LEAF = st.one_of(_NUMBER, _TEXT, st.none(), _ROWS, _AMPS, st.lists(_NUMBER, max_size=5))
_PAYLOAD = st.recursive(
    _LEAF,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_TEXT, inner, max_size=4),
        st.fixed_dictionaries({"probe": st.fixed_dictionaries({"kind": _TEXT, "amps": _AMPS})}),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_PAYLOAD)
def test_json_renderer_equals_the_indented_json_dumps(payload):
    assert cli._indented_json(payload) == json.dumps(payload, sort_keys=True, indent=2)


def test_json_renderer_equals_json_dumps_on_edge_payloads():
    # tuples, empty containers, a row list with an empty row, keys that are
    # not strings, and the separators inside strings
    payloads = [
        (), [], {}, [[]], [[], [1]], [[1, 2], []], ((1.5, -0.0), (5e-324,)), {"a": {}, "b": []},
        {1: [2.0], 3: "x"}, [{"k": [[1, 2]]}, "], [", [", "]], float("nan"), "plain", None,
        {"rows": [[1.0, float("inf")], [-float("inf"), 2]], "amps": [[0.6, 0.0], [0.0, 0.8]]},
    ]
    for payload in payloads:
        assert cli._indented_json(payload) == json.dumps(payload, sort_keys=True, indent=2)


def _dumped(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["compare", "--probe", "squeezed-vacuum", "--nbar", "2", "--p", "5", "--g", "1.01:6:60"],
    ["contributions", "--probe", "coherent", "--nbar", "1", "--p", "3", "--g", "1.05:6:300"],
    ["sweep-nbar", "--probe", "coherent", "--gain", "1.5", "--p", "1", "2", "3",
     "--nbar-grid", "0:6:30"],
])
def test_json_tables_are_byte_identical_to_json_dumps(argv, capsys):
    assert cli.main(argv + ["--format", "json"]) == 0
    text = capsys.readouterr().out
    assert text == _dumped(text)


def test_simulate_json_and_its_error_are_byte_identical_to_json_dumps(tmp_path, capsys):
    # a complex custom probe puts nested [re, im] rows in the config echo
    probe = tmp_path / "probe.json"
    probe.write_text(json.dumps([[0.6, 0.0], [0.0, 0.64], [0.48, -0.0]]))
    out = tmp_path / "sim.json"
    argv = ["simulate", "--probe", "custom", "--custom-file", str(probe), "--p", "1",
            "--g-true", "2", "--detector", "photon-counting", "--shots", "500",
            "--replications", "20", "--seed", "5", "--out", str(out)]
    assert cli.main(argv) == 0
    text = out.read_text()
    assert text == _dumped(text) and len(json.loads(text)["config"]["probe"]["amps"]) == 3
    one = _write_probe(tmp_path, "one.json", [0.0, 1.0])
    assert cli.main(["simulate", "--probe", "custom", "--custom-file", str(one), "--p", "1",
                     "--g-true", "2", "--detector", "photon-counting", "--shots", "100",
                     "--replications", "5", "--seed", "1"]) == 3
    err = capsys.readouterr().err
    assert err == _dumped(err)


def test_a_gain_table_builds_one_operating_point_object(monkeypatch, capsys):
    # the 300-point grid is one batch, validated once, never 300 points
    built = []
    original = NlaParams.__post_init__

    def counted(self):
        built.append(np.ndim(self.g))
        original(self)

    monkeypatch.setattr(NlaParams, "__post_init__", counted)
    for command in ("compare", "contributions"):
        built.clear()
        assert cli.main([command, "--probe", "coherent", "--nbar", "1", "--p", "3",
                         "--g", "1.05:6:300", "--format", "json"]) == 0
        assert built == [1]
    capsys.readouterr()
