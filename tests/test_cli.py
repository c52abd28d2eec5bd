import json
import math
import pathlib
import re
import shlex
import warnings

import numpy as np
import pytest

from nlametro import cli
from nlametro.fisher import qfi_effective, qfi_effective_closed_form
from nlametro.instrument import NlaParams
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
    assert q_unc == pytest.approx(0.0, abs=1e-9)


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


def test_probe_flag_validation(capsys):
    assert cli.main(["compare", "--probe", "custom", "--p", "1", "--g", "2:2:1"]) == 2
    assert "custom-file" in capsys.readouterr().err
    assert cli.main(["compare", "--probe", "coherent", "--p", "1", "--g", "2:2:1"]) == 2
    assert "--nbar or --amplitude" in capsys.readouterr().err


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
