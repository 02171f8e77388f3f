import configparser

import pytest

from qdrepeater import cli
from qdrepeater.cavity import CavityParams, resonant_coeffs
from qdrepeater.cli import (COEFFS_HEADER, PURIFY_HEADER, build_parser, main, parse_args, parse_grid,
                            scenario_from_config, value_flags)

IDEAL_SCENARIO = """\
[defaults]
gamma = 0.1

[node A]
ideal = true

[node B]
ideal = true

[segment AB]
left = A
right = B

[chain]
segments = AB
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- basic subcommands -----------------------------------------------------------

def test_coeffs_row(capsys):
    code, out, _ = run(capsys, "coeffs", "--g", "2.4", "--kappa-s", "0.1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(COEFFS_HEADER)
    row = lines[1].split(",")
    assert row[COEFFS_HEADER.index("R_re")] == "0.991397849462"
    assert row[COEFFS_HEADER.index("prob_sum")] == "1"


def test_distribute_metrics_and_simulation(capsys):
    code, out, _ = run(capsys, "distribute", "--g", "1.2", "--kappa-s", "0.2", "--simulate")
    assert code == 0
    assert "0.770058223136" in out
    assert "R↑R↑" in out
    assert "x(e_b)" in out


def test_pcd_metrics(capsys):
    code, out, _ = run(capsys, "pcd", "--g", "1.2", "--kappa-s", "0.2")
    assert code == 0
    assert "eta_p_even" in out
    assert "0.770058223136" in out


def test_purify_table(capsys):
    code, out, _ = run(capsys, "purify", "--mu", "0.7", "--rounds", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(PURIFY_HEADER)
    assert lines[1].startswith("0.7,1,0.844827586207,0.58,")
    assert lines[2].startswith("0.7,2,0.967365028203,")


def test_crosscheck_ok(capsys):
    code, out, _ = run(capsys, "crosscheck", "--g", "1.2", "--kappa-s", "0.2")
    assert code == 0
    assert "max_deviation" in out


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage error" in err


def test_unknown_quantity_is_usage_error(capsys):
    code, _, err = run(capsys, "sweep", "--quantity", "nonsense")
    assert code == 1


# --- grids and sweeps --------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("distribute", "--eta-in", "1.5", "--simulate"),
    ("pcd", "--eta-in", "-0.5", "--simulate"),
    ("sweep", "--quantity", "distribution", "--eta-in", "0"),
    ("sweep", "--quantity", "distribution", "--eta-in", "1.5"),
])
def test_eta_in_outside_unit_interval_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "eta_in" in err


@pytest.mark.parametrize("quantity", ["coeffs", "purify", "chain"])
def test_sweep_eta_in_on_a_quantity_without_it_is_usage_error(tmp_path, capsys, quantity):
    scenario = tmp_path / "chain.ini"
    scenario.write_text(IDEAL_SCENARIO)
    code, out, err = run(capsys, "sweep", "--quantity", quantity, "--scenario", str(scenario),
                         "--eta-in", "-3" if quantity == "purify" else "0.5")
    assert code == 1
    assert out == ""
    assert "--eta-in" in err and "distribution or pcd" in err


def test_sweep_eta_in_from_config_defaults_is_allowed(tmp_path, capsys):
    cfg = tmp_path / "defaults.ini"
    cfg.write_text("[defaults]\neta_in = 0.5\n")
    code, out, _ = run(capsys, "sweep", "--quantity", "purify", "--config", str(cfg),
                       "--mu-grid", "0.7", "--rounds", "1")
    assert code == 0
    assert out.splitlines()[0] == ",".join(PURIFY_HEADER)


@pytest.mark.parametrize("flag,value", [("--g", "2.4"), ("--kappa-s", "0.3"), ("--delta", "1.0")])
def test_sweep_rejects_single_point_cavity_flags(capsys, flag, value):
    # the grids carry g, kappa_s and delta; a single-point flag would be ignored
    code, out, err = run(capsys, "sweep", "--quantity", "coeffs", flag, value)
    assert code == 1
    assert out == ""
    assert flag in err


def test_grid_parsing():
    assert parse_grid("0,0.6,1.2") == [0.0, 0.6, 1.2]
    assert parse_grid("0:1:3") == [0.0, 0.5, 1.0]
    with pytest.raises(Exception):
        parse_grid("0:1")
    for empty in ("", ","):
        with pytest.raises(Exception):
            parse_grid(empty)


def test_sweep_rows_cover_the_grid(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--quantity", "distribution",
                     "--g-grid", "0:3:61", "--kappa-s-grid", "0,0.2",
                     "--output", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 1 + 61 * 2
    # the reference points sit on this grid
    by_key = {}
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        by_key[(row["g"], row["kappa_s"])] = row
    assert float(by_key[("1.2", "0.2")]["f_d_even"]) == pytest.approx(0.991, abs=1e-3)
    assert float(by_key[("1.2", "0.2")]["eta_d"]) == pytest.approx(0.770, abs=1e-3)
    assert float(by_key[("1.2", "0")]["f_d_even"]) == pytest.approx(0.998, abs=1e-3)
    assert float(by_key[("2.4", "0")]["eta_d"]) == pytest.approx(0.983, abs=1e-3)


def test_sweep_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sweep", "--quantity", "coeffs", "--g-grid", "0,0.6,1.2,2.4",
            "--kappa-s-grid", "0.1", "--delta-grid=-5:5:101"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 1 + 4 * 101


def test_unwritable_output_is_runtime_failure(tmp_path, capsys):
    code, _, err = run(capsys, "coeffs", "--g", "1.0",
                       "--output", str(tmp_path / "missing" / "out.csv"))
    assert code == 2
    assert "cannot write" in err


# --- scenarios ----------------------------------------------------------------------

def test_ideal_scenario_report(tmp_path, capsys):
    path = tmp_path / "ideal.ini"
    path.write_text(IDEAL_SCENARIO)
    code, out, _ = run(capsys, "chain", "--scenario", str(path))
    assert code == 0
    assert "fidelity 1.000000, probability 1.000000" in out


def test_practical_scenario_probability(tmp_path, capsys):
    path = tmp_path / "practical.ini"
    path.write_text(IDEAL_SCENARIO.replace(
        "ideal = true", "g = 1.2\nkappa_s = 0.2"))
    code, out, _ = run(capsys, "chain", "--scenario", str(path))
    assert code == 0
    assert "probability 0.770058" in out


def test_node_delta_detunes_that_node():
    cp = configparser.ConfigParser()
    cp.read_string(IDEAL_SCENARIO.replace("ideal = true", "g = 1.2\nkappa_s = 0.2\ndelta = 0.4", 1))
    nodes = scenario_from_config(cp).nodes
    assert nodes["A"] == resonant_coeffs(CavityParams(g=1.2, kappa_s=0.2, gamma=0.1, delta=0.4))
    assert nodes["A"] != resonant_coeffs(CavityParams(g=1.2, kappa_s=0.2, gamma=0.1))


def test_three_node_scenario(tmp_path, capsys):
    text = IDEAL_SCENARIO + """
[node C]
ideal = true

[segment BC]
left = B
right = C
"""
    text = text.replace("segments = AB", "segments = AB BC")
    path = tmp_path / "three.ini"
    path.write_text(text)
    code, out, _ = run(capsys, "chain", "--scenario", str(path))
    assert code == 0
    assert "fidelity 1.000000" in out
    assert "extend" in out


def test_parse_failure_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.ini"
    path.write_text("[node A\ng = 1.2\n")
    code, _, err = run(capsys, "chain", "--scenario", str(path))
    assert code == 1
    assert "line" in err


def test_bad_wiring_rejected(tmp_path, capsys):
    text = IDEAL_SCENARIO + """
[node C]
ideal = true

[node D]
ideal = true

[segment CD]
left = C
right = D
"""
    text = text.replace("segments = AB", "segments = AB CD")
    path = tmp_path / "wiring.ini"
    path.write_text(text)
    code, _, err = run(capsys, "chain", "--scenario", str(path))
    assert code == 1
    assert "wiring" in err


def test_unknown_segment_rejected(tmp_path, capsys):
    path = tmp_path / "missing.ini"
    path.write_text(IDEAL_SCENARIO.replace("segments = AB", "segments = AB XY"))
    code, _, err = run(capsys, "chain", "--scenario", str(path))
    assert code == 1
    assert "XY" in err


# --- golden files: schema and numeric format are frozen contracts ------------------------

GOLDEN_JOBS = {
    "coeffs_grid.csv": ["sweep", "--quantity", "coeffs", "--g-grid", "0,1.2,2.4",
                        "--kappa-s-grid", "0,0.2", "--delta-grid=-1:1:3"],
    "distribution_grid.csv": ["sweep", "--quantity", "distribution",
                              "--g-grid", "0.6,1.2,2.4", "--kappa-s-grid", "0,0.2"],
    "purify_rounds.csv": ["sweep", "--quantity", "purify",
                          "--mu-grid", "0.6,0.7,0.8,0.9", "--rounds", "3"],
}


@pytest.mark.parametrize("name,args", sorted(GOLDEN_JOBS.items()))
def test_golden_files(name, args, tmp_path, capsys):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / name
    produced = tmp_path / name
    assert main(args + ["--output", str(produced)]) == 0
    capsys.readouterr()
    assert produced.read_bytes() == golden.read_bytes(), f"{name} drifted from the golden file"


# --- photon element scripts ------------------------------------------------------------

def test_photon_script_runs_the_decoder_chain(tmp_path, capsys):
    path = tmp_path / "script.ini"
    path.write_text("""\
[photon]
name = a
h = 0.6
v = 0.8

[script]
steps = encode, noise(0.6, 0.8), decode, phase(3.141592653589793), qwp
""")
    code, out, _ = run(capsys, "photon", "--script", str(path))
    assert code == 0
    assert "|R,up,sp>,0.48," in out
    assert "|L,dn,sp>,-0.36," in out
    assert out.strip().splitlines()[-1].startswith("norm2,1")


def test_photon_script_multiline_and_window_steps(tmp_path, capsys):
    path = tmp_path / "script.ini"
    path.write_text("""\
[photon]
name = a
h = 1

[script]
steps =
    encode
    delay(H)
    pc(sl, ls)
""")
    code, out, _ = run(capsys, "photon", "--script", str(path))
    assert code == 0
    assert "|V,up,sl>,1,0" in out


def test_photon_script_rejects_unknown_step(tmp_path, capsys):
    path = tmp_path / "script.ini"
    path.write_text("[script]\nsteps = teleport\n")
    code, _, err = run(capsys, "photon", "--script", str(path))
    assert code == 1
    assert "teleport" in err


#: One script through all ten steps; tests/golden/photon_steps.csv holds its output.
PHOTON_STEPS_SCRIPT = """\
[photon]
name = a
h = 0.6
v = 0.8j

[script]
steps = encode, noise(0.6, 0.8j, 0.8, 0.6), decode, hwp, phase(0.7), pc(sp), delay(V), pbs, bs, qwp
"""


def test_photon_script_through_every_step_matches_golden(tmp_path, capsys):
    import pathlib

    path = tmp_path / "script.ini"
    path.write_text(PHOTON_STEPS_SCRIPT)
    code, out, _ = run(capsys, "photon", "--script", str(path))
    assert code == 0
    assert out == (pathlib.Path(__file__).parent / "golden" / "photon_steps.csv").read_text()


def test_photon_phase_defaults_to_pi(tmp_path, capsys):
    outputs = []
    for steps in ("hwp, phase", "hwp, phase(3.141592653589793)"):
        path = tmp_path / "script.ini"
        path.write_text(f"[script]\nsteps = {steps}\n")
        code, out, _ = run(capsys, "photon", "--script", str(path))
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert "|V,up,s>,-0.707106781187," in outputs[0]


@pytest.mark.parametrize("amplitudes", ["h = nan", "h = inf", "v = 1e400", "h = 1\nv = -infj"])
def test_photon_non_finite_amplitudes_are_usage_errors(tmp_path, capsys, amplitudes):
    path = tmp_path / "script.ini"
    path.write_text(f"[photon]\n{amplitudes}\n\n[script]\nsteps = encode\n")
    code, out, err = run(capsys, "photon", "--script", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: [photon]: ") and "finite" in err


@pytest.mark.parametrize("h,v", [("1e200", "1e200"), ("1e-300", "1e-300j")])
def test_photon_amplitudes_of_any_finite_scale_are_normalized(tmp_path, capsys, h, v):
    path = tmp_path / "script.ini"
    path.write_text(f"[photon]\nh = {h}\nv = {v}\n\n[script]\nsteps = encode\n")
    code, out, _ = run(capsys, "photon", "--script", str(path))
    assert code == 0
    assert "|H,up,s>,0.707106781187,0" in out
    assert out.strip().splitlines()[-1] == "norm2,1,"


# --- remaining sweep quantities ----------------------------------------------------------

def test_purify_sweep(tmp_path, capsys):
    out_file = tmp_path / "purify.csv"
    code, _, _ = run(capsys, "sweep", "--quantity", "purify",
                     "--mu-grid", "0.6,0.7,0.8,0.9", "--rounds", "3",
                     "--output", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 1 + 4 * 3
    assert lines[0] == ",".join(PURIFY_HEADER)
    assert any(line.startswith("0.7,2,0.967365028203") for line in lines)


def test_pcd_sweep_header(tmp_path, capsys):
    out_file = tmp_path / "pcd.csv"
    code, _, _ = run(capsys, "sweep", "--quantity", "pcd",
                     "--g-grid", "1.2", "--kappa-s-grid", "0.2",
                     "--output", str(out_file))
    assert code == 0
    header = out_file.read_text().splitlines()[0]
    assert header.split(",")[5:10] == ["eta_p_even", "eta_p_odd", "eta_p", "f_p_even", "f_p_odd"]


def test_chain_sweep(tmp_path, capsys):
    scenario = tmp_path / "chain.ini"
    scenario.write_text(IDEAL_SCENARIO.replace("ideal = true", "g = 1.2\nkappa_s = 0.2"))
    out_file = tmp_path / "chain.csv"
    code, _, _ = run(capsys, "sweep", "--quantity", "chain",
                     "--scenario", str(scenario), "--g-grid", "1.2,2.4",
                     "--output", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "g,total_probability,final_fidelity"
    assert lines[1].startswith("1.2,0.770058223136")


# --- config defaults ------------------------------------------------------------------

def test_flags_beat_config_defaults(tmp_path, capsys):
    cfg = tmp_path / "defaults.ini"
    cfg.write_text("[defaults]\ng = 0.6\nkappa_s = 0.2\n")
    code, out, _ = run(capsys, "distribute", "--config", str(cfg), "--g", "1.2")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[0] == "1.2"       # flag wins
    assert row[1] == "0.2"       # config fills the rest


def test_config_supplies_all_defaults(tmp_path, capsys):
    cfg = tmp_path / "defaults.ini"
    cfg.write_text("[defaults]\ng = 2.4\nkappa_s = 0\n")
    code, out, _ = run(capsys, "distribute", "--config", str(cfg))
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[7]) == pytest.approx(0.983, abs=1e-3)


def _value_flag_cases():
    for name, command in build_parser().commands.items():
        for dest, action in value_flags(command).items():
            yield pytest.param(name, action, id=f"{name}{action.option_strings[0]}")


#: flags the command line must give; [defaults] cannot stand in for them
REQUIRED = {"sweep": ["--quantity", "coeffs"]}


@pytest.mark.parametrize("command,action", list(_value_flag_cases()))
def test_config_defaults_feed_every_value_flag(tmp_path, command, action):
    cfg = tmp_path / "defaults.ini"
    cfg.write_text(f"[defaults]\n{action.dest} = 4\n")
    argv = [command, *REQUIRED.get(command, []), "--config", str(cfg)]
    convert = action.type or str
    assert getattr(parse_args(argv), action.dest) == convert("4")
    assert getattr(parse_args(argv + [action.option_strings[0], "5"]), action.dest) == convert("5")


def test_bad_config_default_is_usage_error_naming_the_flag(tmp_path, capsys):
    cfg = tmp_path / "defaults.ini"
    cfg.write_text("[defaults]\ng = abc\n")
    code, out, err = run(capsys, "coeffs", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert "--g" in err and "abc" in err


def test_sweep_takes_cavity_defaults_as_one_point_grids(tmp_path, capsys):
    cfg = tmp_path / "defaults.ini"
    cfg.write_text("[defaults]\ng = 2.4\nkappa_s = 0.3\ndelta = 0.5\n")
    code, single, _ = run(capsys, "coeffs", "--config", str(cfg))
    assert code == 0
    code, swept, _ = run(capsys, "sweep", "--quantity", "coeffs", "--config", str(cfg))
    assert code == 0
    assert swept == single
    assert single.splitlines()[1].startswith("2.4,0.3,0.1,0.5,")


def test_sweep_takes_mu_default_as_one_point_grid(tmp_path, capsys):
    cfg = tmp_path / "defaults.ini"
    cfg.write_text("[defaults]\nmu = 0.8\n")
    code, out, _ = run(capsys, "sweep", "--quantity", "purify", "--config", str(cfg))
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 3
    assert all(row.startswith("0.8,") for row in rows)


def test_sweep_eta_in_equal_to_its_default_is_still_rejected(capsys):
    code, out, err = run(capsys, "sweep", "--quantity", "purify", "--eta-in", "1")
    assert code == 1
    assert out == ""
    assert "--eta-in" in err


def test_help_shows_the_defaults(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["coeffs", "--help"])
    assert exit_info.value.code == 0
    help_text = capsys.readouterr().out
    assert "(default: 1.2)" in help_text


# --- exit codes: 1 for bad input, 2 for internal failures --------------------------------

@pytest.mark.parametrize("argv,message", [
    (("coeffs", "--g", "-1"), "g must be nonnegative"),
    (("coeffs", "--gamma", "0"), "gamma must be positive"),
    (("sweep", "--quantity", "coeffs", "--kappa-s-grid=-1"), "kappa_s must be nonnegative"),
    (("purify", "--mu", "1.5"), "mu = 1.5 outside [0, 1]"),
    (("purify", "--rounds", "-1"), "rounds must be nonnegative"),
    (("sweep", "--quantity", "purify", "--mu-grid", "1.5"), "mu = 1.5 outside [0, 1]"),
    (("distribute", "--eta-in", "1.5"), "eta_in = 1.5 outside (0, 1]"),
    # a grid with no values
    (("sweep", "--quantity", "coeffs", "--g-grid", ","), "argument --g-grid: cannot parse grid"),
    (("sweep", "--quantity", "coeffs", "--g-grid="), "argument --g-grid: cannot parse grid"),
    (("sweep", "--quantity", "distribution", "--delta-grid", ",,"), "argument --delta-grid: cannot parse"),
    (("sweep", "--quantity", "purify", "--mu-grid", ","), "argument --mu-grid: cannot parse grid"),
    (("sweep", "--quantity", "chain", "--g-grid", ",", "--scenario", "no-such-file.ini"),
     "argument --g-grid: cannot parse grid"),
    # g ** 2 overflows, or gamma / 2 underflows, so the cavity response is not finite
    (("coeffs", "--g", "1e160"), "cavity response of CavityParams("),
    (("coeffs", "--gamma", "1e-320"), "cavity response of CavityParams("),
    (("coeffs", "--gamma", "5e-324"), "cavity response of CavityParams("),
    (("distribute", "--g", "1e200"), "cavity response of CavityParams("),
    (("pcd", "--g", "1e200", "--simulate"), "cavity response of CavityParams("),
    (("sweep", "--quantity", "coeffs", "--g-grid", "1.2,1e160"), "cavity response of CavityParams("),
])
def test_rejected_values_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"usage error: {message}")


@pytest.mark.parametrize("argv,message", [
    (("coeffs", "--g", "nan"), "g must be finite, got nan"),
    (("coeffs", "--gamma", "inf"), "gamma must be finite, got inf"),
    (("coeffs", "--delta", "nan"), "delta must be finite, got nan"),
    (("distribute", "--g", "nan", "--simulate"), "g must be finite, got nan"),
    (("pcd", "--kappa-s", "nan", "--simulate"), "kappa_s must be finite, got nan"),
    (("crosscheck", "--delta=-inf"), "delta must be finite, got -inf"),
    (("sweep", "--quantity", "coeffs", "--g-grid", "1.2,nan"), "g must be finite, got nan"),
    (("sweep", "--quantity", "pcd", "--delta-grid", "0,nan"), "delta must be finite, got nan"),
])
def test_non_finite_cavity_values_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"usage error: {message}")


def test_scenario_node_beyond_float_range_is_usage_error(tmp_path, capsys):
    path = tmp_path / "huge.ini"
    path.write_text(IDEAL_SCENARIO.replace("[node B]\nideal = true", "[node B]\ng = 1e200"))
    code, out, err = run(capsys, "chain", "--scenario", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: [node B]: cavity response of CavityParams(g=1e+200")


@pytest.mark.parametrize("entry", ["gamma = abc", "kappa_s = abc", "delta = abc",
                                   "purify_rounds = abc", "eta_in = abc"])
def test_malformed_scenario_default_is_rejected_with_ideal_nodes(tmp_path, capsys, entry):
    path = tmp_path / "defaults.ini"
    path.write_text(IDEAL_SCENARIO.replace("gamma = 0.1", entry))
    code, out, err = run(capsys, "chain", "--scenario", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ") and "'abc'" in err


def test_scenario_node_takes_file_defaults_then_library_defaults():
    cp = configparser.ConfigParser()
    cp.read_string(IDEAL_SCENARIO.replace("gamma = 0.1", "kappa_s = 0.2")
                   .replace("ideal = true", "g = 1.2", 1)
                   .replace("[node B]\nideal = true", "[node B]\ng = 2.4\nkappa_s = 0.1\ngamma = 0.3"))
    scenario = scenario_from_config(cp)
    assert scenario.nodes["A"] == resonant_coeffs(CavityParams(g=1.2, kappa_s=0.2))
    assert scenario.nodes["B"] == resonant_coeffs(CavityParams(g=2.4, kappa_s=0.1, gamma=0.3))
    assert (scenario.purify_rounds, scenario.eta_in) == (0, 1.0)


def test_config_values_are_read_literally(tmp_path, capsys):
    cfg = tmp_path / "defaults.ini"
    cfg.write_text(f"[defaults]\noutput = {tmp_path / '100%.csv'}\n")
    code, out, _ = run(capsys, "coeffs", "--config", str(cfg))
    assert code == 0
    assert out == ""
    assert (tmp_path / "100%.csv").read_text().startswith(",".join(COEFFS_HEADER))


def test_nan_fiber_rotation_in_a_scenario_is_usage_error(tmp_path, capsys):
    path = tmp_path / "nan.ini"
    path.write_text(IDEAL_SCENARIO.replace("right = B\n", "right = B\nnoise_delta = nan\nnoise_eta = 0\n"))
    code, out, err = run(capsys, "chain", "--scenario", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: segment AB: ") and "rotation is not normalized" in err


def test_percent_in_a_scenario_value_is_usage_error(tmp_path, capsys):
    path = tmp_path / "percent.ini"
    path.write_text(IDEAL_SCENARIO.replace("[node B]\nideal = true", "[node B]\ng = 5%"))
    code, out, err = run(capsys, "chain", "--scenario", str(path))
    assert code == 1
    assert out == ""
    assert "5%" in err


@pytest.mark.parametrize("steps,message", [
    ("encode, decode, decode", "already expanded or decoded"),
    ("noise(1, 1)", "rotation is not normalized"),
    ("phase(abc)", "could not convert string to float"),
    ("encode, noise(nan, 0), decode", "rotation is not normalized"),
    ("phase(nan)", "deviates from unitarity"),
    ("encode(7)", "script step 'encode' takes 0"),
    ("qwp(x)", "script step 'qwp' takes 0"),
    ("hwp(1), bs(2), pbs(3)", "script step 'hwp' takes 0"),
    ("bs(2)", "script step 'bs' takes 0"),
    ("pbs(3)", "script step 'pbs' takes 0"),
    ("decode(0)", "script step 'decode' takes 0"),
    ("phase(1, 2)", "script step 'phase' takes 0 or 1"),
    ("pc()", "script step 'pc' takes at least 1"),
    ("delay()", "script step 'delay' takes 1"),
    ("delay(H,V)", "script step 'delay' takes 1"),
    ("noise(1)", "script step 'noise' takes 2 or 4"),
    ("noise(1, 0, 1)", "script step 'noise' takes 2 or 4"),
])
def test_photon_script_input_errors_are_usage_errors(tmp_path, capsys, steps, message):
    path = tmp_path / "script.ini"
    path.write_text(f"[script]\nsteps = {steps}\n")
    code, _, err = run(capsys, "photon", "--script", str(path))
    assert code == 1
    assert err.startswith("usage error: ") and message in err


def test_photon_script_without_steps_is_usage_error(tmp_path, capsys):
    path = tmp_path / "script.ini"
    path.write_text("[script]\nsteep = encode\n")
    code, _, err = run(capsys, "photon", "--script", str(path))
    assert code == 1
    assert "steps" in err


def test_value_error_inside_a_command_is_runtime_failure(monkeypatch, capsys):
    def broken(coeffs):
        raise ValueError("internal inconsistency")

    monkeypatch.setattr(cli, "crosscheck", broken)
    code, _, err = run(capsys, "crosscheck")
    assert code == 2
    assert err == "runtime failure: internal inconsistency\n"


def test_chain_sweep_reads_the_scenario_once(tmp_path, monkeypatch, capsys):
    scenario = tmp_path / "chain.ini"
    scenario.write_text(IDEAL_SCENARIO.replace("ideal = true", "g = 1.2\nkappa_s = 0.2"))
    reads = []
    read_config = cli._read_config
    monkeypatch.setattr(cli, "_read_config", lambda path: reads.append(path) or read_config(path))
    code, out, _ = run(capsys, "sweep", "--quantity", "chain", "--scenario", str(scenario),
                       "--g-grid", "1.2,1.8,2.4")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 3
    assert reads == [str(scenario)]
