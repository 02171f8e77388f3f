import argparse
import configparser
import pathlib

import pytest

from qdrepeater import cli
from qdrepeater.cavity import IDEAL, CavityParams, resonant_coeffs
from qdrepeater.cli import build_parser, main, parse_args, parse_grid, scenario_from_config, value_flags
from qdrepeater.protocols import ChainScenario, SegmentSpec, run_chain
from qdrepeater.timebin import NoiseChannel

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

#: the CSV headers of coeffs and purify, as they are documented
COEFFS_HEADER = ["g", "kappa_s", "gamma", "delta",
                 "R_re", "R_im", "T_re", "T_im", "S_re", "S_im", "N_re", "N_im", "prob_sum",
                 "r_re", "r_im", "t_re", "t_im", "r0_re", "r0_im", "t0_re", "t0_im"]
PURIFY_HEADER = ["mu0", "round", "mu", "success_probability", "cumulative_success"]


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


def typed(flag, value, joined):
    """A flag and its value as typed: two tokens, or one token ``flag=value`` when ``joined``."""
    return [f"{flag}={value}"] if joined else [flag, value]


def both_forms(cases):
    """Each case once per form of a typed flag; the two-token form keeps the case's plain id."""
    return [pytest.param(*case, joined, id="-".join(case) + "=" * joined)
            for case in cases for joined in (False, True)]


@pytest.mark.parametrize("quantity,joined", both_forms([("coeffs",), ("purify",), ("chain",)]))
def test_sweep_eta_in_on_a_quantity_without_it_is_usage_error(tmp_path, capsys, quantity, joined):
    scenario = tmp_path / "chain.ini"
    scenario.write_text(IDEAL_SCENARIO)
    code, out, err = run(capsys, "sweep", "--quantity", quantity, *typed("--scenario", str(scenario), joined),
                         *typed("--eta-in", "-3" if quantity == "purify" else "0.5", joined))
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


#: a value for every sweep flag but --quantity, --config and --output
SWEEP_VALUES = {"--gamma": "0.5", "--g-grid": "1.2,2.4", "--kappa-s-grid": "0.1", "--delta-grid": "0.2",
                "--mu-grid": "0.8", "--rounds": "1", "--eta-in": "0.5", "--scenario": "chain.ini"}
#: sweep --quantity -> the flags it reads
SWEEP_READS = {
    "coeffs": ("--gamma", "--g-grid", "--kappa-s-grid", "--delta-grid"),
    "distribution": ("--gamma", "--g-grid", "--kappa-s-grid", "--delta-grid", "--eta-in"),
    "pcd": ("--gamma", "--g-grid", "--kappa-s-grid", "--delta-grid", "--eta-in"),
    "purify": ("--mu-grid", "--rounds"),
    "chain": ("--g-grid", "--scenario"),
}


@pytest.mark.parametrize("quantity,flag,joined", both_forms([(q, flag) for q, read in SWEEP_READS.items()
                                                               for flag in SWEEP_VALUES if flag not in read]))
def test_sweep_flag_the_quantity_does_not_read_is_usage_error(tmp_path, monkeypatch, capsys, quantity, flag,
                                                              joined):
    monkeypatch.chdir(tmp_path)
    pathlib.Path("chain.ini").write_text(IDEAL_SCENARIO)
    argv = ["sweep", "--quantity", quantity]
    for read in SWEEP_READS[quantity]:
        argv += typed(read, SWEEP_VALUES[read], joined)
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, *typed(flag, SWEEP_VALUES[flag], joined))
    assert code == 1
    assert out == ""
    assert err.startswith(f"usage error: {flag} applies only to --quantity ")
    assert err.count(flag) == 1


@pytest.mark.parametrize("quantity", ["purify", "chain"])    # between them they leave every flag unread
def test_sweep_config_defaults_for_flags_the_quantity_does_not_read_are_allowed(tmp_path, monkeypatch,
                                                                                 capsys, quantity):
    monkeypatch.chdir(tmp_path)
    pathlib.Path("chain.ini").write_text(IDEAL_SCENARIO)
    unread = [f"{dest} = {SWEEP_VALUES[a.option_strings[0]]}\n"
              for dest, a in value_flags(build_parser().commands["sweep"]).items()
              if a.option_strings[0] in SWEEP_VALUES and a.option_strings[0] not in SWEEP_READS[quantity]]
    pathlib.Path("defaults.ini").write_text("[defaults]\n" + "".join(unread))
    argv = ["sweep", "--quantity", quantity] + (["--scenario", "chain.ini"] if quantity == "chain" else [])
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--config", "defaults.ini") == (0, plain, "")


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
    # a byte-order mark, as Windows Notepad writes it, reads the same
    path.write_text(IDEAL_SCENARIO, encoding="utf-8-sig")
    assert run(capsys, "chain", "--scenario", str(path)) == (0, out, "")


def test_scenario_at_small_eta_in_keeps_every_branch(tmp_path, capsys):
    path = tmp_path / "faint.ini"
    path.write_text(IDEAL_SCENARIO.replace("segments = AB", "segments = AB\npurify_rounds = 1\neta_in = 1e-13"))
    code, out, _ = run(capsys, "chain", "--scenario", str(path))
    assert code == 0
    assert "\ntotal,e0_A-e0_B,1e-52,1\n" in out
    assert out.endswith("fidelity 1.000000, probability 0.000000, log10 probability -52\n")


@pytest.mark.parametrize("eta_in,log10_total", [("1e-160", "-640"), ("1e-200", "-800")])
def test_scenario_at_tiny_eta_in_reports_zero_stages_and_the_log(tmp_path, capsys, eta_in, log10_total):
    # each stage probability, eta_in ** 2 at ideal nodes, lies below the
    # smallest normal float and reads 0; the log still counts all four passes
    path = tmp_path / "faint.ini"
    path.write_text(IDEAL_SCENARIO.replace("segments = AB", f"segments = AB\npurify_rounds = 1\neta_in = {eta_in}"))
    code, out, _ = run(capsys, "chain", "--scenario", str(path))
    assert code == 0
    assert out == ("stage,label,probability,fidelity\n"
                   "distribute,AB,0,1\npurify,AB round 1,0,1\ntotal,e0_A-e0_B,0,1\n"
                   f"fidelity 1.000000, probability 0.000000, log10 probability {log10_total}\n")


@pytest.mark.parametrize("old,new,section,key", [
    ("[node A]\nideal = true", "[node A]\ng = 1.2\nkapa_s = 0.9", "node A", "kapa_s"),
    ("[node A]\nideal = true", "[node A]\nideal = true\ng = 1.2", "node A", "g"),
    ("right = B\n", "right = B\nnoise_delta = 1\nnoise_eta = 0\nnoise_etta = 0\n", "segment AB", "noise_etta"),
    ("right = B\n", "right = B\nmiddle_noise_delta = 1\n", "segment AB", "middle_noise_delta"),
    ("segments = AB", "segments = AB\npurify_round = 3", "chain", "purify_round"),
    ("gamma = 0.1", "gama = 0.5", "defaults", "gama"),
])
def test_scenario_key_the_reader_does_not_use_is_usage_error(tmp_path, capsys, old, new, section, key):
    path = tmp_path / "typo.ini"
    path.write_text(IDEAL_SCENARIO.replace(old, new))
    code, out, err = run(capsys, "chain", "--scenario", str(path))
    assert code == 1
    assert out == ""
    assert err == f"usage error: [{section}]: unknown key {key!r}\n"


#: one practical and one ideal node, with [defaults] that change the result
DEFAULTS_SCENARIO = IDEAL_SCENARIO.replace("[node A]\nideal = true", "[node A]\ng = 1.2").replace(
    "gamma = 0.1", "gamma = 0.5\neta_in = 0.5")


@pytest.mark.parametrize("old,new,section", [
    ("[defaults]", "[default]", "default"),
    ("[chain]", "[segmnet AB]\nleft = A\nright = B\n\n[chain]", "segmnet AB"),
    ("[chain]", "[nodes C]\nideal = true\n\n[chain]", "nodes C"),
    ("[defaults]", "[DEFAULT]\ngamma = 0.5\n\n[defaults]", "DEFAULT"),
])
def test_scenario_section_the_reader_does_not_use_is_usage_error(tmp_path, capsys, old, new, section):
    path = tmp_path / "typo.ini"
    path.write_text(DEFAULTS_SCENARIO.replace(old, new))
    code, out, err = run(capsys, "chain", "--scenario", str(path))
    assert code == 1
    assert out == ""
    assert err == (f"usage error: unknown section [{section}]; a scenario file holds "
                   "[defaults], [chain], [node NAME] and [segment NAME]\n")


@pytest.mark.parametrize("keys", ["noise_delta_l = 0.6\nnoise_eta_l = 0.8",
                                  "right_noise_delta_l = 0.6\nright_noise_eta_l = 0.8"])
def test_scenario_late_bin_noise_without_the_early_bin_is_usage_error(tmp_path, capsys, keys):
    path = tmp_path / "late.ini"
    path.write_text(IDEAL_SCENARIO.replace("right = B\n", f"right = B\n{keys}\n"))
    code, out, err = run(capsys, "chain", "--scenario", str(path))
    assert code == 1
    assert out == ""
    assert err == "usage error: segment AB: noise needs both noise_delta and noise_eta\n"


def test_scenario_sided_and_late_bin_noise_keys_build_the_same_chain():
    cp = configparser.ConfigParser()
    cp.read_string(IDEAL_SCENARIO.replace("ideal = true", "g = 1.2\nkappa_s = 0.2", 1).replace(
        "right = B\n",
        "right = B\nnoise_delta = 0.6\nnoise_eta = 0.8\nnoise_delta_l = 0.8\nnoise_eta_l = 0.6j\n"
        "right_noise_delta = 0\nright_noise_eta = 1\n"
        "right_noise_delta_l = 0.28+0.96j\nright_noise_eta_l = 0\n").replace(
        "segments = AB", "segments = AB\npurify_rounds = 1\neta_in = 0.9"))
    expected = ChainScenario(
        nodes={"A": resonant_coeffs(CavityParams(g=1.2, kappa_s=0.2, gamma=0.1)), "B": IDEAL},
        segments=[SegmentSpec("AB", "A", "B", NoiseChannel(0.6, 0.8, 0.8, 0.6j),
                              NoiseChannel(0, 1, 0.28 + 0.96j, 0))],
        purify_rounds=1, eta_in=0.9)
    scenario = scenario_from_config(cp)
    assert scenario == expected
    report, want = run_chain(scenario), run_chain(expected)
    assert report.stages == want.stages
    assert report.final_fidelity < 1.0 - 1e-3


def test_simulated_total_below_the_normal_range_prints_zero(capsys):
    code, out, _ = run(capsys, "distribute", "--simulate", "--eta-in", "1e-160")
    assert code == 0
    assert out.endswith("\nheralded total  0   discarded 1\n")
    # the closed-form row follows the same rule as the simulated total
    header, row = (line.split(",") for line in out.splitlines()[:2])
    assert row[header.index("eta_in_adjusted")] == "0"


@pytest.mark.parametrize("command,prefix", [("distribute", "d"), ("pcd", "p")])
@pytest.mark.parametrize("ks,f_even", [pytest.param("0.1", "0", id="odd-dead"), pytest.param("2", "-", id="both-dead")])
def test_a_branch_that_heralds_nothing_prints_no_fidelity_in_either_table(capsys, command, prefix, ks, f_even):
    # at g = 0 the odd branch heralds nothing, and at kappa_s = 2 the even one neither
    code, out, _ = run(capsys, command, "--simulate", "--g", "0", "--kappa-s", ks)
    assert code == 0
    lines = out.splitlines()
    header, row = (line.split(",") for line in lines[:2])
    assert [row[header.index(f"f_{prefix}_{parity}")] for parity in ("even", "odd")] == [f_even, "-"]
    assert {line.split()[2] for line in lines[3:-1]} == {f_even, "-"}    # the simulated branches
    quantity = "pcd" if prefix == "p" else "distribution"
    code, out, _ = run(capsys, "sweep", "--quantity", quantity, "--g-grid", "0", "--kappa-s-grid", ks)
    assert (code, out.splitlines()[1]) == (0, lines[1])


@pytest.mark.parametrize("eta_in", [1.0, 0.9])
def test_pcd_simulation_total_is_the_closed_form_efficiency(capsys, eta_in):
    code, out, _ = run(capsys, "pcd", "--simulate", "--g", "1.7", "--kappa-s", "0.15", "--eta-in", str(eta_in))
    assert code == 0
    header, row = (line.split(",") for line in out.splitlines()[:2])
    heralded = [line for line in out.splitlines() if line.startswith("heralded total")]
    assert len(heralded) == 1
    eta_p = float(row[header.index("eta_p")])
    assert float(heralded[0].split()[2]) == pytest.approx(eta_in * eta_p, abs=1e-10)
    assert float(row[header.index("eta_in_adjusted")]) == pytest.approx(eta_in * eta_p, abs=1e-10)


@pytest.mark.parametrize("argv,header", [
    (["purify", "--rounds", "0"], PURIFY_HEADER),
    (["purify", "--rounds", "0", "--simulate"], PURIFY_HEADER + ["mu_simulated"]),
    (["sweep", "--quantity", "purify", "--rounds", "0"], PURIFY_HEADER),
])
def test_purify_with_no_rounds_prints_its_header_alone(capsys, argv, header):
    assert run(capsys, *argv) == (0, ",".join(header) + "\n", "")


def test_purify_simulation_follows_the_recursion_on_every_round(capsys):
    code, out, _ = run(capsys, "purify", "--simulate", "--mu", "0.65", "--rounds", "4")
    assert code == 0
    header, *rows = (line.split(",") for line in out.strip().splitlines())
    assert header == PURIFY_HEADER + ["mu_simulated"]
    assert len(rows) == 4
    for row in rows:
        assert float(row[-1]) == pytest.approx(float(row[header.index("mu")]), abs=1e-10)


#: starting weights log-spaced from 1e-10 to 0.99, the script's grid and the small weight pinned below
PURIFY_MU0 = [f"{1e-10 * (0.99 / 1e-10) ** (k / 11):.12g}" for k in range(12)] + [
    "0.6", "0.7", "0.8", "0.9", "0.01175"]


@pytest.mark.parametrize("mu0", PURIFY_MU0)
def test_purify_simulation_keeps_the_recursion_to_relative_precision(capsys, mu0):
    # absolute bounds cannot see a small weight off by orders of magnitude; every
    # simulated round's weight is a sum of nonnegative terms, so it is held relatively
    code, out, _ = run(capsys, "purify", "--simulate", "--mu", mu0, "--rounds", "5")
    assert code == 0
    header, *rows = (line.split(",") for line in out.strip().splitlines())
    assert len(rows) == 5
    for row in rows:
        mu, simulated = float(row[header.index("mu")]), float(row[header.index("mu_simulated")])
        assert abs(simulated - mu) <= 1e-10 * abs(mu), row


#: every simulated round's mu is the Phi- weight of one Bell-basis step, a
#: sum of nonnegative terms, so it keeps the recursion's digits at every
#: round; <Phi-|rho|Phi-> in the computational basis prints round 2 as
#: 1.99840802908e-08
PURIFY_SMALL_MU = """\
mu0,round,mu,success_probability,cumulative_success,mu_simulated
0.01175,1,0.000141345080481,0.976776125,0.976776125,0.000141345080481
0.01175,2,1.99840802805e-08,0.999717349796,0.976500039029,1.99840802805e-08
0.01175,3,3.99363480621e-16,0.999999960032,0.9765,3.99363480621e-16
0.01175,4,1.59491189654e-31,1,0.9765,1.59491189654e-31
0.01175,5,2.54374395771e-62,1,0.9765,2.54374395771e-62
"""


def test_purify_simulation_at_a_small_mu_prints_its_pinned_digits(capsys):
    assert run(capsys, "purify", "--simulate", "--mu", "0.01175", "--rounds", "5") == (0, PURIFY_SMALL_MU, "")


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


THREE_NODE_SCENARIO = IDEAL_SCENARIO.replace("segments = AB", "segments = AB BC") + """
[node C]
ideal = true

[segment BC]
left = B
right = C
"""


def test_three_node_scenario(tmp_path, capsys):
    path = tmp_path / "three.ini"
    path.write_text(THREE_NODE_SCENARIO)
    code, out, _ = run(capsys, "chain", "--scenario", str(path))
    assert code == 0
    assert "fidelity 1.000000" in out
    assert "extend" in out


#: a node whose parity checks lose every probe (t = t0 = -1/2)
DEAD_NODE = "g = 0\nkappa_s = 2"


@pytest.mark.parametrize("text,message", [
    (THREE_NODE_SCENARIO.replace("[node B]\nideal = true", "[node B]\n" + DEAD_NODE),
     "extend at B: extension heralded no surviving branches"),
    (IDEAL_SCENARIO.replace("[node B]\nideal = true", "[node B]\n" + DEAD_NODE)
     .replace("segments = AB", "segments = AB\npurify_rounds = 1"),
     "purify AB round 1: purification heralded no surviving branches"),
    (IDEAL_SCENARIO.replace("ideal = true", DEAD_NODE), "distribute AB: no surviving branches"),
], ids=["extension", "purification", "distribution"])
@pytest.mark.parametrize("command", [["chain"], ["sweep", "--quantity", "chain", "--g-grid", "0"]],
                         ids=["chain", "sweep"])
def test_a_chain_stage_that_heralds_nothing_is_usage_error(tmp_path, capsys, text, message, command):
    path = tmp_path / "dead.ini"
    path.write_text(text)
    code, out, err = run(capsys, *command, "--scenario", str(path))
    assert (code, out, err) == (1, "", f"usage error: {message}\n")


def test_value_error_inside_run_chain_is_runtime_failure(tmp_path, monkeypatch, capsys):
    def broken(scenario):
        raise ValueError("largest singular value 1.5 exceeds 1; map would grow norm")

    path = tmp_path / "ideal.ini"
    path.write_text(IDEAL_SCENARIO)
    monkeypatch.setattr(cli, "run_chain", broken)
    code, _, err = run(capsys, "chain", "--scenario", str(path))
    assert code == 2
    assert err == "runtime failure: largest singular value 1.5 exceeds 1; map would grow norm\n"


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


#: stdout pinned in full; of crosscheck, the quantity, simulated and analytic columns
STDOUT_GOLDEN = {
    "distribute_simulate.txt": ["distribute", "--simulate", "--g", "1.2", "--kappa-s", "0.2",
                                "--eta-in", "0.9"],
    "pcd_simulate.txt": ["pcd", "--simulate", "--g", "1.7", "--kappa-s", "0.15", "--eta-in", "0.8"],
    "crosscheck_rows.csv": ["crosscheck", "--g", "1.2", "--kappa-s", "0.2"],
}


@pytest.mark.parametrize("name,args", sorted(STDOUT_GOLDEN.items()))
def test_stdout_matches_golden(name, args, capsys):
    code, out, _ = run(capsys, *args)
    assert code == 0
    if name == "crosscheck_rows.csv":
        # quantity, simulated, analytic: the deviation column holds rounding noise
        out = "".join(",".join(line.split(",")[:3]) + "\n" for line in out.splitlines())
    assert out == (pathlib.Path(__file__).parent / "golden" / name).read_text(encoding="utf-8")


#: four segments over nodes I/P/Q/I/P, two rounds, eta_in 0.9, an asymmetric
#: rotation on every fiber end; the golden file holds the two stdouts in turn
CHAIN_4X2 = pathlib.Path(__file__).parent / "chain_4x2.ini"


def test_chain_and_chain_sweep_match_golden(capsys):
    outs = []
    for argv in (["chain"], ["sweep", "--quantity", "chain", "--g-grid", "1.2,2.4"]):
        code, out, _ = run(capsys, *argv, "--scenario", str(CHAIN_4X2))
        assert code == 0
        outs.append(out)
    assert "".join(outs) == (pathlib.Path(__file__).parent / "golden" / "chain_4x2.txt").read_text(
        encoding="utf-8")


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
    # a byte-order mark, as Windows Notepad writes it, reads the same
    path.write_text(path.read_text(), encoding="utf-8-sig")
    assert run(capsys, "photon", "--script", str(path)) == (0, out, "")


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


@pytest.mark.parametrize("old,new,message", [
    ("v = 0.8", "vv = 0.8", "[photon]: unknown key 'vv'"),
    ("[photon]", "[photons]",
     "unknown section [photons]; a script file holds [photon], [script] and [defaults]"),
    ("steps = hwp", "steps = hwp\nstep = qwp", "[script]: unknown key 'step'"),
    ("[photon]", "[defaults]\noutptu = x.csv\n\n[photon]", "[defaults]: unknown key 'outptu'"),
])
def test_photon_script_section_or_key_the_reader_does_not_use_is_usage_error(tmp_path, capsys,
                                                                              old, new, message):
    path = tmp_path / "script.ini"
    path.write_text("[photon]\nh = 0.6\nv = 0.8\n\n[script]\nsteps = hwp\n".replace(old, new))
    code, out, err = run(capsys, "photon", "--script", str(path))
    assert code == 1
    assert out == ""
    assert err == f"usage error: {message}\n"


def test_photon_script_keeps_unchecked_config_defaults_and_reads_its_amplitudes(tmp_path, capsys):
    path = tmp_path / "script.ini"
    path.write_text("[defaults]\ngamma = 0.5\n\n[photon]\nh = 0.6\nv = 0.8\n\n[script]\nsteps = hwp\n")
    code, out, _ = run(capsys, "photon", "--script", str(path))
    assert code == 0
    assert "|H,up,s>,0.989949493661,0\n|V,up,s>,-0.141421356237,0\n" in out


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
    assert lines[0] == "g,total_probability,final_fidelity,log10_total_probability"
    assert lines[1].startswith("1.2,0.770058223136")


def _ideal_chain_file(segments):
    nodes = "".join(f"[node n{i}]\nideal = true\n\n" for i in range(segments + 1))
    links = "".join(f"[segment s{i}]\nleft = n{i}\nright = n{i + 1}\n\n" for i in range(segments))
    order = " ".join(f"s{i}" for i in range(segments))
    return f"{nodes}{links}[chain]\nsegments = {order}\n"


def test_chain_sweep_carries_the_log_of_a_total_below_the_normal_range(tmp_path, capsys):
    # 3 * 11 - 1 photon passes at eta_in = 1e-10: the total 1e-320 is reported as 0
    scenario = tmp_path / "long.ini"
    scenario.write_text(_ideal_chain_file(11) + "eta_in = 1e-10\n")
    code, out, _ = run(capsys, "sweep", "--quantity", "chain", "--scenario", str(scenario))
    assert code == 0
    assert out == "g,total_probability,final_fidelity,log10_total_probability\n1.2,0,1,-320\n"


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


#: every section a config file may hold: it may also be the run's scenario or script file
CONFIG_LAYOUT = ("a config file holds [defaults], [chain], [node NAME], [segment NAME], "
                 "[photon] and [script]")


@pytest.mark.parametrize("text,message", [
    ("[default]\ng = 2.4\n", f"unknown section [default]; {CONFIG_LAYOUT}"),
    ("[DEFAULT]\ng = 2.4\n", f"unknown section [DEFAULT]; {CONFIG_LAYOUT}"),
    ("[defaults]\ng = 2.4\n\n[nodes A]\nideal = true\n", f"unknown section [nodes A]; {CONFIG_LAYOUT}"),
    ("[defaults]\ngg = 2.4\n", "[defaults]: unknown key 'gg'"),
    ("[defaults]\npurify_round = 1\n", "[defaults]: unknown key 'purify_round'"),
    ("[defaults]\ng = 2.4\n\n[node A]\nkapa_s = 1\n", "[node A]: unknown key 'kapa_s'"),
    ("[defaults]\ng = 2.4\n\n[script]\nstep = qwp\n", "[script]: unknown key 'step'"),
], ids=["default", "DEFAULT", "nodes", "gg", "purify_round", "node-key", "script-key"])
def test_config_section_or_defaults_key_nothing_reads_is_usage_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "defaults.ini"
    cfg.write_text(text)
    code, out, err = run(capsys, "coeffs", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err == f"usage error: {message}\n"


def test_config_may_be_the_scenario_file(tmp_path, capsys):
    # scenario sections and the scenario-only purify_rounds default are allowed;
    # eta_in and gamma are value flags of other subcommands
    path = tmp_path / "chain.ini"
    path.write_text(DEFAULTS_SCENARIO.replace("eta_in = 0.5", "eta_in = 0.5\npurify_rounds = 1"))
    code, out, _ = run(capsys, "chain", "--scenario", str(path), "--config", str(path))
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:-1]] == [
        "distribute", "purify", "total"]


def test_config_may_be_the_script_file(tmp_path, capsys):
    path = tmp_path / "script.ini"
    path.write_text("[defaults]\ngamma = 0.5\n\n[photon]\nh = 0.6\nv = 0.8\n\n[script]\nsteps = hwp\n")
    code, out, _ = run(capsys, "photon", "--script", str(path), "--config", str(path))
    assert code == 0
    assert "|H,up,s>,0.989949493661,0\n" in out


def test_sweep_eta_in_equal_to_its_default_is_still_rejected(capsys):
    for joined in (False, True):
        code, out, err = run(capsys, "sweep", "--quantity", "purify", *typed("--eta-in", "1", joined))
        assert code == 1
        assert out == ""
        assert "--eta-in" in err


def test_help_shows_the_defaults(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["coeffs", "--help"])
    assert exit_info.value.code == 0
    help_text = capsys.readouterr().out
    assert "(default: 1.2)" in help_text


# --- one parser per process: no call reaches the next -------------------------------------

def test_config_defaults_do_not_reach_the_next_call(tmp_path, capsys):
    cfg = tmp_path / "defaults.ini"
    cfg.write_text("[defaults]\ng = 2.0\n")
    code, out, _ = run(capsys, "coeffs", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[1].split(",")[0] == "2"
    code, out, _ = run(capsys, "coeffs")
    assert code == 0
    assert out.splitlines()[1].split(",")[0] == "1.2"


def test_typed_flags_do_not_reach_the_next_call(capsys):
    assert run(capsys, "sweep", "--quantity", "coeffs", "--gamma", "0.2")[0] == 0
    code, out, err = run(capsys, "sweep", "--quantity", "purify")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == ",".join(PURIFY_HEADER)


@pytest.fixture
def added_arguments(monkeypatch):
    """The number of argparse arguments added so far, as a one-element list."""
    count = [0]
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        count[0] += 1
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    return count


def test_plain_calls_after_the_first_build_no_parser(capsys, added_arguments):
    run(capsys, "coeffs")
    before = added_arguments[0]
    for argv in (("coeffs", "--g", "2"), ("crosscheck",), ("purify", "--simulate", "--rounds", "1"),
                 ("crosscheck", "--g", "abc"), ("sweep", "--quantity", "coeffs", "--gamma", "0.2")):
        run(capsys, *argv)
    assert added_arguments[0] == before


def test_config_call_builds_one_parser(tmp_path, capsys, added_arguments):
    run(capsys, "coeffs")
    start = added_arguments[0]
    build_parser()
    one_build = added_arguments[0] - start
    assert one_build > 0
    cfg = tmp_path / "defaults.ini"
    cfg.write_text("[defaults]\ng = 2.0\n")
    start = added_arguments[0]
    assert run(capsys, "coeffs", "--config", str(cfg))[0] == 0
    assert added_arguments[0] - start == one_build


def test_build_parser_returns_a_fresh_parser(capsys):
    first, second = build_parser(), build_parser()
    assert first is not second
    plain = run(capsys, "coeffs")
    first.commands["coeffs"].set_defaults(g="2.0")
    assert run(capsys, "coeffs") == plain
    assert second.parse_args(["coeffs"]).g == 1.2


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
    # a grid of zero points
    (("sweep", "--quantity", "coeffs", "--g-grid", "0:1:0"), "argument --g-grid: cannot parse grid '0:1:0'"),
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


def _segment(extra):
    return IDEAL_SCENARIO.replace("right = B\n", f"right = B\n{extra}\n")


SCENARIO = ["chain", "--scenario", "FILE"]
SCRIPT = ["photon", "--script", "FILE"]

#: (argv, contents of FILE or None when it is not written, message fragment)
USAGE_ERRORS = {
    "scenario-complex": (SCENARIO, _segment("noise_delta = 1\nnoise_eta = abc"),
                         "cannot parse complex value 'abc'"),
    "scenario-late-bin": (SCENARIO, _segment("noise_delta = 0.6\nnoise_eta = 0.8\nnoise_delta_l = 0.6"),
                          "asymmetric noise needs both noise_delta_l and noise_eta_l"),
    "scenario-no-right": (SCENARIO, IDEAL_SCENARIO.replace("right = B\n", ""), "No option 'right'"),
    "scenario-no-chain": (SCENARIO, IDEAL_SCENARIO.split("[chain]")[0],
                          "scenario file needs a [chain] section"),
    "scenario-empty-chain": (SCENARIO, IDEAL_SCENARIO.replace("segments = AB", "segments = ,"),
                             "[chain]: empty segment list"),
    "scenario-negative-rounds": (SCENARIO, IDEAL_SCENARIO.replace("[chain]", "[chain]\npurify_rounds = -1"),
                                 "purify_rounds must be nonnegative"),
    "scenario-one-node": (SCENARIO, IDEAL_SCENARIO.replace("right = B", "right = A"), "ends at a single node"),
    "chain-no-file": (["chain"], None, "chain needs --scenario FILE"),
    "chain-sweep-no-file": (["sweep", "--quantity", "chain"], None, "chain sweep needs --scenario FILE"),
    "photon-no-file": (["photon"], None, "photon needs --script FILE"),
    "photon-malformed": (SCRIPT, "[script]\nsteps = encode(\n", "malformed script step"),
    "photon-encode-circular": (SCRIPT, "[script]\nsteps = qwp, encode\n",
                               "must be in the linear basis to encode"),
    "photon-noise-decoded": (SCRIPT, "[script]\nsteps = encode, decode, noise(0.6, 0.8)\n",
                             "raw (s, l) time-bin form"),
    "photon-decode-circular": (SCRIPT, "[script]\nsteps = qwp, decode\n", "linear basis to decode"),
    "photon-decode-routed": (SCRIPT, "[photon]\nh = 0\nv = 1\n\n[script]\nsteps = pbs, decode\n",
                             "direction tag must be clear"),
    "photon-pc-window": (SCRIPT, "[script]\nsteps = pc(xx)\n", "PC window refers to unknown time bins"),
    "photon-delay-level": (SCRIPT, "[script]\nsteps = delay(Q)\n", "no level named 'Q'"),
    "photon-zero": (SCRIPT, "[photon]\nh = 0\nv = 0\n\n[script]\nsteps = qwp\n", "zero input amplitudes"),
    "config-missing": (["coeffs", "--config", "FILE"], None, "cannot read config"),
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_input_errors_are_usage_errors(tmp_path, capsys, case):
    argv, text, message = USAGE_ERRORS[case]
    path = tmp_path / "input.ini"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, *[str(path) if a == "FILE" else a for a in argv])
    assert code == 1
    assert err.startswith("usage error: ") and message in err
