"""The experiment scripts in scripts/ run and write their CSV files."""

import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"

COEFFS = ("g,kappa_s,gamma,delta,R_re,R_im,T_re,T_im,S_re,S_im,N_re,N_im,prob_sum,"
          "r_re,r_im,t_re,t_im,r0_re,r0_im,t0_re,t0_im")

#: script -> {CSV file it writes: (header, number of data rows)}
OUTPUTS = {
    "coefficient_scan": {
        "coefficients_vs_coupling.csv": (COEFFS, 4 * 101),
        "coefficients_vs_leakage.csv": (COEFFS, 4 * 101),
    },
    "performance_scan": {
        "distribution_vs_coupling.csv": (
            "g,kappa_s,gamma,delta,eta_in,eta_d_even,eta_d_odd,eta_d,f_d_even,f_d_odd,eta_in_adjusted", 61 * 2),
        "pcd_vs_coupling.csv": (
            "g,kappa_s,gamma,delta,eta_in,eta_p_even,eta_p_odd,eta_p,f_p_even,f_p_odd,eta_in_adjusted", 61 * 2),
    },
    "purification_table": {
        "purification_rounds.csv": (
            "mu0,round,mu,success_probability,cumulative_success,mu_simulated", 4 * 3),
    },
}


def test_every_script_is_covered():
    assert sorted(p.stem for p in SCRIPTS.glob("*.py")) == sorted(OUTPUTS)


def load(name, out):
    """The script ``name`` as a fresh module that writes to ``out``."""
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.OUT = out
    return script


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_script_writes_its_tables(name, tmp_path, capsys):
    script = load(name, tmp_path)
    assert script.run() == 0
    written = {}
    for path in tmp_path.iterdir():
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        written[path.name] = (header, len(rows))
    assert written == OUTPUTS[name]


def test_purification_table_fails_on_a_row_off_the_recursion(tmp_path, capsys):
    script = load("purification_table", tmp_path)

    def main(argv):
        # every start's round 2 has its simulated weight 1.2e-10 relative off the recursion
        print(OUTPUTS["purification_table"]["purification_rounds.csv"][0])
        print(f"{argv[3]},1,0.844827586207,0.58,0.58,0.844827586207")
        print(f"{argv[3]},2,0.967403958911,0.7376,0.427808,0.967403959027")
        return 0

    script.main = main
    assert script.run() == 1
    assert capsys.readouterr().err == ("mu0 0.6, round 2: mu_simulated 0.967403959027 is off "
                                       "mu 0.967403958911 by more than 1e-10 relative\n")
    assert list(tmp_path.iterdir()) == []
