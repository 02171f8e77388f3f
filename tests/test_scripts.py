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


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_script_writes_its_tables(name, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.OUT = tmp_path
    assert script.run() == 0
    written = {}
    for path in tmp_path.iterdir():
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        written[path.name] = (header, len(rows))
    assert written == OUTPUTS[name]
