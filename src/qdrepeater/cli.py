"""Command-line harness: coefficient and performance sweeps, protocol runs.

Subcommands: coeffs, distribute, pcd, purify, chain, sweep, plus crosscheck
(simulation against the closed forms) and photon (single-photon element
scripts).  The parser holds every flag's default; with --config, the [defaults]
entries of an INI file replace those defaults, so argparse converts and checks
them like flags, and flags still win.  `_SCENARIO` and `_SCRIPT` list the
sections and keys of scenario and script files; a --config file may hold
either's.  CSV output uses 12 significant digits and a fixed column order, so
identical inputs produce byte-identical files.  Exit codes: 0 success, 1 bad
input (usage or configuration error, or a stage that heralds nothing), 2 internal failure.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import itertools
import math
import sys

import numpy as np

from .cavity import IDEAL, CavityParams, ScatterCoeffs, full_coeffs, probability_sum, resonant_coeffs
from .metrics import REFERENCE_RUNS, crosscheck
from .protocols import ChainScenario, NoSurvivingBranchError, SegmentSpec, purify_analytic, purify_round, run_chain
from .qstate import StateVector, apply_map, hadamard, superposition
from .timebin import (NoiseChannel, apply_noise, decode, delay, dir_label, encode, phase_shift_map,
                      photon_register, pockels, pol_label, qwp, routing_map)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@contextlib.contextmanager
def _user_values():
    """Report a ValueError raised while user values become library objects
    as a usage error; anywhere else it is an internal failure."""
    try:
        yield
    except ValueError as e:
        raise UsageError(str(e)) from None


def _fmt(x: float) -> str:
    if x == 0:
        x = 0.0     # normalize the sign of zero
    return f"{x:.12g}"


def parse_grid(spec: str) -> list[float]:
    """Parse "start:stop:count" (inclusive linspace) or a comma list of at least one value."""
    try:
        if ":" in spec:
            a, b, n = spec.split(":")
            count = int(n)
            if count < 1:
                raise ValueError
            return [float(x) for x in np.linspace(float(a), float(b), count)]
        values = [float(x) for x in spec.split(",") if x != ""]
        if not values:
            raise ValueError
        return values
    except ValueError:
        # argparse prefixes the message with the flag the spec came from
        raise argparse.ArgumentTypeError(
            f"cannot parse grid {spec!r}; use start:stop:count or a comma list") from None


def _write_table(header, rows, output):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    text = "\n".join(lines) + "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as e:
            raise RuntimeError(f"cannot write {output}: {e}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

def _read_config(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            cp.read_file(fh, source=str(path))
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}")
    except configparser.Error as e:
        raise UsageError(f"config parse failure: {e}")
    return cp


def _defaults_keys() -> frozenset[str]:
    """The keys [defaults] may hold in any INI file: every value flag, and purify_rounds."""
    return frozenset({"purify_rounds"}.union(*map(value_flags, _parser().commands.values())))


def _check_file(cp, kind, sections) -> None:
    """Reject each section, [DEFAULT] with entries included, whose "[name]" starts with no head of
    ``sections`` ("[node " admits every [node NAME]), then each key its head does not list."""
    found = [cp.default_section] * bool(cp.defaults()) + cp.sections()
    heads = [next((h for h in sections if f"[{section}]".startswith(h)), None) for section in found]
    if None in heads:
        names = [h if h.endswith("]") else h + "NAME]" for h in sections]
        raise UsageError(f"unknown section [{found[heads.index(None)]}]; a {kind} file holds "
                         f"{', '.join(names[:-1])} and {names[-1]}")
    for section, head in zip(found, heads):
        known = sections[head]() if callable(sections[head]) else sections[head]
        for k in cp.options(section):
            if k not in known:
                raise UsageError(f"[{section}]: unknown key {k!r}")


# ---------------------------------------------------------------------------
# row builders
# ---------------------------------------------------------------------------

def _node(g, ks, gamma, delta) -> ScatterCoeffs:
    with _user_values():
        return resonant_coeffs(CavityParams(g=g, kappa_s=ks, gamma=gamma, delta=delta))


COEFFS_HEADER = [
    "g", "kappa_s", "gamma", "delta",
    "R_re", "R_im", "T_re", "T_im", "S_re", "S_im", "N_re", "N_im", "prob_sum",
    "r_re", "r_im", "t_re", "t_im", "r0_re", "r0_im", "t0_re", "t0_im",
]


def _coeffs_row(g, ks, gamma, delta):
    with _user_values():
        p = CavityParams(g=g, kappa_s=ks, gamma=gamma, delta=delta)
        R, T, S, N = full_coeffs(p)
        sc = resonant_coeffs(p)
        prob_sum = probability_sum(p)
    vals = [g, ks, gamma, delta,
            R.real, R.imag, T.real, T.imag, S.real, S.imag, N.real, N.imag, prob_sum,
            sc.r.real, sc.r.imag, sc.t.real, sc.t.imag,
            sc.r0.real, sc.r0.imag, sc.t0.real, sc.t0.imag]
    return [_fmt(v) for v in vals]


#: sweep quantity -> (column prefix, closed form, even detections, the branches --simulate prints,
#: from (coeffs, eta_in)), the last three its run in `REFERENCE_RUNS`
_METRICS = {"distribution": ("d", *REFERENCE_RUNS["distribute"]), "pcd": ("p", *REFERENCE_RUNS["pcd"])}


def _metrics_header(quantity):
    prefix = _METRICS[quantity][0]
    return ["g", "kappa_s", "gamma", "delta", "eta_in",
            f"eta_{prefix}_even", f"eta_{prefix}_odd", f"eta_{prefix}",
            f"f_{prefix}_even", f"f_{prefix}_odd", "eta_in_adjusted"]


def _metrics_row(quantity, g, ks, gamma, delta, eta_in):
    coeffs = _node(g, ks, gamma, delta)
    with _user_values():
        m = _METRICS[quantity][1](coeffs, eta_in=eta_in)
    vals = [g, ks, gamma, delta, eta_in,
            m.eta_d_even, m.eta_d_odd, m.eta_d, m.f_even, m.f_odd, m.eta_in_adjusted]
    return [_fmt(v) for v in vals]


PURIFY_HEADER = ["mu0", "round", "mu", "success_probability", "cumulative_success"]


def _purify_rows(mu_values, rounds):
    rows = []
    for mu0 in mu_values:
        cumulative = 1.0
        with _user_values():
            states = purify_analytic(mu0, rounds)
        for st in states:
            cumulative *= st.success_probability
            rows.append([_fmt(mu0), str(st.round), _fmt(st.mu),
                         _fmt(st.success_probability), _fmt(cumulative)])
    return rows


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

def _parse_complex(raw, where):
    try:
        return complex(raw.replace(" ", ""))
    except ValueError:
        raise UsageError(f"{where}: cannot parse complex value {raw!r}")


#: the noise entries of a segment, early bin first; each may carry a left_ or right_ prefix
_NOISE = ("noise_delta", "noise_eta", "noise_delta_l", "noise_eta_l")
#: section head -> the keys its sections may hold (or the function that lists them), per file kind
_SCENARIO = {"[defaults]": _defaults_keys, "[chain]": ("segments", "purify_rounds", "eta_in"),
             "[node ": ("ideal", "g", "kappa_s", "gamma", "delta"),
             "[segment ": ("left", "right", *(side + k for side in ("", "left_", "right_") for k in _NOISE))}
_SCRIPT = {"[photon]": ("name", "h", "v"), "[script]": ("steps",), "[defaults]": _defaults_keys}


def _segment_noise(cp, section, side):
    """One side's fiber noise; a ``left_``/``right_`` entry wins over the shared one."""
    raw = [cp.get(section, f"{side}_{k}", fallback=cp.get(section, k, fallback=None)) for k in _NOISE]
    if raw == [None] * 4:
        return NoiseChannel.identity()
    if None in raw[:2]:
        raise UsageError(f"{section}: noise needs both noise_delta and noise_eta")
    if (raw[2] is None) != (raw[3] is None):
        raise UsageError(f"{section}: asymmetric noise needs both noise_delta_l and noise_eta_l")
    try:
        return NoiseChannel(*(_parse_complex(x, section) for x in raw if x is not None))
    except ValueError as exc:
        raise UsageError(f"{section}: {exc}")


def _given(cp, section, keys, get) -> dict:
    """The entries of ``section`` among ``keys``, each read with ``get``; absent keys are left out."""
    return {k: get(section, k) for k in keys if cp.has_option(section, k)}


@_user_values()
def scenario_from_config(cp: configparser.ConfigParser,
                         g_override: float | None = None) -> ChainScenario:
    """Build a chain scenario from a parsed INI scenario file.

    Sections and keys, as `_SCENARIO` lists them: [defaults] (any value flag,
    or purify_rounds), one [node X] per node (ideal = true alone, or g /
    kappa_s / gamma / delta), one [segment NAME] per fiber segment (left,
    right, optional noise_*), and [chain] (segments, purify_rounds, eta_in).
    Any other section or key is a usage error, raised before any value is read.
    ``g_override`` replaces the coupling of every non-ideal node (chain sweep).
    """
    _check_file(cp, "scenario", _SCENARIO)
    # read eagerly, so a malformed entry is rejected even when every node is ideal
    cavity_defaults = _given(cp, "defaults", ("gamma", "kappa_s", "delta"), cp.getfloat)

    nodes = {}
    segments = {}
    for section in cp.sections():
        if section.startswith("node "):
            name = section.split(" ", 1)[1]
            if cp.getboolean(section, "ideal", fallback=False):
                extra = [k for k in cp.options(section) if k != "ideal"]
                if extra:   # the one rule `_SCENARIO` cannot hold: an ideal node has no other key
                    raise UsageError(f"[{section}]: unknown key {extra[0]!r}")
                nodes[name] = IDEAL
                continue
            try:
                g = cp.getfloat(section, "g") if g_override is None else g_override
                params = _given(cp, section, ("kappa_s", "gamma", "delta"), cp.getfloat)
                nodes[name] = resonant_coeffs(CavityParams(g=g, **{**cavity_defaults, **params}))
            except (configparser.Error, ValueError) as e:
                raise UsageError(f"[{section}]: {e}")
        elif section.startswith("segment "):
            name = section.split(" ", 1)[1]
            try:
                left = cp.get(section, "left")
                right = cp.get(section, "right")
            except configparser.Error as e:
                raise UsageError(f"[{section}]: {e}")
            segments[name] = SegmentSpec(
                name=name, left=left, right=right,
                noise_left=_segment_noise(cp, section, "left"),
                noise_right=_segment_noise(cp, section, "right"))

    if not cp.has_section("chain"):
        raise UsageError("scenario file needs a [chain] section")
    order = cp.get("chain", "segments", fallback="").replace(",", " ").split()
    if not order:
        raise UsageError("[chain]: empty segment list")
    missing = [nm for nm in order if nm not in segments]
    if missing:
        raise UsageError(f"[chain]: unknown segments {missing}")
    chain = {}
    for key, get in (("purify_rounds", cp.getint), ("eta_in", cp.getfloat)):
        for section in ("defaults", "chain"):
            chain.update(_given(cp, section, (key,), get))
    scenario = ChainScenario(nodes=nodes, segments=[segments[nm] for nm in order], **chain)
    scenario.validate()
    return scenario


# ---------------------------------------------------------------------------
# single-photon element scripts
# ---------------------------------------------------------------------------

def _split_steps(text):
    """Split on commas and newlines, but not inside parentheses."""
    tokens, depth, current = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch in ",\n" and depth == 0:
            tokens.append("".join(current))
            current = []
        else:
            current.append(ch)
    tokens.append("".join(current))
    return [t.strip() for t in tokens if t.strip()]


def _parse_step(token):
    if "(" in token:
        if not token.endswith(")"):
            raise UsageError(f"malformed script step {token!r}")
        name, raw = token[:-1].split("(", 1)
        args = [a.strip() for a in raw.split(",") if a.strip()]
    else:
        name, args = token, []
    return name.strip().lower(), args


#: Script step -> (function of (state, photon, *args), allowed argument counts).
_PHOTON_STEPS = {
    "encode": (encode, (0,)),
    "decode": (decode, (0,)),
    "noise": (lambda s, p, *a: apply_noise(s, p, NoiseChannel(*(_parse_complex(x, "script") for x in a))),
              (2, 4)),
    "qwp": (qwp, (0,)),
    "hwp": (lambda s, p: apply_map(s, hadamard(), [pol_label(p)]), (0,)),
    "pbs": (lambda s, p: apply_map(s, routing_map(), [pol_label(p), dir_label(p)]), (0,)),
    "bs": (lambda s, p: apply_map(s, hadamard(), [dir_label(p)]), (0,)),
    "phase": (lambda s, p, angle=math.pi: apply_map(s, phase_shift_map(float(angle)), [pol_label(p)]),
              (0, 1)),
    "pc": (lambda s, p, *window: pockels(s, p, window), range(1, sys.maxsize)),
    "delay": (delay, (1,)),
}


@_user_values()
def _run_photon_script(state: StateVector, photon: str, steps) -> StateVector:
    """Apply an ordered optical-element script to one photon."""
    for name, args in steps:
        if name not in _PHOTON_STEPS:
            raise UsageError(f"unknown script step {name!r}; supported steps: {', '.join(_PHOTON_STEPS)}")
        step, counts = _PHOTON_STEPS[name]
        if len(args) not in counts:
            allowed = (f"at least {counts.start}" if isinstance(counts, range)
                       else " or ".join(map(str, counts)))
            raise UsageError(f"script step {name!r} takes {allowed} argument(s), got {len(args)}")
        state = step(state, photon, *args)
    return state


def load_photon_script(path):
    """Read a single-photon element script: [photon] amplitudes, [script] steps and
    [defaults] for --config, with the keys `_SCRIPT` lists; any other is a usage error."""
    cp = _read_config(path)
    if not cp.has_option("script", "steps"):
        raise UsageError("script file needs a [script] section with steps")
    _check_file(cp, "script", _SCRIPT)
    name = cp.get("photon", "name", fallback="a")
    h = _parse_complex(cp.get("photon", "h", fallback="1"), "[photon]")
    v = _parse_complex(cp.get("photon", "v", fallback="0"), "[photon]")
    norm = math.hypot(h.real, h.imag, v.real, v.imag)
    if not math.isfinite(norm):
        raise UsageError(f"[photon]: amplitudes h = {h}, v = {v} need a finite norm")
    if norm == 0.0:
        raise UsageError("[photon]: zero input amplitudes")
    state = superposition(photon_register(name), [
        (h / norm, {f"{name}_pol": "H"}), (v / norm, {f"{name}_pol": "V"})])
    steps = [_parse_step(tok) for tok in _split_steps(cp.get("script", "steps"))]
    return state, name, steps


def cmd_photon(args):
    if not args.script:
        raise UsageError("photon needs --script FILE")
    state, name, steps = load_photon_script(args.script)
    state = _run_photon_script(state, name, steps)
    header = ["basis", "re", "im"]
    rows = []
    for idx, amp in enumerate(state.amplitudes):
        if abs(amp) < 1e-14:
            continue
        labels = state.register.basis_levels(idx)
        basis = "|" + ",".join(labels) + ">"
        rows.append([basis, _fmt(amp.real), _fmt(amp.imag)])
    rows.append(["norm2", _fmt(state.norm2), ""])
    _write_table(header, rows, args.output)
    return 0


CHAIN_HEADER = ["stage", "label", "probability", "fidelity"]


def _chain_rows(report):
    rows = [[st.stage, st.label, _fmt(st.probability), _fmt(st.fidelity)]
            for st in report.stages]
    rows.append(["total", "-".join(report.end_labels),
                 _fmt(report.total_probability), _fmt(report.final_fidelity)])
    return rows


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_coeffs(args):
    row = _coeffs_row(args.g, args.kappa_s, args.gamma, args.delta)
    _write_table(COEFFS_HEADER, [row], args.output)
    return 0


def _branch_lines(outcomes):
    lines = ["detection        probability     fidelity       correction"]
    for o in outcomes:
        fid = "-" if o.fidelity is None else _fmt(o.fidelity)
        corr = " ".join(f"{g}({lab})" for g, lab in o.correction) or "-"
        lines.append(f"{o.detection:<16} {_fmt(o.probability):<15} {fid:<14} {corr}")
    total = sum(o.probability for o in outcomes)
    lines.append(f"heralded total  {_fmt(total)}   discarded {_fmt(1.0 - total)}")
    return lines


def cmd_metrics(args):
    """distribute and pcd: the closed-form row, and with --simulate the heralded branches."""
    row = _metrics_row(args.quantity, args.g, args.kappa_s, args.gamma, args.delta, args.eta_in)
    _write_table(_metrics_header(args.quantity), [row], args.output)
    if args.simulate:
        coeffs = _node(args.g, args.kappa_s, args.gamma, args.delta)
        outcomes = _METRICS[args.quantity][3](coeffs, args.eta_in)
        sys.stdout.write("\n".join(_branch_lines(outcomes)) + "\n")
    return 0


def cmd_purify(args):
    rows = _purify_rows([args.mu], args.rounds)
    if args.simulate:
        current = args.mu
        for row in rows:
            state, _ = purify_round(current)
            row.append(_fmt(state.mu))
            current = state.mu
        _write_table(PURIFY_HEADER + ["mu_simulated"], rows, args.output)
    else:
        _write_table(PURIFY_HEADER, rows, args.output)
    return 0


def cmd_chain(args):
    if not args.scenario:
        raise UsageError("chain needs --scenario FILE")
    report = run_chain(scenario_from_config(_read_config(args.scenario)))
    _write_table(CHAIN_HEADER, _chain_rows(report), args.output)
    summary = (f"fidelity {report.final_fidelity:.6f}, "
               f"probability {report.total_probability:.6f}, "
               f"log10 probability {report.log10_total_probability:.6g}\n")
    sys.stdout.write(summary)
    return 0


def cmd_crosscheck(args):
    report = crosscheck(_node(args.g, args.kappa_s, args.gamma, args.delta))
    header = ["quantity", "simulated", "analytic", "deviation"]
    rows = [[r.quantity, _fmt(r.simulated), _fmt(r.analytic), _fmt(r.deviation)]
            for r in report.rows]
    rows.append(["max_deviation", "", "", _fmt(report.max_deviation)])
    _write_table(header, rows, args.output)
    return 0 if report.ok else 2


#: sweep quantity -> the flags it reads; typing any other sweep flag is a usage error
_CAVITY_GRIDS = ("--g-grid", "--kappa-s-grid", "--delta-grid", "--gamma")
_SWEEP_READS = {
    "coeffs": _CAVITY_GRIDS,
    **{quantity: _CAVITY_GRIDS + ("--eta-in",) for quantity in _METRICS},
    "purify": ("--mu-grid", "--rounds"),
    "chain": ("--g-grid", "--scenario"),
}


def cmd_sweep(args):
    # only flags typed on the command line are checked: [defaults] is shared by every subcommand
    quantity = args.quantity
    typed = dict.fromkeys(token.split("=", 1)[0] for token in args.argv if token.startswith("--"))
    readers = {flag: [q for q, read in _SWEEP_READS.items() if flag in read] for flag in typed}
    unread = [f"{flag} applies only to --quantity {' or '.join(qs)}"
              for flag, qs in readers.items() if qs and quantity not in qs]
    if unread:
        raise UsageError("; ".join(unread))
    points = list(itertools.product(args.g, args.kappa_s, args.delta))
    if quantity == "coeffs":
        rows = [_coeffs_row(g, ks, args.gamma, d) for g, ks, d in points]
        _write_table(COEFFS_HEADER, rows, args.output)
    elif quantity in _METRICS:
        rows = [_metrics_row(quantity, g, ks, args.gamma, d, args.eta_in) for g, ks, d in points]
        _write_table(_metrics_header(quantity), rows, args.output)
    elif quantity == "purify":
        _write_table(PURIFY_HEADER, _purify_rows(args.mu, args.rounds), args.output)
    else:  # chain, the last of the --quantity choices
        if not args.scenario:
            raise UsageError("chain sweep needs --scenario FILE")
        cp = _read_config(args.scenario)
        header = ["g", "total_probability", "final_fidelity", "log10_total_probability"]
        rows = []
        for g in args.g:
            report = run_chain(scenario_from_config(cp, g_override=g))
            rows.append([_fmt(g), _fmt(report.total_probability), _fmt(report.final_fidelity),
                         _fmt(report.log10_total_probability)])
        _write_table(header, rows, args.output)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_gamma(p):
    p.add_argument("--gamma", type=float, default=0.1, help="dipole decay rate in units of kappa")


def _add_eta_in(p):
    p.add_argument("--eta-in", dest="eta_in", type=float, default=1.0,
                   help="input-coupling efficiency per photon pass, in (0, 1]")


def _add_cavity_flags(p):
    p.add_argument("--g", type=float, default=1.2, help="coupling strength in units of kappa")
    p.add_argument("--kappa-s", dest="kappa_s", type=float, default=0.0,
                   help="side-leakage rate in units of kappa")
    _add_gamma(p)
    p.add_argument("--delta", type=float, default=0.0, help="probe detuning in units of kappa")


def build_parser() -> _Parser:
    """A new qdrepeater parser; ``parser.commands`` maps each subcommand to its parser."""
    parser = _Parser(prog="qdrepeater",
                     description="Heralded quantum-repeater simulator for spin-cavity nodes")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def command(name, func, help, **kwargs):
        p = sub.add_parser(name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter,
                           **kwargs)
        p.set_defaults(func=func)
        return p

    p = command("coeffs", cmd_coeffs, "scattering coefficients at one parameter point")
    _add_cavity_flags(p)

    for name, quantity, help in (("distribute", "distribution", "entanglement-distribution metrics"),
                                 ("pcd", "pcd", "parity-check detector metrics")):
        p = command(name, cmd_metrics, help)
        p.set_defaults(quantity=quantity)
        _add_cavity_flags(p)
        _add_eta_in(p)
        p.add_argument("--simulate", action="store_true", help="print the heralded branch table")

    p = command("purify", cmd_purify, "purification recursion table")
    p.add_argument("--mu", type=float, default=0.7, help="starting weight of the phase-correct Bell state")
    p.add_argument("--rounds", type=int, default=2, help="purification rounds")
    p.add_argument("--simulate", action="store_true",
                   help="add a column with the fully simulated per-round weight")

    p = command("chain", cmd_chain, "run a multi-segment scenario file")
    p.add_argument("--scenario", default=None, help="INI scenario file")

    p = command("crosscheck", cmd_crosscheck, "simulation vs closed forms at one point")
    _add_cavity_flags(p)

    p = command("photon", cmd_photon, "run an optical-element script on one photon")
    p.add_argument("--script", default=None, help="INI file with [photon] and [script] sections")

    # the grids carry g, kappa_s and delta; no abbreviations, so that --g,
    # --kappa-s or --delta is rejected, not read as the grid flag it prefixes
    p = command("sweep", cmd_sweep, "parameter sweeps with CSV output", allow_abbrev=False)
    p.add_argument("--quantity", required=True, choices=tuple(_SWEEP_READS))
    _add_gamma(p)
    grids = (("--g-grid", "g", "1.2", "coupling strengths"),
             ("--kappa-s-grid", "kappa_s", "0", "side-leakage rates"),
             ("--delta-grid", "delta", "0", "probe detunings"),
             ("--mu-grid", "mu", "0.6,0.7,0.8,0.9", "starting weights (purify)"))
    for flag, dest, default, what in grids:
        p.add_argument(flag, dest=dest, type=parse_grid, default=default,
                       metavar="GRID", help=f"{what}: start:stop:count or a comma list")
    p.add_argument("--rounds", type=int, default=3, help="purification rounds (purify)")
    _add_eta_in(p)
    p.add_argument("--scenario", default=None, help="INI scenario file (chain)")

    for p in parser.commands.values():
        p.add_argument("--config", default=None,
                       help="INI file whose [defaults] entries replace the defaults of these flags")
        p.add_argument("--output", default=None, help="write CSV here instead of stdout")
    return parser


def value_flags(command: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """The flags of a subcommand that take a value and that [defaults] can set, by dest."""
    return {a.dest: a for a in command._actions
            if a.option_strings and a.nargs != 0 and not a.required and a.dest != "config"}


@functools.cache
def _parser() -> _Parser:
    """The parser every plain parse shares, as in-process `main` calls parse many; nothing may change it."""
    return build_parser()


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line.  With --config, the file's [defaults] entries
    become the chosen subcommand's defaults for its value flags and the
    command line is parsed again, so argparse converts and rejects them as
    it does flags, and flags on the command line still win.  That second
    parse uses a parser of its own, so the shared one keeps its defaults.
    The namespace keeps ``argv``: sweep checks the flags typed in it."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser().parse_args(argv)
    if args.config:
        cp = _read_config(args.config)
        _check_file(cp, "config", {**_SCENARIO, **_SCRIPT})
        parser = build_parser()
        command = parser.commands[args.command]
        command.set_defaults(**{dest: cp.get("defaults", dest) for dest in value_flags(command)
                                if cp.has_option("defaults", dest)})
        args = parser.parse_args(argv)
    args.argv = argv
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except (UsageError, NoSurvivingBranchError) as e:    # nodes that herald nothing are bad input
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
