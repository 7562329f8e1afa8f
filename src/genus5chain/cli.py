"""Command-line interface: `genus5 <command>`.

Every command is deterministic for a fixed configuration (seeds included),
writes UTF-8 text with LF line endings and 15 significant digits, and uses
exit status 0 on success, 2 on a precondition refusal and 1 on a numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import aba, bethe, lattice, refdata, thermo
from .curve import SQRT3, U_CRITICAL, CurveParams, CurvePoint, sample_points
from .errors import (
    BracketInvalid,
    Genus5Error,
    InsufficientData,
    MapSingular,
    WrongCoupling,
)
from .rmatrix import ybe_residual

_PRECONDITION_ERRORS = (BracketInvalid, InsufficientData, MapSingular, WrongCoupling, ValueError)


@dataclass
class RunConfig:
    """Complete description of one command invocation."""

    command: str
    params: dict
    out: str | None = None
    fmt: str = "json"

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls(**json.loads(text))


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.15g}"
    if isinstance(x, complex):
        return f"{x.real:.15g}{x.imag:+.15g}j"
    return str(x)


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(f"{float(obj):.15g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return {"re": float(f"{obj.real:.15g}"), "im": float(f"{obj.imag:.15g}")}
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj]
    return obj


def _emit(payload, args, rows=None, header=None):
    """Write JSON (default) or CSV rows; CSV only when rows are provided."""
    fmt = getattr(args, "format", "json")
    if fmt == "csv" and rows is not None:
        lines = [",".join(header)] + [",".join(_fmt(c) for c in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(_json_ready(payload), sort_keys=True, indent=1) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config(args, command, keys):
    # the destination is not part of the numerical configuration: identical
    # parameters must produce identical bytes wherever they are written
    return RunConfig(
        command,
        {k: getattr(args, k) for k in keys},
        None,
        getattr(args, "format", "json"),
    ).to_json()


# ---------------------------------------------------------------------------
# commands


def cmd_ybe_check(args):
    params = CurveParams(args.U, args.eps_sign)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.samples):
        p1, p2, p3 = sample_points(params, 3, rng)
        worst = max(worst, ybe_residual(p1, p2, p3))
    _emit(
        {
            "config": _config(args, "ybe-check", ["U", "eps_sign", "samples", "seed"]),
            "max_residual": worst,
            "passed": bool(worst < 1e-10),
        },
        args,
    )
    return 0


def cmd_ed(args):
    sectors = range(-args.L, args.L + 1) if args.n is None else [args.n]
    spectra = {}
    for n in sectors:
        op = lattice.build_hamiltonian(args.U, args.L, n)
        rep = lattice.diagonalize(op, mode=args.mode, k=args.k)
        spectra[str(n)] = {
            "eigenvalues": list(rep.eigenvalues),
            "is_real": [bool(b) for b in rep.is_real],
            "method": rep.method,
        }
    _emit(
        {
            "config": _config(args, "ed", ["L", "n", "U", "mode", "k"]),
            "L": args.L,
            "U": args.U,
            "sectors": spectra,
        },
        args,
    )
    return 0


def cmd_reality_threshold(args):
    if args.L > 9:
        raise ValueError("full-spectrum threshold scan is limited to L <= 9")
    if args.L > 8 and not args.heavy:
        raise ValueError(f"L={args.L} takes long; rerun with --heavy")
    bracket = tuple(float(v) for v in args.bracket.split(","))
    u_l = lattice.reality_threshold(args.L, tol=args.tol, bracket=bracket)
    ref = refdata.TABLE1_REALITY.get(args.L)
    _emit(
        {
            "config": _config(args, "reality-threshold", ["L", "tol", "bracket"]),
            "L": args.L,
            "threshold": u_l,
            "reference": ref,
            "deviation": None if ref is None else abs(u_l - ref),
        },
        args,
    )
    return 0


def cmd_symmetry_check(args):
    rep = lattice.symmetry_check_neg_u(args.L, args.U)
    _emit(
        {
            "config": _config(args, "symmetry-check", ["L", "U"]),
            "spectral_distance": rep.spectral_distance,
            "e1_relation_defect": rep.e1_relation_defect,
            "f0_per_site": rep.f0_per_site,
        },
        args,
    )
    return 0


def cmd_bethe_solve(args):
    Q = None if args.Q is None else [float(v) for v in args.Q.split(",")]
    rs = bethe.solve_log_form(args.L, args.n, args.U, Q=Q)
    payload = rs.to_json_dict()
    payload["energy"] = bethe.energy(rs)
    payload["energy_per_site"] = bethe.energy(rs) / args.L
    payload["config"] = _config(args, "bethe-solve", ["L", "n", "U", "Q"])
    _emit(payload, args)
    return 0


def cmd_roots(args):
    mode = args.mode
    if mode == "auto":
        mode = "log" if args.U >= U_CRITICAL - 1e-12 else "continue"
    if mode == "log":
        rs = bethe.solve_log_form(args.L, args.n, args.U)
    elif mode == "continue":
        rs = bethe.track_state(args.L, args.n, args.u_start, args.U)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    cls = bethe.classify_roots(rs)
    payload = rs.to_json_dict()
    payload["classification"] = {
        "reals": list(np.array(cls.reals).real) if cls.reals else [],
        "strings": [[s[0], s[1]] for s in cls.strings],
        "unpaired": list(cls.unpaired),
        "n_strings": cls.n_strings,
    }
    payload["energy"] = bethe.energy(rs)
    payload["config"] = _config(args, "roots", ["L", "n", "U", "mode", "u_start"])
    _emit(payload, args)
    return 0


def cmd_thermo(args):
    grid = thermo.solve_sigma(args.U, N=args.N, k0=args.k0)
    _emit(
        {
            "config": _config(args, "thermo", ["U", "N", "k0"]),
            "e0": thermo.bulk_energy(grid),
            "density_norm": grid.norm(),
            "N": args.N,
        },
        args,
    )
    return 0


def cmd_gap(args):
    est = thermo.gap(args.U, N=args.N, k0=args.k0)
    _emit(
        {
            "config": _config(args, "gap", ["U", "N", "k0"]),
            "gap": est.value,
            "closed_form": args.U / 2.0 - SQRT3,
            "rho_sup": est.rho_sup,
            "spectral_radius": est.spectral_radius,
        },
        args,
    )
    return 0


def cmd_density_profile(args):
    if args.U < U_CRITICAL - 1e-12:
        raise ValueError(f"density profile defined for U >= 2*sqrt(3) ~ {U_CRITICAL:.6f}")
    grid = thermo.solve_sigma(args.U, N=args.N, k0=args.k0)
    rows = [[float(k), float(v)] for k, v in zip(grid.nodes, grid.values)]
    args.format = "csv"
    _emit(None, args, rows=rows, header=["k", "sigma"])
    return 0


def cmd_fit_threshold(args):
    if args.data:
        pairs = []
        for item in args.data.split(","):
            l_str, u_str = item.split(":")
            pairs.append((int(l_str), float(u_str)))
    elif args.compute:
        ls = [int(v) for v in args.Ls.split(",")]
        pairs = [(L, lattice.reality_threshold(L)) for L in ls]
    else:
        pairs = sorted(refdata.TABLE1_REALITY.items())
    u_inf, slope = fit_threshold(pairs)
    _emit(
        {
            "config": _config(args, "fit-threshold", ["data", "compute", "Ls"]),
            "points": [[l, u] for l, u in pairs],
            "U_infinity": u_inf,
            "slope": slope,
            "U_critical": U_CRITICAL,
        },
        args,
    )
    return 0


def fit_threshold(pairs) -> tuple[float, float]:
    """Least-squares fit U(L) = U_inf + a / L^2."""
    if len(pairs) < 3:
        raise InsufficientData("threshold fit needs at least three (L, U) points")
    ls = np.array([p[0] for p in pairs], dtype=float)
    us = np.array([p[1] for p in pairs], dtype=float)
    A = np.stack([np.ones_like(ls), ls**-2.0], axis=1)
    coef, *_ = np.linalg.lstsq(A, us, rcond=None)
    return float(coef[0]), float(coef[1])


def cmd_aba_verify(args):
    params = CurveParams(args.U)
    mu = CurvePoint(params, 1.0, 0.0)
    rng = np.random.default_rng(args.seed)
    spectator = sample_points(params, 1, rng)[0]
    pair = sample_points(params, 2, rng)
    exchange = aba.exchange_symmetry_check(pair[0], pair[1], mu, args.L)
    residuals = {}
    for m in range(1, args.m + 1):
        n = args.L - m
        rs = bethe.solve_log_form(args.L, n, args.U)
        phi = aba.on_shell_eigenvector(rs, mu)
        residuals[str(m)] = aba.eigenstate_residual(phi, spectator, rs, mu)
    _emit(
        {
            "config": _config(args, "aba-verify", ["L", "U", "m", "seed"]),
            "exchange_defect": exchange,
            "eigenstate_residuals": residuals,
        },
        args,
    )
    return 0


# ---------------------------------------------------------------------------
# benchmark tables


def _table1(heavy: bool):
    sizes = [4, 5, 6, 7] + ([8, 9] if heavy else [])
    header = ["L", "threshold", "reference", "deviation"]
    rows = []
    for L in sizes:
        u_l = lattice.reality_threshold(L)
        ref = refdata.TABLE1_REALITY[L]
        rows.append([L, u_l, ref, abs(u_l - ref)])
    return header, rows


_TABLE2_U = ["5", "4.5", "4", "2sqrt3"]


def _table2(heavy: bool):
    sizes = [8, 12, 16, 24, 64]
    header = ["L"]
    for key in _TABLE2_U:
        header += [f"E/L(U={key})", f"dev(U={key})"]
    rows = []
    for L in sizes:
        row = [L]
        for key in _TABLE2_U:
            val = bethe.energy(bethe.solve_log_form(L, 0, refdata.u_value(key))) / L
            row += [val, abs(val - refdata.TABLE2_ENERGY[key][L])]
        rows.append(row)
    bulk_row = ["bulk"]
    for key in _TABLE2_U:
        u = refdata.u_value(key)
        n_nodes = 8192 if key == "2sqrt3" else 2048
        e0 = thermo.bulk_energy(thermo.solve_sigma(u, N=n_nodes))
        bulk_row += [e0, abs(e0 - refdata.TABLE2_ENERGY[key]["bulk"])]
    rows.append(bulk_row)
    return header, rows


def _table3(heavy: bool):
    sizes = [4, 6, 8, 10, 12, 24, 64, 128]
    header = ["L"]
    for key in _TABLE2_U:
        header += [f"gap(U={key})", f"dev(U={key})"]
    rows = []
    for L in sizes:
        row = [L]
        for key in _TABLE2_U:
            val = bethe.finite_size_gap(L, refdata.u_value(key))
            row += [val, abs(val - refdata.TABLE3_GAP[key][L])]
        rows.append(row)
    conj_row = ["conjecture"]
    for key in _TABLE2_U:
        u = refdata.u_value(key)
        val = thermo.gap(u).value
        conj_row += [val, abs(val - refdata.TABLE3_GAP[key]["conjecture"])]
    rows.append(conj_row)
    return header, rows


_TABLE4_U = ["3", "2", "1", "0"]


def _table4(heavy: bool):
    sizes = list(range(4, 11)) + ([11, 12] if heavy else [])
    header = ["L"]
    for key in _TABLE4_U:
        header += [f"gap(U={key})", f"dev(U={key})"]
    rows = []
    gaps = {key: {} for key in _TABLE4_U}
    for L in sizes:
        row = [L]
        for key in _TABLE4_U:
            e0, e1 = lattice.lowest_two_energies(refdata.u_value(key), L)
            gaps[key][L] = e1 - e0
            row += [gaps[key][L], abs(gaps[key][L] - refdata.TABLE4_GAP[key][L])]
        rows.append(row)
    extrap = ["extrapolated(method-dependent)"]
    for key in _TABLE4_U:
        val, err = _extrapolate_gap(gaps[key])
        extrap += [val, err]
    rows.append(extrap)
    return header, rows


def _extrapolate_gap(series: dict) -> tuple[float, float]:
    """Polynomial-in-1/L extrapolation with a scheme-spread uncertainty.

    The massless-window gaps decay like 1/L to leading order, so the fits
    run in powers of 1/L; the quoted uncertainty combines the cubic fit's
    residual error with the spread against the quadratic fit, since the
    extrapolated constant is strongly scheme-dependent at these sizes.
    """
    ls = np.array(sorted(series), dtype=float)
    gs = np.array([series[int(l)] for l in ls])
    x = 1.0 / ls

    def fit(order):
        A = np.stack([x**p for p in range(order + 1)], axis=1)
        coef, res, *_ = np.linalg.lstsq(A, gs, rcond=None)
        dof = max(len(ls) - (order + 1), 1)
        s2 = (res[0] / dof) if len(res) else 0.0
        cov = np.linalg.inv(A.T @ A) * s2
        return float(coef[0]), float(np.sqrt(max(cov[0, 0], 0.0)))

    v3, e3 = fit(3)
    v2, _ = fit(2)
    return v3, max(e3, abs(v3 - v2))


_TABLE5_U = ["4", "2sqrt3", "sqrt2", "1"]


def _table5(heavy: bool):
    sizes = [4, 6, 8, 10] + ([12] if heavy else [])
    header = ["L"]
    for key in _TABLE5_U:
        header += [f"F0(U={key})", f"dev(U={key})"]
    rows = []
    for L in sizes:
        row = [L]
        for key in _TABLE5_U:
            val = lattice.f0_per_site(refdata.u_value(key), L)
            row += [val, abs(val - refdata.TABLE5_F0[key][L])]
        rows.append(row)
    return header, rows


_TABLES = {1: _table1, 2: _table2, 3: _table3, 4: _table4, 5: _table5}


def cmd_table(args):
    if args.k not in _TABLES:
        raise ValueError("table index must be 1..5")
    header, rows = _TABLES[args.k](args.heavy)
    args.format = "csv"
    _emit(None, args, rows=rows, header=header)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="genus5",
        description="Vertex model on a genus-five curve: checks, spectra, tables.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(q):
        q.add_argument("--out", default=None, help="output file (stdout if omitted)")
        q.add_argument("--format", choices=["json", "csv"], default="json")

    q = sub.add_parser("ybe-check", help="Yang-Baxter residual over random on-curve triples")
    q.add_argument("--U", type=float, default=5.0)
    q.add_argument("--eps-sign", dest="eps_sign", choices=["plus", "minus"], default="plus")
    q.add_argument("--samples", type=int, default=50)
    q.add_argument("--seed", type=int, default=7)
    add_common(q)
    q.set_defaults(func=cmd_ybe_check)

    q = sub.add_parser("ed", help="exact diagonalization of the chain")
    q.add_argument("--L", type=int, required=True)
    q.add_argument("--U", type=float, required=True)
    q.add_argument("--n", type=int, default=None, help="sector (all when omitted)")
    q.add_argument("--mode", choices=["full", "lowest"], default="full")
    q.add_argument("--k", type=int, default=6)
    add_common(q)
    q.set_defaults(func=cmd_ed)

    q = sub.add_parser("reality-threshold", help="smallest U with an all-real spectrum")
    q.add_argument("--L", type=int, required=True)
    q.add_argument("--tol", type=float, default=1e-8)
    q.add_argument("--bracket", default="2.5,3.45")
    q.add_argument("--heavy", action="store_true")
    add_common(q)
    q.set_defaults(func=cmd_reality_threshold)

    q = sub.add_parser("symmetry-check", help="spectral relations between H(U) and H(-U)")
    q.add_argument("--L", type=int, required=True)
    q.add_argument("--U", type=float, required=True)
    add_common(q)
    q.set_defaults(func=cmd_symmetry_check)

    q = sub.add_parser("bethe-solve", help="real logarithmic-form solve")
    q.add_argument("--L", type=int, required=True)
    q.add_argument("--n", type=int, default=0)
    q.add_argument("--U", type=float, required=True)
    q.add_argument("--Q", default=None, help="comma-separated branch numbers")
    add_common(q)
    q.set_defaults(func=cmd_bethe_solve)

    q = sub.add_parser("roots", help="root pattern with two-string classification")
    q.add_argument("--L", type=int, required=True)
    q.add_argument("--U", type=float, required=True)
    q.add_argument("--n", type=int, default=0)
    q.add_argument("--mode", choices=["auto", "log", "continue"], default="auto")
    q.add_argument("--u-start", dest="u_start", type=float, default=5.0)
    add_common(q)
    q.set_defaults(func=cmd_roots)

    q = sub.add_parser("thermo", help="bulk ground-state energy from the density equation")
    q.add_argument("--U", type=float, required=True)
    q.add_argument("--N", type=int, default=2048)
    q.add_argument("--k0", type=float, default=-np.pi)
    add_common(q)
    q.set_defaults(func=cmd_thermo)

    q = sub.add_parser("gap", help="mass gap with back-flow verification")
    q.add_argument("--U", type=float, required=True)
    q.add_argument("--N", type=int, default=1024)
    q.add_argument("--k0", type=float, default=-np.pi)
    add_common(q)
    q.set_defaults(func=cmd_gap)

    q = sub.add_parser("density-profile", help="CSV of the root density sigma(k)")
    q.add_argument("--U", type=float, required=True)
    q.add_argument("--N", type=int, default=2048)
    q.add_argument("--k0", type=float, default=-np.pi)
    add_common(q)
    q.set_defaults(func=cmd_density_profile)

    q = sub.add_parser("table", help="reproduce benchmark table k with deviations")
    q.add_argument("k", type=int)
    q.add_argument("--heavy", action="store_true", help="include the long rows")
    add_common(q)
    q.set_defaults(func=cmd_table)

    q = sub.add_parser("fit-threshold", help="U(L) = U_inf + a/L^2 least-squares fit")
    q.add_argument("--data", default=None, help="pairs L:U, comma separated")
    q.add_argument("--compute", action="store_true", help="compute thresholds first")
    q.add_argument("--Ls", default="4,5,6")
    add_common(q)
    q.set_defaults(func=cmd_fit_threshold)

    q = sub.add_parser("aba-verify", help="eigenvector-construction consistency checks")
    q.add_argument("--L", type=int, default=4)
    q.add_argument("--U", type=float, default=5.0)
    q.add_argument("--m", type=int, default=2)
    q.add_argument("--seed", type=int, default=11)
    add_common(q)
    q.set_defaults(func=cmd_aba_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _PRECONDITION_ERRORS as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except Genus5Error as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
