"""Command-line interface: `genus5 <command>`.

Every command is deterministic for a fixed configuration (seeds included),
writes UTF-8 text with LF line endings and 15 significant digits, and uses
exit status 0 on success, 2 on a precondition refusal and 1 on a numerical
failure.  A command returns either a JSON payload or a CSV `(header, rows)`
pair, and `main` writes it to stdout or to `--out`.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import aba, bethe, lattice, refdata, tables, thermo
from .curve import SQRT3, U_CRITICAL, CurveParams, CurvePoint, critical_side, sample_points
from .errors import (
    BracketInvalid,
    Genus5Error,
    InsufficientData,
    MapSingular,
    NoConvergence,
    WrongCoupling,
)
from .rmatrix import ybe_residual

_PRECONDITION_ERRORS = (BracketInvalid, InsufficientData, MapSingular, WrongCoupling, ValueError)


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


# ---------------------------------------------------------------------------
# commands


def cmd_ybe_check(args):
    params = CurveParams(args.U, args.eps_sign)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.samples):
        p1, p2, p3 = sample_points(params, 3, rng)
        worst = max(worst, ybe_residual(p1, p2, p3))
    return {"max_residual": worst, "passed": bool(worst < 1e-10)}


def cmd_ed(args):
    """Spectra of the requested sectors; sector -n prints sector n's solve,
    as in `lattice.lowest_per_sector` (an out-of-range n is refused as given)."""
    sectors = range(-args.L, args.L + 1) if args.n is None else [args.n]
    solved, spectra = {}, {}
    for n in sectors:
        m = abs(n) if abs(n) <= args.L else n
        if m not in solved:
            rep = lattice.diagonalize(lattice.build_hamiltonian(args.U, args.L, m),
                                      mode=args.mode, k=args.k)
            solved[m] = {
                "eigenvalues": list(rep.eigenvalues),
                "is_real": [bool(b) for b in rep.is_real],
                "method": rep.method,
            }
        spectra[str(n)] = solved[m]
    return {"L": args.L, "U": args.U, "sectors": spectra}


def _check_threshold_sizes(ls, heavy=False, hint="rerun with --heavy"):
    """Refuse the chain lengths whose full-spectrum threshold scan is out of reach."""
    for L in ls:
        if L > 9:
            raise ValueError("full-spectrum threshold scan is limited to L <= 9")
        if L > 8 and not heavy:
            raise ValueError(f"L={L} takes long; {hint}")


def cmd_reality_threshold(args):
    _check_threshold_sizes([args.L], args.heavy)
    bracket = tuple(float(v) for v in args.bracket.split(","))
    u_l = lattice.reality_threshold(args.L, tol=args.tol, bracket=bracket)
    ref = refdata.TABLE1_REALITY.get(args.L)
    return {
        "L": args.L,
        "threshold": u_l,
        "reference": ref,
        "deviation": None if ref is None else abs(u_l - ref),
    }


def cmd_symmetry_check(args):
    rep = lattice.symmetry_check_neg_u(args.L, args.U)
    return {
        "spectral_distance": rep.spectral_distance,
        "e1_relation_defect": rep.e1_relation_defect,
        "f0_per_site": rep.f0_per_site,
    }


def cmd_bethe_solve(args):
    Q = None if args.Q is None else [float(v) for v in args.Q.split(",")]
    rs = bethe.solve_log_form(args.L, args.n, args.U, Q=Q)
    payload = rs.to_json_dict()
    payload["energy"] = bethe.energy(rs)
    payload["energy_per_site"] = bethe.energy(rs) / args.L
    return payload


def cmd_roots(args):
    mode = args.mode
    if mode == "auto":
        mode = "log" if critical_side(args.U) >= 0 else "continue"
    if mode == "log":
        rs = bethe.solve_log_form(args.L, args.n, args.U)
    else:
        rs = bethe.track_state(args.L, args.n, args.u_start, args.U)
    cls = bethe.classify_roots(rs)
    payload = rs.to_json_dict()
    payload["classification"] = {
        "reals": list(np.array(cls.reals).real) if cls.reals else [],
        "strings": [[s[0], s[1]] for s in cls.strings],
        "unpaired": list(cls.unpaired),
        "n_strings": cls.n_strings,
    }
    payload["energy"] = bethe.energy(rs)
    return payload


def cmd_thermo(args):
    grid = thermo.solve_sigma(args.U, N=args.N, k0=args.k0)
    return {"e0": thermo.bulk_energy(grid), "density_norm": grid.norm(), "N": args.N}


def cmd_gap(args):
    est = thermo.gap(args.U, N=args.N, k0=args.k0)
    return {
        "gap": est.value,
        "closed_form": args.U / 2.0 - SQRT3,
        "rho_sup": est.rho_sup,
        "nilpotency_defect": est.nilpotency_defect,
    }


def cmd_density_profile(args):
    grid = thermo.solve_sigma(args.U, N=args.N, k0=args.k0)
    return ["k", "sigma"], [[float(k), float(v)] for k, v in zip(grid.nodes, grid.values)]


def cmd_fit_threshold(args):
    if args.data:
        pairs = []
        for item in args.data.split(","):
            l_str, u_str = item.split(":")
            pairs.append((int(l_str), float(u_str)))
    elif args.compute:
        ls = [int(v) for v in args.Ls.split(",")]
        # only L = 9 is refused as long: L > 9 is refused outright
        _check_threshold_sizes(
            ls, hint="run reality-threshold --L 9 --heavy and pass 9:U through --data")
        pairs = [(L, lattice.reality_threshold(L)) for L in ls]
    else:
        pairs = sorted(refdata.TABLE1_REALITY.items())
    u_inf, slope = tables.fit_threshold(pairs)
    return {
        "points": [[l, u] for l, u in pairs],
        "U_infinity": u_inf,
        "slope": slope,
        "U_critical": U_CRITICAL,
    }


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
    return {"exchange_defect": exchange, "eigenstate_residuals": residuals}


def cmd_table(args):
    if args.k not in tables.TABLES:
        raise ValueError("table index must be 1..5")
    return tables.TABLES[args.k](args.heavy)


# ---------------------------------------------------------------------------
# parser


def sites(text: str) -> int:
    """A chain length `--L`: refused below one site as a usage error (exit 2)."""
    L = int(text)
    if L < 1:
        raise argparse.ArgumentTypeError(f"need at least one site, got {L}")
    return L


def samples(text: str) -> int:
    """A sample count `--samples`: refused below one as a usage error (exit 2),
    since a check over no samples passes without testing anything."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"need at least one sample, got {n}")
    return n


def _finite(text: str, what: str, bound: float = np.inf) -> float:
    x = float(text)
    if not np.isfinite(x):
        raise argparse.ArgumentTypeError(f"need a finite {what}, got {text}")
    if abs(x) > bound:
        raise argparse.ArgumentTypeError(f"need a finite {what} within +-{bound:g}, got {text}")
    return x


def coupling(text: str) -> float:
    """A coupling `--U` or `--u-start`: refused unless finite and within +-1e100 (above
    ~7e137 `eig` returns rescaled levels), as a usage error (exit 2)."""
    return _finite(text, "coupling", 1e100)


def grid_start(text: str) -> float:
    """A density-grid start `--k0`: refused unless finite and within +-100 (from ~3000 the
    grid loses the reflection symmetry of sigma), as a usage error (exit 2)."""
    return _finite(text, "grid start", 100.0)


def tolerance(text: str) -> float:
    """A reality tolerance `--tol`: refused unless finite and non-negative, as a
    usage error (exit 2), so a bad value is not blamed on the bracket."""
    tol = _finite(text, "tolerance")
    if tol < 0:
        raise argparse.ArgumentTypeError(f"need a non-negative tolerance, got {text}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="genus5",
        description="Vertex model on a genus-five curve: checks, spectra, tables.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("ybe-check", help="Yang-Baxter residual over random on-curve triples")
    q.add_argument("--U", type=coupling, default=5.0)
    q.add_argument("--eps-sign", dest="eps_sign", choices=["plus", "minus"], default="plus")
    q.add_argument("--samples", type=samples, default=50)
    q.add_argument("--seed", type=int, default=7)
    q.set_defaults(func=cmd_ybe_check)

    q = sub.add_parser("ed", help="exact diagonalization of the chain")
    q.add_argument("--L", type=sites, required=True)
    q.add_argument("--U", type=coupling, required=True)
    q.add_argument("--n", type=int, default=None, help="sector (all when omitted)")
    q.add_argument("--mode", choices=["full", "lowest"], default="full")
    q.add_argument("--k", type=int, default=6)
    q.set_defaults(func=cmd_ed)

    q = sub.add_parser("reality-threshold", help="smallest U with an all-real spectrum")
    q.add_argument("--L", type=sites, required=True)
    q.add_argument("--tol", type=tolerance, default=lattice._REAL_TOL)
    q.add_argument("--bracket", default="2.5,3.45")
    q.add_argument("--heavy", action="store_true")
    q.set_defaults(func=cmd_reality_threshold)

    q = sub.add_parser("symmetry-check", help="spectral relations between H(U) and H(-U)")
    q.add_argument("--L", type=sites, required=True)
    q.add_argument("--U", type=coupling, required=True)
    q.set_defaults(func=cmd_symmetry_check)

    q = sub.add_parser("bethe-solve", help="real logarithmic-form solve")
    q.add_argument("--L", type=sites, required=True)
    q.add_argument("--n", type=int, default=0)
    q.add_argument("--U", type=coupling, required=True)
    q.add_argument("--Q", default=None, help="comma-separated branch numbers")
    q.set_defaults(func=cmd_bethe_solve)

    q = sub.add_parser("roots", help="root pattern with two-string classification")
    q.add_argument("--L", type=sites, required=True)
    q.add_argument("--U", type=coupling, required=True)
    q.add_argument("--n", type=int, default=0)
    q.add_argument("--mode", choices=["auto", "log", "continue"], default="auto")
    q.add_argument("--u-start", dest="u_start", type=coupling, default=5.0)
    q.set_defaults(func=cmd_roots)

    q = sub.add_parser("thermo", help="bulk ground-state energy from the density equation")
    q.add_argument("--U", type=coupling, required=True)
    q.add_argument("--N", type=int, default=2048)
    q.add_argument("--k0", type=grid_start, default=-np.pi)
    q.set_defaults(func=cmd_thermo)

    q = sub.add_parser("gap", help="mass gap with back-flow verification")
    q.add_argument("--U", type=coupling, required=True)
    q.add_argument("--N", type=int, default=1024)
    q.add_argument("--k0", type=grid_start, default=-np.pi)
    q.set_defaults(func=cmd_gap)

    q = sub.add_parser("density-profile", help="CSV of the root density sigma(k)")
    q.add_argument("--U", type=coupling, required=True)
    q.add_argument("--N", type=int, default=2048)
    q.add_argument("--k0", type=grid_start, default=-np.pi)
    q.set_defaults(func=cmd_density_profile)

    q = sub.add_parser("table", help="reproduce benchmark table k with deviations")
    q.add_argument("k", type=int)
    q.add_argument("--heavy", action="store_true", help="include the long rows")
    q.set_defaults(func=cmd_table)

    q = sub.add_parser("fit-threshold", help="U(L) = U_inf + a/L^2 least-squares fit")
    q.add_argument("--data", default=None, help="pairs L:U, comma separated")
    q.add_argument("--compute", action="store_true", help="compute thresholds first")
    q.add_argument("--Ls", default="4,5,6",
                   help="lengths for --compute, at most 8 (L = 9: reality-threshold --heavy)")
    q.set_defaults(func=cmd_fit_threshold)

    q = sub.add_parser("aba-verify", help="eigenvector-construction consistency checks")
    q.add_argument("--L", type=sites, default=4)
    q.add_argument("--U", type=coupling, default=5.0)
    q.add_argument("--m", type=int, default=2)
    q.add_argument("--seed", type=int, default=11)
    q.set_defaults(func=cmd_aba_verify)

    for q in sub.choices.values():
        q.add_argument("--out", default=None, help="output file (stdout if omitted)")
    return p


# neither the destination nor the consent to a long run is a numerical parameter:
# identical parameters must produce identical bytes wherever they are written
_NOT_PARAMS = ("command", "func", "out", "heavy")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.func(args)
    except _PRECONDITION_ERRORS as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except Genus5Error as exc:
        last = ""
        if isinstance(exc, NoConvergence) and exc.residual is not None:
            last = f" (last residual {exc.residual:.3g})"
        print(f"numerical failure: {exc}{last}", file=sys.stderr)
        return 1
    if isinstance(result, tuple):
        header, rows = result
        lines = [",".join(header)] + [",".join(_fmt(c) for c in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
        # "fmt" and "out" never vary; they stay so that embedded configs keep their bytes
        config = {"command": args.command, "fmt": "json", "out": None, "params": params}
        payload = {**result, "config": json.dumps(config, sort_keys=True)}
        text = json.dumps(_json_ready(payload), sort_keys=True, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
