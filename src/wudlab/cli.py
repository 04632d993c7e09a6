"""The ``wudlab`` command line.

Subcommands: density, sieve, chars, tuples, dist, scenario. Exit codes:
0 success, 2 invalid config, 3 guard exceeded, 4 internal consistency
failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import itertools
import json
import math
import sys
from pathlib import Path

from wudlab.density import alpha, xi_max_roots
from wudlab.errors import ConsistencyError, GuardExceededError, InvalidConfigError
from wudlab.lab import FILTERS, SCENARIOS, export_report, run_distribution, run_scenario
from wudlab.poly import parse_poly
from wudlab.sieve import DEFAULT_SEGMENT, RULES, ConvenientParams, MultiplicativeSpec, \
    sieve_range
from wudlab.characters import build_character_table, curve_point_count, z_chi
from wudlab.tuples import count_v_double, hypothesis_a_ratio, \
    additive_tuple_counts

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_CONSISTENCY = 4
CLI_RULES = tuple(r for r in RULES if r != "custom-table")  # no option can give a table


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wudlab",
                                description="weak-uniform-distribution lab")
    p.add_argument("--config", type=Path, help="INI config, one section per scenario")
    p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    sub = p.add_subparsers(dest="command")

    d = sub.add_parser("density", help="alpha(q), local nu, xi(q)")
    d.add_argument("--poly", required=True)
    d.add_argument("--q", type=int, required=True)
    d.add_argument("--x", type=float, default=None,
                   help="also report the coprime-value prime sum up to x")

    s = sub.add_parser("sieve", help="per-n record dump over a range")
    s.add_argument("--poly", required=True)
    s.add_argument("--rule", default="euler-like", choices=CLI_RULES)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--x", type=int, required=True)
    s.add_argument("--delta", type=float, default=1.0)
    s.add_argument("--J", type=int, default=None)
    s.add_argument("--segment-size", type=int, default=DEFAULT_SEGMENT)
    s.add_argument("--dump", type=Path, help="CSV of per-n records")

    c = sub.add_parser("chars", help="character sums Z_chi mod ell^e")
    c.add_argument("--poly", required=True)
    c.add_argument("--ell", type=int, required=True)
    c.add_argument("--e", type=int, default=1)
    c.add_argument("--all-chars", action="store_true")
    c.add_argument("--t", type=int, default=None, help="single character index")
    c.add_argument("--curve", type=int, default=None,
                   help="also count points of F(x)F(y)=w for this unit w")

    t = sub.add_parser("tuples", help="V', V'' and the mixing ratio")
    t.add_argument("--poly", required=True)
    t.add_argument("--q", type=int, required=True)
    t.add_argument("--J", type=int, required=True)
    t.add_argument("--w", default="all")
    t.add_argument("--method", default="auto",
                   choices=("brute", "char", "linear", "cross-check", "auto"))
    t.add_argument("--additive", action="store_true")

    di = sub.add_parser("dist", help="full distribution run")
    di.add_argument("--poly", required=True)
    di.add_argument("--rule", default="euler-like", choices=CLI_RULES)
    di.add_argument("--q", type=int, required=True)
    di.add_argument("--x", type=int, required=True)
    di.add_argument("--delta", type=float, default=1.0)
    di.add_argument("--J", type=int, default=None)
    di.add_argument("--filter", default="none", choices=FILTERS)

    sc = sub.add_parser("scenario", help="named experiment scenarios")
    sc.add_argument("name", choices=SCENARIOS)
    sc.add_argument("--x", type=int, default=10**6)
    sc.add_argument("--q", type=int, default=4)
    sc.add_argument("--q1", type=int, default=5)
    sc.add_argument("--D", type=int, default=2)
    sc.add_argument("--poly", default="phi")
    sc.add_argument("--rule", default="euler-like", choices=CLI_RULES)
    return p


def _emit(obj, args) -> None:
    if args.format == "json":
        print(json.dumps(obj, indent=2, sort_keys=True, default=str))
    else:
        if isinstance(obj, dict):
            obj = [obj]
        keys = {k for r in obj for k in r}
        from wudlab.lab import CSV_COLUMNS
        fields = list(CSV_COLUMNS) if keys <= set(CSV_COLUMNS) else sorted(keys)
        writer = csv.DictWriter(sys.stdout, fieldnames=fields)
        writer.writeheader()
        writer.writerows(obj)


def _cmd_density(args) -> None:
    F = parse_poly(args.poly).require_separable()
    prof = alpha(F, args.q)
    xi = xi_max_roots(F, args.q)
    record = {
        "q": args.q,
        "alpha": f"{prof.alpha.numerator}/{prof.alpha.denominator}",
        "alpha_float": float(prof.alpha),
        "locals": [
            {"ell": ld.ell, "e": ld.e, "nu": ld.nu, "nu_lifted": ld.nu_lifted,
             "alpha_local": f"{ld.alpha_local.numerator}/{ld.alpha_local.denominator}",
             "admissible": ld.admissible}
            for ld in prof.locals
        ],
        "xi": xi.xi,
        "xi_witness": xi.witness_class,
        "flags": {
            "alpha_zero": prof.alpha == 0,
            "squarefree_bound_ok": xi.squarefree_bound_ok,
            "konyagin_ratio": xi.konyagin_ratio,
        },
    }
    if args.x is not None:
        from wudlab.density import coprime_value_prime_sum
        rep = coprime_value_prime_sum(F, args.q, args.x)
        record["prime_sum"] = {"sum": rep.sum, "prediction": rep.prediction,
                               "residual": rep.residual}
    _emit(record, args)


def _cmd_sieve(args) -> None:
    spec = MultiplicativeSpec(F=parse_poly(args.poly), rule=args.rule)
    params = ConvenientParams.from_x(args.x, delta=args.delta, J=args.J)
    rows = sieve_range(spec, 1, args.x, args.q, params,
                       segment_size=args.segment_size)
    if args.dump:
        first = next(rows)  # one row per n in [1, x], streamed to the file
        with open(args.dump, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(first))
            writer.writeheader()
            writer.writerow(first)
            writer.writerows(rows)
        print(f"wrote {args.x} records to {args.dump}")
    else:
        _emit(list(itertools.islice(rows, 50)), args)


def _cmd_chars(args) -> None:
    F = parse_poly(args.poly).require_separable()
    table = build_character_table(args.ell, args.e)
    ts = range(table.phi) if args.all_chars else [args.t if args.t is not None else 1]
    rows = []
    for t in ts:
        rep = z_chi(F, table, t)
        rows.append({"t": rep.t, "conductor": rep.conductor,
                     "Z_re": rep.value.real, "Z_im": rep.value.imag,
                     "abs": rep.abs, "bound": rep.bound,
                     "ok": rep.within_bound})
    out = {"ell": args.ell, "e": args.e, "characters": rows}
    if args.curve is not None:
        crep = curve_point_count(F, args.ell, args.curve)
        out["curve"] = {"w": crep.w, "count": crep.count,
                        "bound": crep.hasse_weil_bound,
                        "within_bound": crep.within_bound}
    _emit(out if args.format == "json" else rows, args)


def _cmd_tuples(args) -> None:
    F = parse_poly(args.poly)
    q = args.q
    if args.additive:
        ws = range(q) if args.w == "all" else [int(args.w)]
        rows = []
        for w in ws:
            rep = additive_tuple_counts(q, args.J, w)
            rows.append({"w": w, "v_sum": rep.v_sum, "v_alt": rep.v_alt,
                         "formula": rep.formula, "parity_factor": rep.parity_factor,
                         "predicted": rep.predicted})
        _emit(rows, args)
        return
    F.require_separable()
    method = {"char": "character", "cross-check": "auto"}.get(args.method, args.method)
    if args.method == "cross-check":
        ws = [w for w in range(1, q) if math.gcd(w, q) == 1] \
            if args.w == "all" else [int(args.w)]
        rows = []
        for w in ws:
            vb = count_v_double(F, q, args.J, w, method="brute")
            vc = count_v_double(F, q, args.J, w, method="character")
            row = {"w": w, "brute": vb, "character": vc, "agree": vb == vc}
            if F.degree == 1:
                vl = count_v_double(F, q, args.J, w, method="linear")
                row["linear"] = vl
                row["agree"] = row["agree"] and vl == vb
            if not row["agree"]:
                raise ConsistencyError(f"method disagreement at w={w}: {row}")
            rows.append(row)
        _emit(rows, args)
        return
    rep = hypothesis_a_ratio(F, q, args.J, method=method,
                             w_panel=None if args.w == "all" else [int(args.w)])
    rows = [{"w": r.w, "v_double": r.v_double, "ratio": r.ratio,
             "bound": rep.r_bound} for r in rep.rows]
    _emit(rows, args)


def _cmd_dist(args) -> None:
    spec = MultiplicativeSpec(F=parse_poly(args.poly), rule=args.rule)
    rep = run_distribution(spec, args.q, args.x, delta=args.delta, J=args.J,
                           filter_name=args.filter)
    if args.format == "json":
        _emit(rep.to_json_dict(), args)
    else:
        _emit(rep.rows(), args)


# configparser lowercases option names, so the key D arrives as d
_CONFIG_KEYS = {"scenario", "polynomial", "rule", "x", "q", "q1", "d"}
_INT_KEYS = {"x", "q", "q1", "d"}
_PARAM_NAMES = {"polynomial": "poly", "d": "D"}  # INI key -> scenario parameter


def _run_config(path: Path, args) -> None:
    """Each INI section describes one scenario run; unknown keys are errors,
    and every given key reaches the scenario, which rejects one it does not
    take."""
    cp = configparser.ConfigParser()
    if not path.exists():
        raise InvalidConfigError(f"config file {path} not found")
    cp.read(path)
    reports = []
    for section in cp.sections():
        kv = dict(cp[section])
        unknown = set(kv) - _CONFIG_KEYS
        if unknown:
            raise InvalidConfigError(
                f"unknown config keys in [{section}]: {sorted(unknown)}"
            )
        name = kv.pop("scenario", section)
        if kv.get("rule", "euler-like") not in CLI_RULES:
            raise InvalidConfigError(f"[{section}] rule {kv['rule']!r} not in {CLI_RULES}")
        for key in _INT_KEYS & set(kv):
            try:
                kv[key] = int(kv[key])
            except ValueError:
                raise InvalidConfigError(f"[{section}] {_PARAM_NAMES.get(key, key)} = "
                                         f"{kv[key]!r} is not an integer") from None
        reports.append(run_scenario(name, **{_PARAM_NAMES.get(key, key): val
                                             for key, val in kv.items()}))
    fmt = args.format
    out = args.out / f"wudlab-report.{fmt}"
    args.out.mkdir(parents=True, exist_ok=True)
    export_report(reports, fmt, out)
    print(f"wrote {out}")


def _cmd_scenario(args) -> None:
    params: dict = {"x": args.x}
    if args.name == "counterexample-i":
        params["D"] = args.D
    elif args.name == "counterexample-ii":
        params.update(D=args.D, q1=args.q1)
    elif args.name == "additive":
        params["q"] = args.q
    else:
        params.update(q=args.q, poly=args.poly, rule=args.rule)
    rep = run_scenario(args.name, **params)
    _emit(rep.to_json_dict() if args.format == "json" else
          [row for r in rep.reports for row in r.rows()], args)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            _run_config(args.config, args)
        elif args.command == "density":
            _cmd_density(args)
        elif args.command == "sieve":
            _cmd_sieve(args)
        elif args.command == "chars":
            _cmd_chars(args)
        elif args.command == "tuples":
            _cmd_tuples(args)
        elif args.command == "dist":
            _cmd_dist(args)
        elif args.command == "scenario":
            _cmd_scenario(args)
        else:
            parser.print_help()
            return EXIT_CONFIG
    except InvalidConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardExceededError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
