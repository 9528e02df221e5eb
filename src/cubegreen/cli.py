"""Command-line interface.

Every run emits a JSON report, one line written by the C encoder of the
`json` module (pretty-print it with `python -m json.tool`), whose
"config" block echoes the fully resolved configuration (seed included),
so a report can be replayed; a family is echoed as the command-line
option that gave it, not member by member.  Matrices are written with
`ndarray.tolist()`, and floats with shortest round-trip precision
(lossless).  `--output csv` writes the result's numeric matrices instead,
and refuses a report that has none.
Wall-clock time lives only under the "timing" key, the last one (with
`replications_per_second` for `simulate` cov, tiedcov and nulldist); how
a number was computed (such as `eigen`'s power-iteration counts, 0 for a
product kernel, whose eigenvalue is a product of per-axis ones, and for a
principal family, the up-set of one subset, whose eigenvalue is a power
of a per-axis one times a rank-one secular root) under "diagnostics".
Exit codes: 0 ok, 2 validation error or a computation that did not
converge, 1 I/O error.
Every call is a fresh process, so `extremal` and `measures` are imported
only by the handlers that solve (`lambda`, `solve`, `efficiency`, `eigen`),
and reads its argv once: in one loop over the named command's option
table, derived from the command's parser when the parser is built, or,
for any form the table does not read (help, --version, abbreviations,
--opt=value, a value starting with "-", any error), with the full parser,
so help, usage lines, messages and exit codes are argparse's own.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache

import numpy as np

from . import __version__
from .families import (
    MonotoneFamily,
    _check_dim,
    _enumerated_coord_lists,
    _list_subsets,
    all_nonempty_family,
    echoed,
    empty_family,
    family_for_known_margins,
    family_from_json,
    format_subset,
    parse_coordinates,
    parse_subset,
)
from .kernel import check_unit_cube, compute_coefficients, green_kernel
from .quadrature import _node_count
from .montecarlo import (
    SimConfig,
    check_seed,
    interior_lattice,
    null_distribution,
    sample_gaussian_field,
    simulate_null_covariance,
    simulate_tied_down_covariance,
)
from . import rankstats


_SUBSET_HELP = "the known margins V as a subset: 1,2 or {1,2} or [1,2] (empty for none)"


def _family_json(text: str, m: int) -> MonotoneFamily:
    """The family of `--family`: its JSON, or @PATH, the file holding it."""
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read()
    return family_from_json(text, m)


# the mutually exclusive family options: (option, argparse keywords, builder(value, m))
_FAMILY_OPTIONS = (
    ("--family", {"help": "JSON array-of-arrays of 1-based coordinates, or @PATH of a "
                          "file holding it"}, _family_json),
    ("--family-known-margins-V", {"help": _SUBSET_HELP},
     lambda text, m: family_for_known_margins(parse_subset(text, m), m)),
    ("--family-all", {"action": "store_true", "help": "all nonempty subsets (pillow)"},
     lambda _, m: all_nonempty_family(m)),
    ("--family-empty", {"action": "store_true", "help": "empty family (sheet)"},
     lambda _, m: empty_family(m)),
)


def _add_family_args(p: argparse.ArgumentParser):
    """Add the required, mutually exclusive family options; returns their group."""
    g = p.add_mutually_exclusive_group(required=True)
    for option, kwargs, _ in _FAMILY_OPTIONS:
        g.add_argument(option, **kwargs)
    return g


def _check_option_dim(option: str, m: int) -> None:
    """`_check_dim(m)`, its ValueError naming the option that gave m."""
    try:
        _check_dim(m)
    except ValueError as exc:
        raise ValueError(f"{option}: {exc}") from None


def _read_option(option: str, read, text: str, m: int):
    """read(text, m), its ValueError or RecursionError (JSON nested too
    deep) a ValueError naming the option and its value, cut by `echoed`;
    m is checked first, so a bad dimension is not reported as the option's."""
    _check_dim(m)
    try:
        return read(text, m)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{option} {echoed(text)}: {exc}") from None


def _resolve_family(args) -> tuple[MonotoneFamily, list[str]]:
    """The family the options give, and the option as given, echoed in a
    report's config for replay."""
    for option, _, build in _FAMILY_OPTIONS:
        value = getattr(args, option[2:].replace("-", "_"))  # argparse's dest
        if value is True:
            return build(value, args.m), [option]
        if value is not None and value is not False:
            return _read_option(option, build, value, args.m), [option, value]


def _statistic_options(name: str, args, m: int) -> tuple[int, dict]:
    """The V the statistic reads (0, --V unparsed, if it reads none) and the
    options its `rankstats.REGISTRY` entry lists, in that order, as echoed."""
    options = rankstats.REGISTRY[name].options
    V = _read_option("--V", parse_subset, args.V or "", m) if "V" in options else 0
    given = {"V": format_subset(V), "p": args.p, "grid_n": args.grid_n}
    return V, {o: given[o] for o in options}


def _parse_point(text: str, m: int) -> np.ndarray:
    vals = parse_coordinates(text, float)
    if len(vals) != m:
        raise ValueError(f"expected {m} coordinates, got {len(vals)}")
    return check_unit_cube(np.asarray(vals))


def _is_matrix(val) -> bool:
    """A non-empty list of equally long, non-empty lists of numbers."""
    try:
        a = np.asarray(val)
    except ValueError:  # rows of different lengths
        return False
    return isinstance(val, list) and a.ndim == 2 and a.size > 0 and a.dtype.kind in "if"


def _emit(report: dict, args) -> None:
    """Write the report as one line of JSON, or its result's matrices as
    CSV, each under a `# key` line; for CSV, a report with no matrix is
    refused with ValueError before anything is written."""
    if args.output == "json":
        # a report is a tree the handler built (a shared sublist is no
        # cycle), so the encoder's circular-reference check is skipped
        text = json.dumps(report, allow_nan=False, check_circular=False) + "\n"
    else:
        lines = []
        for key, val in report["result"].items():
            if _is_matrix(val):
                lines.append(f"# {key}")
                lines.extend(",".join(f"{v:.17g}" for v in row) for row in val)
        if not lines:
            raise ValueError("--output csv writes numeric matrices, and this report has "
                             "none; use --output json")
        text = "\n".join(lines) + "\n"
    if args.out_file:
        with open(args.out_file, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_family(args) -> dict:
    if args.enumerate:
        fams = _enumerated_coord_lists(args.m)
        return {"config": {"m": args.m, "enumerate": True},
                "result": {"count": len(fams), "families": fams}}
    fam, _ = _resolve_family(args)
    return {"config": {"m": args.m},
            "result": {"family": fam.to_coord_lists(), "text": str(fam)}}


def _cmd_coeffs(args) -> dict:
    fam, flag = _resolve_family(args)
    coeffs = compute_coefficients(fam)
    return {"config": {"m": args.m, "family": flag},
            "result": {"a": dict(zip(_list_subsets(list(coeffs), args.m, texts=True),
                                     coeffs.values()))}}


def _cmd_green_eval(args) -> dict:
    fam, flag = _resolve_family(args)
    kern = green_kernel(fam)
    x = _read_option("--x", _parse_point, args.x, args.m)
    xi = _read_option("--xi", _parse_point, args.xi, args.m)
    return {"config": {"m": args.m, "family": flag,
                       "x": list(x), "xi": list(xi)},
            "result": {"value": kern.evaluate(x, xi)}}


def _cmd_solve(args) -> dict:
    """`solve`, and `lambda`: the same report without the omega samples."""
    from .extremal import solve
    from .measures import measure_from_json

    fam, flag = _resolve_family(args)
    measure = _read_option("--measure", measure_from_json, args.measure, args.m)
    points = [_read_option("--eval-at", _parse_point, text, args.m)
              for text in getattr(args, "eval_at", None) or []]
    sol = solve(fam, measure, args.method)
    result = {"lambda": sol.lam, "inverse_lambda": 1.0 / sol.lam}
    if args.command == "solve":
        result["omega"] = [{"x": x.tolist(), "omega": sol.omega(x)} for x in points]
    return {"config": {"m": args.m, "family": flag,
                       "measure": args.measure, "method": args.method},
            "result": result}


def _cmd_efficiency(args) -> dict:
    from .extremal import efficiency_coefficient
    from .measures import measure_from_json

    V = _read_option("--V", parse_subset, args.V, args.m)
    fam = family_for_known_margins(V, args.m)
    measure = _read_option("--measure", measure_from_json, args.measure, args.m)
    coeff = efficiency_coefficient(fam, measure)
    return {"config": {"m": args.m, "V": format_subset(V), "measure": args.measure},
            "result": {"efficiency_coefficient": coeff}}


def _cmd_eigen(args) -> dict:
    from .extremal import ConvergenceError, principal_eigenvalue

    fam, flag = _resolve_family(args)
    kern = green_kernel(fam)
    try:
        est = principal_eigenvalue(kern, args.grid_n)
    except ConvergenceError as exc:  # reported like a validation error, exit 2
        raise ValueError(str(exc)) from None
    return {"config": {"m": args.m, "family": flag,
                       "grid_n": args.grid_n},
            "result": {"value": est.value, "error": est.error,
                       "coarse": est.coarse, "fine": est.fine},
            "diagnostics": {"coarse_iterations": est.coarse_iterations,
                            "fine_iterations": est.fine_iterations}}


def _cmd_stat(args) -> dict:
    X = rankstats.load_csv(args.input, "--input")
    m = X.shape[1]
    _check_option_dim(f"--input {echoed(args.input)} ({m} columns)", m)
    if args.rank_pit:
        X = rankstats.to_copula_scale(X)
    V, options = _statistic_options(args.name, args, m)
    value = rankstats.statistic(args.name, X, V, args.p, args.grid_n)
    config = {"name": args.name, "input": args.input, "n": int(X.shape[0]), "m": int(m),
              **options, "rank_pit": bool(args.rank_pit)}
    return {"config": config,
            "result": {"name": args.name, "n": int(X.shape[0]), "m": int(m),
                       "value": float(value)}}


def _cmd_simulate(args) -> dict:
    _check_option_dim("--m", args.m)
    check_seed(args.seed, "--seed")
    if args.mode == "cov" and args.V is None:
        raise ValueError('--mode cov needs --V, the known margins (--V "" for none)')
    if args.grid_n is not None:
        _node_count(args.grid_n, "--grid-n")
    if args.mode == "nulldist":  # grid_n is the statistic's, None for its default
        V, options = _statistic_options(args.stat, args, args.m)
    else:  # the interior lattice's, 4 by default; the known margins of cov and field
        grid_n = 4 if args.grid_n is None else args.grid_n
        V = (None if args.V is None or args.mode == "tiedcov"
             else _read_option("--V", parse_subset, args.V, args.m))
    V_text = format_subset(V) if V is not None else None
    if args.mode == "field":
        _, points = interior_lattice(args.m, grid_n)
        fam = all_nonempty_family(args.m) if V is None \
            else family_for_known_margins(V, args.m)
        draws = sample_gaussian_field(green_kernel(fam), points, args.count, args.seed)
        return {"config": {"mode": args.mode, "m": args.m, "seed": args.seed,
                           "grid_n": grid_n, "V": V_text, "count": args.count},
                "result": {"draws": draws.tolist()}}
    cfg = SimConfig(seed=args.seed, n=args.n, replications=args.R, m=args.m, threads=args.threads)
    config = {"mode": args.mode, "m": args.m, "n": args.n, "R": args.R, "seed": args.seed}
    t0 = time.perf_counter()
    if args.mode in ("cov", "tiedcov"):
        config.update(grid_n=grid_n, threads=args.threads)
        if args.mode == "cov":
            config["V"] = V_text
        rep = (simulate_null_covariance(cfg, V, grid_n) if args.mode == "cov"
               else simulate_tied_down_covariance(cfg, grid_n))
        result = {"empirical": rep.empirical.tolist(),
                  "theoretical": rep.theoretical.tolist(),
                  "max_abs_dev": rep.max_abs_dev,
                  "max_dev_in_se": rep.max_dev_in_se}
    else:  # nulldist
        config.update(threads=args.threads, stat=args.stat, **options,
                      scale_sqrt_n=args.scale_sqrt_n)
        dist = null_distribution(cfg, args.stat, args.p, args.grid_n, args.scale_sqrt_n, V=V)
        result = {"mean": dist.mean, "variance": dist.variance,
                  "variance_se": dist.variance_se,
                  "quantiles": {str(k): v for k, v in dist.quantiles.items()}}
    rate = args.R / (time.perf_counter() - t0)
    return {"config": config, "result": result,
            "timing": {"replications_per_second": rate}}


def _build() -> tuple[argparse.ArgumentParser, dict[str, tuple | None]]:
    """The CLI parser, and the option table of each of its command parsers
    by name (`_option_table`)."""
    p = argparse.ArgumentParser(prog="cubegreen")
    p.add_argument("--version", action="version", version=f"cubegreen {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, m=True):
        if m:
            sp.add_argument("--m", type=int, default=2)
        sp.add_argument("--output", choices=("json", "csv"), default="json")
        sp.add_argument("--out-file")
        return sp

    sp = common(sub.add_parser("family", help="build or enumerate monotone families"))
    _add_family_args(sp).add_argument("--enumerate", action="store_true")
    sp.set_defaults(handler=_cmd_family)

    for name, handler in (("coeffs", _cmd_coeffs), ("green-eval", _cmd_green_eval),
                          ("eigen", _cmd_eigen)):
        sp = common(sub.add_parser(name))
        _add_family_args(sp)
        if name == "green-eval":
            sp.add_argument("--x", required=True)
            sp.add_argument("--xi", required=True)
        if name == "eigen":
            sp.add_argument("--grid-n", type=int, default=48)
        sp.set_defaults(handler=handler)

    for name in ("lambda", "solve"):
        sp = common(sub.add_parser(name))
        _add_family_args(sp)
        sp.add_argument("--measure", default="lebesgue")
        sp.add_argument("--method", choices=("auto", "closed", "quadrature"),
                        default="auto")
        if name == "solve":
            sp.add_argument("--eval-at", action="append",
                            help="comma-separated point; repeatable")
        sp.set_defaults(handler=_cmd_solve)

    sp = common(sub.add_parser("efficiency"))
    sp.add_argument("--V", default="", help=_SUBSET_HELP)
    sp.add_argument("--measure", default="lebesgue")
    sp.set_defaults(handler=_cmd_efficiency)

    sp = common(sub.add_parser("stat"), m=False)  # m comes from the data
    sp.add_argument("--name", required=True,
                    choices=rankstats.STATISTICS)
    sp.add_argument("--input", required=True)
    sp.add_argument("--V", default="", help=_SUBSET_HELP)
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--grid-n", type=int)
    sp.add_argument("--rank-pit", action="store_true")
    sp.set_defaults(handler=_cmd_stat)

    sp = common(sub.add_parser("simulate"))
    sp.add_argument("--mode", required=True,
                    choices=("cov", "tiedcov", "field", "nulldist"))
    sp.add_argument("--V", help=_SUBSET_HELP)
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--R", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--grid-n", type=int,
                    help="interior grid points per axis (default 4); with nulldist, "
                         "the midpoints per axis of B and Bhat at p >= 2")
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--count", type=int, default=100, help="field draws")
    sp.add_argument("--stat", default="Bhat",
                    choices=rankstats.STATISTICS)
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--scale-sqrt-n", action="store_true")
    sp.set_defaults(handler=_cmd_simulate)

    return p, {name: _option_table(sp) for name, sp in sub.choices.items()}


def build_parser() -> argparse.ArgumentParser:
    return _build()[0]


@cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, tuple | None]]:
    """The parser `main` uses and its option tables, built on the first
    call: parsing leaves no state in them, and building them costs far
    more than a parse."""
    return _build()


# the action kinds the option table reads
_TABLE_KINDS = {argparse._StoreAction: "store", argparse._StoreTrueAction: "flag",
                argparse._AppendAction: "append"}


def _option_table(parser: argparse.ArgumentParser) -> tuple | None:
    """A command parser's grammar as `_read_table` reads it: each option
    string's action and kind, the namespace defaults (a typed option's str
    default converted, as argparse converts it, and `set_defaults` last),
    each grouped action's mutually exclusive group, the required actions
    and the required groups.  None when the parser holds any action but
    help, store of one value, store_true and append with no default."""
    actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
    if any(type(a) not in _TABLE_KINDS or a.nargs not in (None, 0)
           or type(a) is argparse._AppendAction and a.default is not None for a in actions):
        return None
    defaults = {a.dest: a.type(a.default) if isinstance(a.default, str) and a.type else a.default
                for a in actions}
    defaults.update(parser._defaults)
    return ({s: (a, _TABLE_KINDS[type(a)]) for a in actions for s in a.option_strings},
            defaults,
            {a: g for g in parser._mutually_exclusive_groups for a in g._group_actions},
            {a for a in actions if a.required},
            [g for g in parser._mutually_exclusive_groups if g.required])


def _read_table(table: tuple, argv: list[str]) -> argparse.Namespace | None:
    """The namespace `build_parser().parse_args(argv)` gives, argv[0]
    naming the command whose option table this is; None where argparse
    may judge argv otherwise: a token that is not an exact option string
    of the command (-h, --version, --, --opt=value, an abbreviation, a
    stray value), an option missing its value or given one that starts
    with "-" (a negative number, a lone -), a value its type refuses or
    outside its choices, two members of one exclusive group, a required
    option or group left out."""
    options, defaults, group_of, required, required_groups = table
    values = {"command": argv[0], **defaults}
    seen, chosen = set(), {}  # the actions given; each group's given member
    i, n = 1, len(argv)
    while i < n:
        action, kind = options.get(argv[i], (None, None))
        if action is None:
            return None
        if kind == "flag":
            value = action.const
        else:
            i += 1
            if i == n or argv[i].startswith("-"):
                return None
            try:
                value = argv[i] if action.type is None else action.type(argv[i])
                if action.choices is not None and value not in action.choices:
                    return None
            except Exception:  # argparse judges the value, and reports it
                return None
        seen.add(action)
        # argparse counts a given value that is the default as absent from its group
        group = group_of.get(action)
        if (group is not None and (kind == "flag" or value is not action.default)
                and chosen.setdefault(group, action) is not action):
            return None
        if kind == "append":
            value = [*(values[action.dest] or ()), value]
        values[action.dest] = value
        i += 1
    if not required <= seen or any(g not in chosen for g in required_groups):
        return None
    return argparse.Namespace(**values)


def _parse_args(argv) -> argparse.Namespace:
    """The namespace `build_parser().parse_args(argv)` gives, each token
    read once.

    An argv whose first token names a command is read in one loop over
    that command's option table (`_read_table`), which accepts only the
    plain forms whose namespace provably matches argparse's.  Every other
    argv, and any the table defers, goes to the full parser, whose help,
    usage line, message and exit code the user then sees."""
    parser, tables = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    table = tables.get(argv[0]) if argv else None
    args = _read_table(table, argv) if table is not None else None
    return parser.parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse_args(argv)
    t0 = time.perf_counter()
    try:
        report = args.handler(args)
        # timing, with any rate the handler measured, goes last
        report["timing"] = {"seconds": time.perf_counter() - t0, **report.pop("timing", {})}
        _emit(report, args)
    except (ValueError, RecursionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io-error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
