"""Command-line entry point wiring all subcommands.

Exit codes: 0 = CERTIFIED / ok, 2 = INCONCLUSIVE (or NOT_CONVERGED /
FAIL / MISMATCH), 1 = usage or input error.
All machine-readable output carries "schema": "equibox/1" (equibox.SCHEMA).
"""

import argparse
import contextlib
import json
import os
import sys

# repdecomp, measures and solver are imported by the commands that use
# them (measures and solver pull in numpy), so that the other commands
# start fast
from equibox import SCHEMA, certifier, dickson
from equibox.gf2poly import PolyGF2

# criterion 2: min_dimension(2, l) = ceil(l/2) + 1, so l = 2k and 2k-1 share
# their d, and every m = 2 table carries this note
_M2_FOOTNOTE = ("even counts 2k reach the same minimal dimension as 2k-1, "
                "so the even case gives more boxes in the same space")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def _build_parser():
    p = _Parser(prog="equibox",
                description="Equipartitions of a mass in boxes: algebraic "
                            "certificates and numerical realization.")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dickson", parents=[], help="print a Dickson polynomial")
    d.add_argument("--m", type=int, required=True)
    d.add_argument("--json", action="store_true")

    c = sub.add_parser("certify", help="decide the (m, l, d) certificate")
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--l", type=int, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--json", action="store_true")

    md = sub.add_parser("min-d", help="least certified dimension for (m, l)")
    md.add_argument("--m", type=int, required=True)
    md.add_argument("--l", type=int, required=True)
    md.add_argument("--json", action="store_true")

    t = sub.add_parser("table", help="minimal dimension per hyperplane count")
    t.add_argument("--m", type=int, required=True)
    t.add_argument("--l-max", type=int, required=True, dest="l_max")
    t.add_argument("--format", choices=["markdown", "csv", "json"],
                   default="markdown")

    dec = sub.add_parser("decompose",
                         help="character decomposition of the box action")
    dec.add_argument("--m", type=int, required=True)
    dec.add_argument("--l", type=int, required=True)
    dec.add_argument("--json", action="store_true")

    g = sub.add_parser("gen-measure",
                       help="write a seeded Gaussian-mixture measure")
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--components", type=int, default=3)
    g.add_argument("--n", type=int, default=10000)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--grid-cells", type=int, default=None, dest="grid_cells",
                   help="emit a grid JSON with this many cells per axis "
                        "instead of a point-cloud CSV")

    s = sub.add_parser("solve", help="search for an equipartition")
    s.add_argument("--input", required=True)
    s.add_argument("--l", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--tol", type=float, default=1e-3)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--restarts", type=int, default=200)
    s.add_argument("--coarse-grid", type=int, default=0, dest="coarse_grid")
    s.add_argument("--maxfev", type=int, default=None,
                   help="test_map evaluations per restart")
    s.add_argument("--out", default=None, help="also write the report here")

    v = sub.add_parser("verify", help="recheck a configuration from scratch")
    v.add_argument("--input", required=True)
    v.add_argument("--config", required=True,
                   help="config JSON (bare or a solve report)")
    v.add_argument("--tol", type=float, required=True)
    return p


def _print_json(**fields):
    print(json.dumps(dict(fields, schema=SCHEMA), sort_keys=True))


def _cmd_dickson(args):
    poly = dickson.dickson_moore(args.m)
    if args.json:
        _print_json(m=args.m, polynomial=poly.to_text(), terms=len(poly),
                    degree=poly.total_degree())
    else:
        print(poly.to_text())
    return 0


def _cmd_certify(args):
    cert = certifier.certify(args.m, args.l, args.d)
    witness = PolyGF2.term_text(cert.witness) if cert.witness else None
    if args.json:
        _print_json(m=args.m, l=args.l, d=args.d, verdict=cert.verdict,
                    witness=witness, boxes=cert.problem.boxes, note=cert.note)
    else:
        print("%s  (m=%d, l=%d, d=%d: %d boxes)"
              % (cert.verdict, args.m, args.l, args.d, cert.problem.boxes))
        if witness:
            print("witness term: %s" % witness)
        if cert.note:
            print("note: %s" % cert.note)
    return 0 if cert.verdict == certifier.CERTIFIED else 2


def _cmd_min_d(args):
    d = certifier.min_dimension(args.m, args.l)
    if args.json:
        _print_json(m=args.m, l=args.l, d=d)
    else:
        print(d)
    return 0


def _cmd_table(args):
    rows = certifier.equipartition_table(args.m, args.l_max)
    footnote = _M2_FOOTNOTE if args.m == 2 else ""
    if args.format == "json":
        _print_json(m=args.m, rows=[{"l": l, "d": d} for l, d in rows],
                    footnote=footnote)
    elif args.format == "csv":
        print("l,d")
        for l, d in rows:
            print("%d,%d" % (l, d))
    else:
        print("| l | d |")
        print("|---|---|")
        for l, d in rows:
            print("| %d | %d |" % (l, d))
        if footnote:
            print()
            print("note: " + footnote)
    return 0


def _cmd_decompose(args):
    from equibox import repdecomp

    # GF(2)[x1..xm] factors uniquely, so the index polynomial equals the
    # criterion iff each form's multiplicity is its exponent there; the
    # expanded comparison lives in the tests and in perfbench
    spec = repdecomp.build_test_representation(args.m, args.l)
    table = repdecomp.character_multiplicities(spec)
    mult = table.multiplicities
    forms = {mask: k for mask, k in mult.items() if k}
    factors = certifier.criterion_factors(args.m, args.l)
    verdict = "MATCH" if forms == factors else "MISMATCH"
    # listed by the forms' bit strings read from x1 on: x2, x1, x1+x2
    order = sorted(mult, key=lambda mask: format(mask, "0%db" % args.m)[::-1])
    named = {repdecomp.character_name(mask): mult[mask] for mask in order}
    index = "*".join(
        ("(%s)" if "+" in name else "%s") % name + ("^%d" % k if k > 1 else "")
        for name, k in named.items() if k)
    if args.json:
        _print_json(m=args.m, l=args.l, multiplicities=named,
                    total_dim=table.total_dim, index_polynomial=index,
                    against_criterion=verdict)
    else:
        print("character multiplicities (dim %d):" % table.total_dim)
        for name, k in named.items():
            if k:
                print("  %-16s %d" % (name, k))
        print("index polynomial: %s" % index)
        print("%s against the closed-form criterion" % verdict)
    return 0 if verdict == "MATCH" else 2


def _cmd_gen_measure(args):
    from equibox import measures

    grid = args.grid_cells is not None
    size, check, generate, write = (
        (args.grid_cells, measures.check_grid_args,
         measures.gaussian_mixture_grid, measures.write_grid_json) if grid
        else (args.n, measures.check_cloud_args,
              measures.gaussian_mixture_cloud, measures.write_cloud_csv))
    # the generator's own refusals first, then the naming rule, by which
    # solve reads the file (measures.names_cloud), and only then the draw
    check(args.d, args.components, size, args.seed)
    if measures.names_cloud(args.out) == grid:
        kind, rule = (("grid JSON", "must not end") if grid
                      else ("point-cloud CSV", "must end"))
        raise ValueError("--out %r: the name of a %s %s in .csv"
                         % (args.out, kind, rule))
    write(args.out, generate(args.d, args.components, size, args.seed))
    print("wrote %s" % args.out)
    return 0


def _cmd_solve(args):
    from equibox import measures, solver

    measure = measures.load_measure(args.input)
    # opened before the solve, so that an unwritable --out costs no solve,
    # and for appending, so that a refused solve leaves an old file intact;
    # a file that this call created is removed when the solve is refused
    created = args.out is not None and not os.path.exists(args.out)
    with open(args.out, "a") if args.out else contextlib.nullcontext() as fh:
        try:
            report = solver.solve_equipartition(
                measure, args.l, args.m, tol=args.tol,
                max_restarts=args.restarts, seed=args.seed,
                coarse_grid=args.coarse_grid, maxfev=args.maxfev)
        except BaseException:
            if created:
                fh.close()
                os.remove(args.out)
            raise
        text = report.to_json()
        # the file first: a closed stdout raises in print
        if fh:
            fh.truncate(0)
            fh.write(text)
        print(text)
    return 0 if report.status == solver.CONVERGED else 2


def _cmd_verify(args):
    from equibox import measures, solver

    measure = measures.load_measure(args.input)
    with open(args.config) as fh:
        obj = json.load(fh)
    if isinstance(obj, dict) and isinstance(obj.get("config"), dict):
        obj = obj["config"]  # a solve report was passed
    config = measures.Configuration.from_dict(obj)
    report = solver.verify_configuration(measure, config, args.tol)
    print(report.to_json())
    print("PASS" if report.passed else "FAIL", file=sys.stderr)
    return 0 if report.passed else 2


_COMMANDS = {
    "dickson": _cmd_dickson,
    "certify": _cmd_certify,
    "min-d": _cmd_min_d,
    "table": _cmd_table,
    "decompose": _cmd_decompose,
    "gen-measure": _cmd_gen_measure,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
}


def dispatch(argv=None):
    """Route argv to a subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader left (say `| head`): exit 1 without a message, and point
        # stdout at devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
