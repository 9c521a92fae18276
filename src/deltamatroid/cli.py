"""Command-line front end.

Subcommands: check, count, construct, encode, decode, roundtrip, bound.
Exit codes: 0 success/pass, 1 property violation, 2 usage, format or I/O
error, 3 resource limit.  Output is deterministic for a fixed invocation.
``count`` is one call to levels.count_report, which refuses levels past 6
before any work and reads and writes the level caches only under
--cache-dir, when it is given.  A file there is used only if it is byte for
byte the file the package writes for that level; any other is rebuilt.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import constructions, encoding, levels, setsystem

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class UsageError(Exception):
    """A command-line value outside its allowed range."""


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        setsystem.atomic_write_bytes(out_path, text.encode("utf-8"))


def _report(args: argparse.Namespace, doc: dict, lines: list[str]) -> None:
    if args.format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        text = "".join(line + "\n" for line in lines)
    _emit(text, getattr(args, "out", None))


def _check_limits(args: argparse.Namespace) -> None:
    """Refuse out-of-range ground-set sizes before any work."""
    high = setsystem.MAX_GROUND_SIZE
    for name in ("max_n", "n"):
        value = getattr(args, name, None)
        if value is not None and not 1 <= value <= high:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} must be in 1..{high}, got {value}")


# --- subcommand implementations -----------------------------------------------

def cmd_check(args: argparse.Namespace) -> int:
    system = setsystem.load_system(args.path)
    lines = [f"system: n={system.n}, feasible sets: {system.num_feasible}"]
    doc: dict[str, object] = {"n": system.n, "num_feasible": system.num_feasible}
    if not system.is_proper:
        lines.append("verdict: not a delta-matroid (no feasible sets)")
        doc.update({"delta_matroid": False, "reason": "improper"})
        verdict = False
    else:
        witness = setsystem.check_symmetric_exchange(system)
        verdict = witness is None
        if verdict:
            lines.append("verdict: delta-matroid")
        else:
            x = sorted(setsystem.elements_of(witness.x))
            y = sorted(setsystem.elements_of(witness.y))
            lines.append(
                "verdict: not a delta-matroid "
                f"(witness: X={x}, Y={y}, e={witness.e} admits no exchange)"
            )
            doc["witness"] = {"x": witness.x, "y": witness.y, "e": witness.e}
        even = setsystem.is_even(system)
        lines.append(f"parity: {'uniform' if even else 'mixed'}-parity sizes")
        doc.update({"delta_matroid": verdict, "even": even})
    _report(args, doc, lines)
    return EXIT_PASS if verdict else EXIT_VIOLATION


def cmd_count(args: argparse.Namespace) -> int:
    reports = levels.count_report(args.max_n, args.cache_dir, args.with_even)
    doc = {
        "levels": [
            {"n": r.n, "d": r.d, "gamma": r.gamma}
            | ({"e": r.e} if r.e is not None else {})
            for r in reports
        ]
    }
    width = max([12] + [len(str(r.d)) for r in reports])
    header = f"{'n':>2}  {'d_n':>{width}}  {'gamma':>10}"
    if args.with_even:
        header += f"  {'e_n':>8}"
    lines = [header]
    for r in reports:
        row = f"{r.n:>2}  {r.d:>{width}}  {r.gamma:>10.6f}"
        if args.with_even:
            row += f"  {r.e if r.e is not None else '-':>8}"
        lines.append(row)
    _report(args, doc, lines)
    return EXIT_PASS


def cmd_construct(args: argparse.Namespace) -> int:
    if args.kind == "gs-stable":
        masks = list(constructions.graham_sloane_stable_set(args.n, args.r).feasible_masks())
        doc = {"n": args.n, "r": args.r, "masks": masks}
        _report(args, doc, [str(m) for m in masks])
        return EXIT_PASS
    if args.kind == "stable-complement":
        vertex_set = constructions.random_stable_set(args.n, args.seed)
        system = constructions.complement_delta_matroid(vertex_set)
    elif args.kind == "cut-sample":
        system = constructions.sample_cut_construction(args.n, args.cut, args.seed)
    else:  # stacked-even; argparse restricts the choices
        layers = constructions.random_stacked_layers(args.n, args.seed)
        system = constructions.stacked_even_delta_matroid(args.n, layers)
    _emit(setsystem.dumps_system(system), args.out)
    return EXIT_PASS


def cmd_encode(args: argparse.Namespace) -> int:
    system = setsystem.load_system(args.in_path)
    record = encoding.encode_even_system(system)
    _emit(encoding.dumps_record(record), args.out)
    return EXIT_PASS


def cmd_decode(args: argparse.Namespace) -> int:
    record = encoding.load_record(args.in_path)
    infeasible = encoding.decode_even_system(record)
    doc = {
        "n": record.n,
        "parity": record.parity.value,
        "infeasible_even": list(infeasible),
    }
    _report(args, doc, [str(m) for m in infeasible])
    return EXIT_PASS


def cmd_roundtrip(args: argparse.Namespace) -> int:
    system = setsystem.load_system(args.in_path)
    record = encoding.encode_even_system(system)
    restored = encoding.reconstruct_system(encoding.loads_record(encoding.dumps_record(record)))
    ok = restored == system
    s_bound = encoding.s_length_bound(record.n)
    a_bound = record.alpha * (1 << (record.n - 1))
    lines = [
        f"selection size: {len(record.s)} (bound {s_bound})",
        f"residual size: {len(record.residual)} (residue bound {a_bound})",
        f"round trip: {'exact' if ok else 'MISMATCH'}",
    ]
    doc = {
        "s_size": len(record.s),
        "s_bound": s_bound,
        "residual_size": len(record.residual),
        "residue_bound": str(a_bound),
        "roundtrip_exact": ok,
    }
    _report(args, doc, lines)
    return EXIT_PASS if ok else EXIT_VIOLATION


def cmd_bound(args: argparse.Namespace) -> int:
    report = encoding.upper_bound_report(args.n)
    doc = {
        "n": report.n,
        "alpha": str(report.alpha),
        "sigma": report.sigma,
        "sigma_prime": str(report.sigma_prime),
        "bell_bound": report.bell_bound,
        "log_e_n_bound": report.log_e_n_bound,
    }
    _report(args, doc, [f"{k}: {v}" for k, v in doc.items()])
    return EXIT_PASS


# --- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmtool",
        description="Delta-matroid counting, construction, and encoding toolkit.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--cache-dir", default=None, help="level cache directory")
    parser.add_argument("--verbose", action="store_true",
                        help="progress and peeling statistics on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test a set-system file for the exchange axiom")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("count", help="exact delta-matroid counts per level")
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--with-even", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("construct", help="emit a constructed system")
    p.add_argument("kind", choices=(
        "stable-complement", "cut-sample", "stacked-even", "gs-stable"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=2, help="rank for gs-stable")
    p.add_argument("--cut", type=int, default=1, help="cut element for cut-sample")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("encode", help="compress an even system to a record")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="expand a record to its infeasible sets")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("roundtrip", help="encode then decode, verify equality")
    p.add_argument("--in", dest="in_path", required=True)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("bound", help="even-count upper bound ingredients")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # --verbose: the package's INFO records (such as peeling statistics)
    # go to stderr for this call
    package_log = logging.getLogger("deltamatroid")
    level = package_log.level
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    if args.verbose:
        package_log.addHandler(handler)
        package_log.setLevel(logging.INFO)
    try:
        _check_limits(args)
        return args.func(args)
    except levels.ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (
        UsageError,
        setsystem.SystemFormatError,
        setsystem.ImproperSystemError,
        encoding.EncodingError,
        constructions.ConstructionError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        package_log.removeHandler(handler)
        package_log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
