"""Command-line front end.

Subcommands: ``check`` one law, ``audit`` the whole registry, ``search`` for
a minimal counterexample across small universes, ``eval`` a formula under a
valuation, ``valid`` a formula over all valuations, ``consequence`` between
premises and a conclusion, and ``probe`` the open-ended modularity and
deduction-theorem questions.  Run with no arguments to print the registry
audit of a small built-in demonstration universe.

Exit codes: 0 when the command completed (a law that fails its audit is a
completed outcome), 1 for usage or input errors, 2 when an exhaustive sweep
would exceed the case budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .errors import (
    BudgetExceededError,
    FormulaSyntaxError,
    UniverseError,
    ValuationError,
)
from .formulas import atoms_of, generate_formulas, parse_formula, render
from .lattice import OpMode
from .semantics import (
    check_implication_conditions,
    deduction_theorem_probe,
    eval_formula,
    is_valid,
    load_valuation,
    semantic_consequence,
    syntactic_consequence,
)
from .universe import Universe, build_universe, load_universe
from .verifier import (
    AuditTable,
    CheckStrategy,
    EXHAUSTIVE,
    LawReport,
    audit,
    check_law,
    iter_universes,
    law_by_name,
    law_modes,
    law_registry,
    mode_name,
    search_counterexample,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit with status 2
        raise _UsageError(message)


def _demo_universe() -> Universe:
    return build_universe(
        [("x1", "m"), ("x2", "m"), ("y", "M")], [["x1", "x2"], ["y"]]
    )


def _modes(value: str) -> list[OpMode]:
    if value == "both":
        return [OpMode.LITERAL, OpMode.CLOSURE]
    return [OpMode(value)]


def _strategy(args) -> CheckStrategy:
    if args.samples is not None:
        if args.exhaustive:
            raise _UsageError("--exhaustive and --samples are mutually exclusive")
        return CheckStrategy.sampled(args.samples, args.seed)
    return EXHAUSTIVE


def _add_common(parser: argparse.ArgumentParser, *, universe: bool = True) -> None:
    if universe:
        parser.add_argument("--universe", required=True, help="universe file (JSON)")
    parser.add_argument(
        "--mode", choices=["literal", "closure", "both"], default="both"
    )
    parser.add_argument("--exhaustive", action="store_true", help="full enumeration (default)")
    parser.add_argument("--samples", type=int, default=None, help="sampled strategy size")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampling")
    parser.add_argument("--format", choices=["table", "json"], default="table")


def _cell(counterexample) -> str:
    if counterexample is None:
        return ""
    return " ".join(
        f"{name}={{{','.join(ids)}}}" for name, ids in counterexample.items()
    )


def _print_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers))
    print(line.rstrip())
    print("  ".join("-" * width for width in widths))
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())


def _emit_reports(reports: Sequence[LawReport], fmt: str) -> None:
    table = AuditTable(tuple(reports))
    if fmt == "json":
        print(json.dumps(table.to_dict(), indent=2, sort_keys=True))
        return
    rows = [
        [
            report.law,
            report.mode,
            report.status,
            str(report.cases_checked),
            _cell(report.counterexample),
        ]
        for report in reports
    ]
    _print_table(["law", "mode", "status", "cases", "counterexample"], rows)


def _emit_doc(doc: dict, fmt: str, headers, rows) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _print_table(headers, rows)


def _read_gamma(path) -> list:
    formulas = []
    try:
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    formulas.append(parse_formula(text))
                except FormulaSyntaxError as exc:
                    raise _UsageError(f"{path}:{number}: {exc}") from None
    except OSError as exc:
        raise _UsageError(f"cannot read premise file {path}: {exc.strerror}") from None
    return formulas


def _open_universe(path) -> Universe:
    try:
        return load_universe(path)
    except OSError as exc:
        raise _UsageError(f"cannot read universe file {path}: {exc.strerror}") from None
    except UniverseError as exc:
        raise _UsageError(f"universe file {path}: {exc}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="ilattice", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command")

    check = commands.add_parser("check", help="check one law (or all) on a universe")
    _add_common(check)
    check.add_argument("--law", required=True, help="law name, or 'all'")

    audit_cmd = commands.add_parser("audit", help="run the whole law registry")
    _add_common(audit_cmd)

    search = commands.add_parser("search", help="hunt a counterexample across universes")
    _add_common(search, universe=False)
    search.add_argument("--law", required=True)
    search.add_argument("--max-atoms", type=int, default=4)

    eval_cmd = commands.add_parser("eval", help="evaluate a formula under a valuation")
    _add_common(eval_cmd)
    eval_cmd.add_argument("--formula", required=True)
    eval_cmd.add_argument("--valuation", required=True, help="valuation file (JSON)")

    valid = commands.add_parser("valid", help="check validity over all valuations")
    _add_common(valid)
    valid.add_argument("--formula", required=True)
    valid.add_argument(
        "--valuations", choices=["closed", "all"], default="closed",
        help="valuation domain per atom (default: closed qsets)",
    )

    consequence = commands.add_parser("consequence", help="premises entail a conclusion?")
    _add_common(consequence)
    consequence.add_argument("--gamma", required=True, help="premise file, one formula per line")
    consequence.add_argument("--formula", required=True, help="the conclusion")
    consequence.add_argument(
        "--relation", choices=["semantic", "cn-syntactic"], default="semantic"
    )
    consequence.add_argument("--depth", type=int, default=2, help="formula-universe bound (cn-syntactic)")
    consequence.add_argument("--valuations", choices=["closed", "all"], default="closed")

    probe = commands.add_parser("probe", help="run an open-question probe")
    probe.add_argument("which", choices=["modularity", "deduction", "implication"])
    probe.add_argument("--universe", help="universe file (deduction/implication)")
    probe.add_argument("--max-atoms", type=int, default=4, help="modularity: largest carrier")
    probe.add_argument("--depth", type=int, default=2, help="deduction: formula-universe bound")
    probe.add_argument("--mode", choices=["literal", "closure", "both"], default="both")
    probe.add_argument("--valuations", choices=["closed", "all"], default="closed")
    probe.add_argument("--format", choices=["table", "json"], default="table")
    probe.add_argument("--exhaustive", action="store_true")
    probe.add_argument("--samples", type=int, default=None)
    probe.add_argument("--seed", type=int, default=0)

    return parser


def _run_check(args) -> int:
    universe = _open_universe(args.universe)
    strategy = _strategy(args)
    modes = _modes(args.mode)
    if args.law == "all":
        laws = law_registry()
    else:
        try:
            laws = (law_by_name(args.law),)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    reports = [
        check_law(universe, law, mode, strategy) for law in laws for mode in law_modes(law, modes)
    ]
    reports.sort(key=lambda report: (report.law, report.mode))
    _emit_reports(reports, args.format)
    return 0


def _run_audit(args) -> int:
    universe = _open_universe(args.universe)
    table = audit(universe, _modes(args.mode), _strategy(args))
    _emit_reports(table.rows, args.format)
    return 0


def _run_search(args) -> int:
    try:
        law = law_by_name(args.law)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    results = []
    for mode in law_modes(law, _modes(args.mode)):
        found = search_counterexample(law, mode, args.max_atoms)
        if found is None:
            results.append(
                {"law": law.name, "mode": mode_name(mode), "found": False,
                 "universe_digest": None, "counterexample": None}
            )
        else:
            universe, witness = found
            results.append(
                {
                    "law": law.name,
                    "mode": mode_name(mode),
                    "found": True,
                    "universe_digest": universe.digest,
                    "counterexample": {name: list(q.members) for name, q in witness.items()},
                }
            )
    rows = [
        [
            entry["law"],
            entry["mode"],
            "found" if entry["found"] else "none",
            entry["universe_digest"] or "",
            _cell(entry["counterexample"]),
        ]
        for entry in results
    ]
    _emit_doc(
        {"schema": 1, "command": "search", "max_atoms": args.max_atoms, "results": results},
        args.format,
        ["law", "mode", "outcome", "universe", "counterexample"],
        rows,
    )
    return 0


def _parse_formula_arg(text: str):
    try:
        return parse_formula(text)
    except FormulaSyntaxError as exc:
        raise _UsageError(f"formula {text!r}: {exc}") from None


def _run_eval(args) -> int:
    universe = _open_universe(args.universe)
    formula = _parse_formula_arg(args.formula)
    try:
        valuation = load_valuation(args.valuation, universe)
    except OSError as exc:
        raise _UsageError(f"cannot read valuation file {args.valuation}: {exc.strerror}") from None
    except (ValuationError, UniverseError) as exc:
        raise _UsageError(f"valuation file {args.valuation}: {exc}") from None
    results = []
    for mode in _modes(args.mode):
        value = eval_formula(formula, valuation, mode)
        results.append(
            {"mode": str(mode), "value": list(value.members), "is_true": value == universe.full}
        )
    rows = [[r["mode"], "{" + ",".join(r["value"]) + "}", str(r["is_true"]).lower()] for r in results]
    _emit_doc(
        {"schema": 1, "command": "eval", "formula": render(formula), "results": results},
        args.format,
        ["mode", "value", "true"],
        rows,
    )
    return 0


def _run_valid(args) -> int:
    universe = _open_universe(args.universe)
    formula = _parse_formula_arg(args.formula)
    closed = args.valuations == "closed"
    results = []
    for mode in _modes(args.mode):
        report = is_valid(universe, formula, _strategy(args), mode, closed_valuations=closed)
        results.append(report.to_dict())
    rows = [
        [r["mode"], r["domain"], "valid" if r["valid"] else "invalid",
         str(r["valuations_checked"]), _cell(r["witness"])]
        for r in results
    ]
    _emit_doc(
        {"schema": 1, "command": "valid", "formula": render(formula), "results": results},
        args.format,
        ["mode", "domain", "verdict", "valuations", "witness"],
        rows,
    )
    return 0


def _run_consequence(args) -> int:
    universe = _open_universe(args.universe)
    gamma = _read_gamma(args.gamma)
    alpha = _parse_formula_arg(args.formula)
    closed = args.valuations == "closed"
    strategy = _strategy(args)
    results = []
    for mode in _modes(args.mode):
        if args.relation == "semantic":
            report = semantic_consequence(
                universe, gamma, alpha, strategy, mode, closed_valuations=closed
            )
        else:
            names = set()
            for formula in list(gamma) + [alpha]:
                names.update(atoms_of(formula))
            f0 = generate_formulas(sorted(names) or ["a"], args.depth)
            missing = [f for f in list(gamma) + [alpha] if f not in f0]
            if missing:
                raise _UsageError(
                    f"formula {render(missing[0])!r} is outside the depth-{args.depth} formula universe"
                )
            report = syntactic_consequence(
                universe, gamma, alpha, f0, strategy, mode, closed_valuations=closed
            )
        results.append(dict(report.to_dict(), mode=str(mode), domain=args.valuations))
    rows = [
        [r["mode"], r["relation"], "entailed" if r["verdict"] else "not-entailed",
         str(r["valuations_checked"]), _cell(r.get("witness"))]
        for r in results
    ]
    _emit_doc(
        {"schema": 1, "command": "consequence", "results": results},
        args.format,
        ["mode", "relation", "verdict", "valuations", "witness"],
        rows,
    )
    return 0


def _run_probe(args) -> int:
    strategy = _strategy(args)
    closed = args.valuations == "closed"
    if args.which == "modularity":
        law = law_by_name("modularity-probe")
        modes = law_modes(law, _modes(args.mode))
        reports = [
            check_law(universe, law, mode, strategy)
            for universe in iter_universes(args.max_atoms)
            for mode in modes
        ]
        _emit_reports(reports, args.format)
        return 0
    if not args.universe:
        raise _UsageError(f"probe {args.which} needs --universe")
    universe = _open_universe(args.universe)
    if args.which == "implication":
        results = []
        for mode in _modes(args.mode):
            for report in check_implication_conditions(
                universe, strategy, mode, closed_valuations=closed
            ):
                results.append(report.to_dict())
        rows = [
            [r["condition"], r["mode"], r["domain"],
             "holds" if r["holds"] else "fails", str(r["valuations_checked"]), _cell(r["witness"])]
            for r in results
        ]
        _emit_doc(
            {"schema": 1, "command": "probe-implication", "results": results},
            args.format,
            ["condition", "mode", "domain", "status", "valuations", "witness"],
            rows,
        )
        return 0
    f0 = generate_formulas(["a", "b"], args.depth)
    results = []
    for mode in _modes(args.mode):
        report = deduction_theorem_probe(
            universe, f0, strategy, mode, closed_valuations=closed
        )
        results.append(report.to_dict())
    rows = [
        [r["mode"], r["domain"],
         "witness-found" if r["found"] else "none-found",
         "" if r["gamma"] is None else "; ".join(r["gamma"]),
         r["alpha"] or "", r["beta"] or "", str(r["triples_checked"])]
        for r in results
    ]
    _emit_doc(
        {"schema": 1, "command": "probe-deduction", "results": results},
        args.format,
        ["mode", "domain", "outcome", "gamma", "alpha", "beta", "triples"],
        rows,
    )
    return 0


_RUNNERS = {
    "check": _run_check,
    "audit": _run_audit,
    "search": _run_search,
    "eval": _run_eval,
    "valid": _run_valid,
    "consequence": _run_consequence,
    "probe": _run_probe,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if not argv:
            universe = _demo_universe()
            print(f"registry audit of the built-in universe {universe.digest}")
            print()
            _emit_reports(audit(universe).rows, "table")
            return 0
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required (check, audit, search, eval, valid, consequence, probe)")
        return _RUNNERS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (UniverseError, ValuationError, FormulaSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
