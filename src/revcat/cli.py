"""Batch command-line entry point.

Subcommands: laws, fix, trace, run, invert, roundtrip.  Exit codes:
0 pass, 1 law or round-trip violation, 2 input/config error, 3
non-convergence, 4 internal error (an unexpected exception, reported as
one ``error: internal:`` line on stderr instead of a traceback).  With
--format json, one self-describing document is printed per invocation;
repeated runs with the same configuration and seed produce
byte-identical output (wall-clock times are omitted).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from functools import reduce
from random import Random
from time import perf_counter
from typing import Callable, Iterator

from .cat.laws import SUITES as CORE_SUITES
from .cat.laws import LawConfig, law_suite
from .cat.objects import FinObject, read_nat
from .cat.ops import CATEGORIES, DSTOCH, PINJ, REL, HomSpace
from .cat.serialize import loads_morphism, read_json
from .errors import NonConvergence, RevcatError
from .functionals.expr import loads_functional
from .functionals.fixpoints import (
    check_conj_preservation,
    check_fixed_point_adjoint,
    check_pfix_adjoint,
    check_pfix_identity,
    fix_functional,
    random_endo_functional,
    random_param_functional,
)
from .functionals.functors import DisjointUnionWith
from .functionals.naturality import (
    check_naturality,
    check_self_conjugate,
    identity_family,
    join_family,
    projection_family,
)
from .functionals.trace import check_dagger_trace, trace, trace_family
from .order import FixPolicy
from .record import frozen
from .report import LawReport
from .revlang.denote import VALUE_BOUND, random_nat_list, random_peano_pair, roundtrip_check
from .revlang.interp import STUCK, UNDEFINED, Evaluator, closed_ref
from .revlang.invert import SUFFIX, invert_program
from .revlang.parser import parse_callref_text, parse_program, parse_value
from .revlang.syntax import show_program, show_term
from .revlang.validate import require_valid

# The value generator of each ``roundtrip --values`` choice; None draws trees.
VALUES = {"tree": None, "peano": random_peano_pair, "list": random_nat_list}


class ConfigError(RevcatError):
    pass


def _timed_summary(report: LawReport, seconds: float) -> str:
    """A report's text line with the wall time of the run that made it."""
    return f"{report.summary()} [{seconds * 1000:.1f} ms]"


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


# -- laws -------------------------------------------------------------------


def _sizes_from(args) -> tuple[int, ...]:
    if args.sizes is not None:
        try:
            sizes = tuple(int(s) for s in args.sizes.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --sizes value {args.sizes!r}") from exc
        if len(set(sizes)) != len(sizes):
            raise ConfigError(f"--sizes {args.sizes!r} repeats a size")
        return tuple(read_nat(s, "--sizes") for s in sizes)
    return tuple(range(read_nat(args.max_size, "--max-size") + 1))


@frozen
class Suite:
    """A law suite: where it applies, where it samples at random (so needs
    --seed), and a runner yielding its partial reports."""

    name: str
    categories: tuple[str, ...]
    randomized: tuple[str, ...]
    run: Callable[[str, LawConfig], Iterator[LawReport]]


def _core(name: str) -> Suite:
    def run(category: str, config: LawConfig):
        yield law_suite(category, name, config)

    return Suite(name, CATEGORIES, (DSTOCH,), run)


def _fix_adjoint(category: str, config: LawConfig):
    rng = Random(config.seed)
    for _ in range(config.trials):
        x = FinObject(rng.randrange(1, 4))
        y = FinObject(rng.randrange(1, 4))
        phi = random_endo_functional(HomSpace(category, x, y), rng, depth=config.depth)
        yield check_fixed_point_adjoint(phi)


def _random_params(category: str, config: LawConfig):
    """One seeded random parametrized functional on Hom(2, 2) per trial."""
    rng = Random(config.seed)
    space = HomSpace(category, FinObject(2), FinObject(2))
    for _ in range(config.trials):
        yield random_param_functional(space, space, rng, depth=config.depth)


def _naturality(category: str, config: LawConfig):
    families = [projection_family(category)]
    if category == REL:
        families.append(join_family(category))
        families.append(join_family(category, DisjointUnionWith(FinObject(1))))
    one, two = FinObject(1), FinObject(2)
    for family in families:
        yield check_naturality(family, two, one, one, two, fuel=config.fuel)


def _self_conjugate(category: str, config: LawConfig):
    x, y = FinObject(2), FinObject(1)
    for family in (identity_family(category), trace_family(category, FinObject(1))):
        yield check_self_conjugate(family, x, y)


def _dagger_trace(category: str, config: LawConfig):
    shapes = [(1, 1, 0), (1, 1, 1)] + ([(1, 1, 2)] if category == PINJ else [])
    for xs, ys, us in shapes:
        yield check_dagger_trace(category, xs, ys, us)


# Every suite, in the default order of ``laws`` (``config.suites`` in JSON).
# Runners call checkers by module-level name when they run, never through a
# reference taken at import, so a wrapper put on that name (as the
# benchmark's tracer does) sees every call.
FINITE = (REL, PINJ)
REGISTRY: dict[str, Suite] = {
    suite.name: suite
    for suite in [
        *(_core(name) for name in CORE_SUITES),
        Suite("fix-adjoint", FINITE, FINITE, _fix_adjoint),
        Suite("pfix-adjoint", FINITE, FINITE,
              lambda c, cfg: map(check_pfix_adjoint, _random_params(c, cfg))),
        Suite("conj-preservation", FINITE, FINITE,
              lambda c, cfg: map(check_conj_preservation, _random_params(c, cfg))),
        Suite("pfix-identity", FINITE, FINITE,
              lambda c, cfg: map(check_pfix_identity, _random_params(c, cfg))),
        Suite("naturality", FINITE, (), _naturality),
        Suite("self-conjugate", FINITE, (), _self_conjugate),
        Suite("dagger-trace", FINITE, (), _dagger_trace),
    ]
}


def _suites_from(args) -> list[Suite]:
    names = args.suite or [n for n, s in REGISTRY.items() if args.category in s.categories]
    for i, name in enumerate(names):
        if name not in REGISTRY:
            raise ConfigError(f"unknown suite {name!r}")
        if args.category not in REGISTRY[name].categories:
            raise ConfigError(f"suite {name!r} is not available for {args.category}")
        if name in names[:i]:
            raise ConfigError(f"suite {name!r} is requested twice")
    return [REGISTRY[name] for name in names]


def cmd_laws(args) -> int:
    suites = _suites_from(args)
    if args.seed is None and any(args.category in s.randomized for s in suites):
        raise ConfigError("randomized suites require --seed")
    if not (args.tolerance > 0 and math.isfinite(args.tolerance)):
        raise ConfigError("--tolerance must be positive and finite")
    if args.trials < 0:
        raise ConfigError("--trials must not be negative")
    if args.trials == 0 and any(args.category in s.randomized for s in suites):
        raise ConfigError("--trials 0 would check nothing in a randomized suite")
    if args.fuel <= 0:
        raise ConfigError("--fuel must be positive")
    if args.depth < 0:
        raise ConfigError("--depth must not be negative")

    sizes = _sizes_from(args)
    if args.category == DSTOCH and not any(s > 0 for s in sizes):
        raise ConfigError("dstoch needs a positive object size in --sizes or --max-size")
    config = LawConfig(
        sizes=sizes,
        trials=args.trials,
        seed=args.seed,
        tolerance=args.tolerance,
        fuel=args.fuel,
        depth=args.depth,
    )
    reports, lines = [], []
    for suite in suites:
        start = perf_counter()
        report = reduce(LawReport.merge, suite.run(args.category, config), LawReport(suite.name))
        lines.append(_timed_summary(report, perf_counter() - start))
        reports.append(report)

    suite_docs = {}
    for r in reports:
        entry = r.to_doc()
        entry.pop("suite")
        suite_docs[r.suite] = entry
    doc = {
        "command": "laws",
        "config": {
            "category": args.category,
            "suites": [suite.name for suite in suites],
            "sizes": list(sizes),
            "trials": args.trials,
            "seed": args.seed,
            "tolerance": args.tolerance,
            "fuel": args.fuel,
            "depth": args.depth,
        },
        "suites": suite_docs,
    }
    for r in reports:
        for v in r.violations[:20]:
            lines.append(f"  {r.suite}/{v.law}: {v.witness}")
    _emit(args, doc, lines)
    return 0 if all(r.passed for r in reports) else 1


# -- fix ---------------------------------------------------------------------


def _read_text(path: str) -> str:
    """The contents of an input file, which must be UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc


def cmd_fix(args) -> int:
    phi = loads_functional(_read_text(args.file))
    result = fix_functional(phi, FixPolicy(args.max_iterations, args.tolerance))
    doc = {
        "command": "fix",
        "config": {
            "file": args.file,
            "max_iterations": args.max_iterations,
            "tolerance": args.tolerance,
        },
        "fixed_point": result.value.to_doc(),
        "iterations": result.iterations,
        "residual": result.residual,
    }
    lines = [
        f"fixed point: {json.dumps(result.value.to_doc(), sort_keys=True)}",
        f"iterations: {result.iterations}"
        + (f" residual: {result.residual:.3g}" if result.residual is not None else ""),
    ]
    _emit(args, doc, lines)
    return 0


# -- trace --------------------------------------------------------------------


def cmd_trace(args) -> int:
    f = loads_morphism(_read_text(args.file))
    x, y, u = (FinObject(read_nat(getattr(args, k), f"--{k}")) for k in "xyu")
    traced = trace(f, x, y, u)
    doc = {
        "command": "trace",
        "config": {"file": args.file, "x": args.x, "y": args.y, "u": args.u},
        "trace": traced.to_doc(),
    }
    _emit(args, doc, [json.dumps(traced.to_doc(), sort_keys=True)])
    return 0


# -- language commands ---------------------------------------------------------


def _load_program(path: str):
    return require_valid(parse_program(_read_text(path)))


def _bindings_from(args) -> dict:
    bindings = {}
    for item in args.bind or []:
        if "=" not in item:
            raise ConfigError(f"--bind expects name=ref, got {item!r}")
        name, ref = item.split("=", 1)
        bindings[name.strip()] = parse_callref_text(ref.strip())
    return bindings


def cmd_run(args) -> int:
    if args.fuel <= 0:
        raise ConfigError("--fuel must be positive")
    program = _load_program(args.file)
    ref = closed_ref(program, parse_callref_text(args.fname), _bindings_from(args))
    result = Evaluator(program).call(ref, parse_value(args.arg), args.fuel)
    if result is UNDEFINED:
        outcome, shown = "undefined", "undefined (fuel exhausted)"
    elif result is STUCK:
        outcome, shown = "stuck", "stuck (no matching clause)"
    else:
        outcome, shown = "value", show_term(result)
    doc = {
        "command": "run",
        "config": {"file": args.file, "fname": args.fname, "arg": args.arg, "fuel": args.fuel,
                   "bind": args.bind or []},
        "outcome": outcome,
        "value": shown if outcome == "value" else None,
    }
    _emit(args, doc, [shown])
    return 0


def cmd_invert(args) -> int:
    program = _load_program(args.file)
    inverted = invert_program(program, args.suffix)
    source = show_program(inverted)
    doc = {"command": "invert", "config": {"file": args.file, "suffix": args.suffix}}
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(source)
        doc["output"] = args.output
        line = f"wrote {args.output}"
    else:
        doc["program"] = source
        line = source.rstrip("\n")
    _emit(args, doc, [line])
    return 0


def cmd_roundtrip(args) -> int:
    if args.seed is None:
        raise ConfigError("roundtrip requires --seed")
    if args.trials <= 0:
        raise ConfigError("--trials must be positive")
    if args.fuel <= 0:
        raise ConfigError("--fuel must be positive")
    # Unset unless given on the command line or in --config.
    if args.value_bound is not None and args.values != "tree":
        raise ConfigError(f"--value-bound bounds tree values only, not {args.values} values")
    value_bound = VALUE_BOUND if args.value_bound is None else args.value_bound
    if value_bound < 1:
        raise ConfigError("--value-bound must be at least 1")
    program = _load_program(args.file)
    bindings = _bindings_from(args)
    start = perf_counter()
    report = roundtrip_check(
        program,
        args.fname,
        bindings,
        trials=args.trials,
        fuel=args.fuel,
        seed=args.seed,
        value_gen=VALUES[args.values],
        value_bound=value_bound,
    )
    seconds = perf_counter() - start
    if not report.checked:
        raise ConfigError(
            f"all {args.trials} trials were skipped (no forward run gave a value), so nothing was checked"
        )
    doc = {
        "command": "roundtrip",
        "config": {
            "file": args.file,
            "fname": args.fname,
            "trials": args.trials,
            "fuel": args.fuel,
            "seed": args.seed,
            "values": args.values,
            "value_bound": value_bound,
        },
        "report": report.to_doc(),
    }
    lines = [_timed_summary(report, seconds)]
    for v in report.violations[:20]:
        lines.append(f"  {v.law}: {v.witness}")
    _emit(args, doc, lines)
    return 0 if report.passed else 1


# -- parser --------------------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(prog="revcat")
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = commands["laws"] = sub.add_parser("laws", help="run law suites")
    common(p)
    p.add_argument("--category", choices=CATEGORIES, required=True)
    p.add_argument("--suite", action="append", help="suite name (repeatable)")
    p.add_argument("--max-size", type=int, default=2)
    p.add_argument("--sizes", help="comma-separated exact object sizes")
    p.add_argument("--trials", type=int, default=LawConfig.trials)
    p.add_argument("--seed", type=int)
    p.add_argument("--tolerance", type=float, default=LawConfig.tolerance)
    p.add_argument("--fuel", type=int, default=LawConfig.fuel)
    p.add_argument("--depth", type=int, default=LawConfig.depth)
    p.set_defaults(fn=cmd_laws)

    p = commands["fix"] = sub.add_parser("fix", help="least fixed point of a functional document")
    common(p)
    p.add_argument("file")
    p.add_argument("--max-iterations", type=int, default=FixPolicy.max_iterations)
    p.add_argument("--tolerance", type=float, default=FixPolicy.tolerance)
    p.set_defaults(fn=cmd_fix)

    p = commands["trace"] = sub.add_parser("trace", help="trace out the feedback block of a morphism")
    common(p)
    p.add_argument("file")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.set_defaults(fn=cmd_trace)

    p = commands["run"] = sub.add_parser("run", help="evaluate a function on a value")
    common(p)
    p.add_argument("file")
    p.add_argument("fname", help="function reference, e.g. add, map<inc>, add~")
    p.add_argument("--arg", required=True, help="value literal")
    p.add_argument("--fuel", type=int, default=10_000)
    p.add_argument("--bind", action="append", help="parameter binding name=ref")
    p.set_defaults(fn=cmd_run)

    p = commands["invert"] = sub.add_parser("invert", help="emit the inverted program")
    common(p)
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--suffix", default=SUFFIX)
    p.set_defaults(fn=cmd_invert)

    p = commands["roundtrip"] = sub.add_parser("roundtrip", help="forward/backward recovery check")
    common(p)
    p.add_argument("file")
    p.add_argument("fname")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--fuel", type=int, default=10_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--bind", action="append")
    p.add_argument("--values", choices=VALUES, default="tree")
    p.add_argument("--value-bound", type=int, help=f"size bound of tree values (default {VALUE_BOUND})")
    p.set_defaults(fn=cmd_roundtrip)

    return parser, commands


def _config_defaults(command: argparse.ArgumentParser, defaults) -> dict:
    """The config file's option values, each converted and checked by its
    option's own ``type`` and ``choices``, as the flag would be."""
    if not isinstance(defaults, dict):
        raise ConfigError("expected a JSON object")
    actions = {a.dest: a for a in command._actions if a.option_strings and a.dest != "help"}
    unknown = sorted(set(defaults) - actions.keys())
    if unknown:
        raise ConfigError(", ".join(f"unknown key {k!r}" for k in unknown))
    converted = {}
    for key, value in defaults.items():
        action = actions[key]
        repeatable = isinstance(action, argparse._AppendAction)
        items = value if repeatable and isinstance(value, list) else [value]
        for item in items:
            if isinstance(item, bool) or not isinstance(item, (str, int, float)):
                raise ConfigError(f"argument {action.option_strings[-1]}: "
                                  f"expected a string or a number, got {json.dumps(item)}")
        try:
            values = [command._get_value(action, str(item)) for item in items]
            for v in values:
                command._check_value(action, v)
        except argparse.ArgumentError as exc:
            raise ConfigError(str(exc)) from exc
        converted[key] = values if repeatable else values[0]
    return converted


def _refuse_empty_values(actions, args) -> None:
    """argparse reads ``--name=--`` as an empty list, past the option's type
    and choices; refuse it as the missing value it is."""
    for action in actions:
        value = getattr(args, action.dest, None)
        if action.option_strings and isinstance(value, list) and (not value or [] in value):
            raise ConfigError(f"argument {'/'.join(action.option_strings)}: expected one argument")


def main(argv=None) -> int:
    parser, commands = build_parser()
    # An option the config file sets is not required; the file is read first.
    required = [a for command in commands.values() for a in command._actions if a.required and a.option_strings]
    for action in required:
        action.required = False
    args, _ = parser.parse_known_args(argv)
    defaults, repeated = {}, {}
    if args.config:
        try:
            defaults = read_json(_read_text(args.config))
        except (OSError, RevcatError) as exc:
            print(f"error: bad config file: {exc}", file=sys.stderr)
            return 2
        command = commands[args.command]
        try:
            defaults = _config_defaults(command, defaults)
        except ConfigError as exc:
            print(f"error: bad config file for {args.command}: {exc}", file=sys.stderr)
            return 2
        # A repeatable option's flags replace the file's list, not extend it.
        repeated = {key: v for key, v in defaults.items() if isinstance(v, list)}
        command.set_defaults(**{key: v for key, v in defaults.items() if key not in repeated})
    for action in required:
        action.required = action.dest not in defaults
    args = parser.parse_args(argv)
    try:
        _refuse_empty_values([*parser._actions, *commands[args.command]._actions], args)
        for key, values in repeated.items():
            if getattr(args, key) is None:
                setattr(args, key, values)
        return args.fn(args)
    except NonConvergence as exc:
        print(f"error: non-convergence: {exc}", file=sys.stderr)
        return 3
    except (RevcatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        detail = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
