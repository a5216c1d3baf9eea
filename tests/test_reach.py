"""``src/`` holds what a command runs.

One subprocess installs a profile hook before ``import revcat.cli``, so that
import-time work counts, and runs a fixed list of small ``cli.main``
invocations: every command, ``laws`` on each category, refusals (exit 2)
and a fixed point that does not converge (exit 3).
Every function and method defined at the top of a module or class under
``src/revcat`` that no invocation reaches must be named in ``UNREACHED``,
with the reason it is kept.  A function is named by the module that defines
it, so the methods ``record.frozen`` builds for each value class are one
closure each, named in ``revcat.record``.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

from bundled import ADD, MAP

SRC = Path(__file__).resolve().parents[1] / "src"

UNREACHED = {
    "revcat.functionals.expr.apply_functional": "a node applied from outside, checked; bench/tracer.py wraps it",
    "revcat.functionals.param.apply_param": "a parametrized node applied from outside, checked; bench/tracer.py wraps it",
    "revcat.functionals.fixpoints.pfix_functional": "the checked parametrized fixed point of the library",
    "revcat.revlang.syntax.match": "bench/tracer.py wraps it; tests/oracles.py runs it",
    "revcat.revlang.syntax.instantiate": "bench/tracer.py wraps it; tests/oracles.py runs it",
    "revcat.revlang.invert.invert_binding": "bench/tracer.py wraps it; the tests name a binding's inverse in the renamed program with it",
    "revcat.revlang.denote.denote": "programs as partial injections, acceptance criterion 8",
    "revcat.revlang.denote.enumerate_values": "the universe denote evaluates on",
    "revcat.cat.dstoch.StochMorphism.homs": "the typed refusal of the protocol: dstoch hom-sets are not listed",
    "revcat.cat.dstoch.StochMorphism.block_sum": "the typed refusal of the protocol: dstoch has no block sums",
    # What a law violation's witness prints; on correct code no command finds one.
    "revcat.cat.objects.FinObject.__repr__": "a witness's object, as FinObject(2)",
    "revcat.functionals.functors.IdentityFunctor.__repr__": "a naturality witness's functor",
    "revcat.functionals.functors.DisjointUnionWith.__repr__": "a naturality witness's functor",
    "revcat.revlang.interp._Undefined.__repr__": "a roundtrip witness's outcome",
    "revcat.revlang.interp._Stuck.__repr__": "a roundtrip witness's outcome",
    "revcat.revlang.syntax.Term.__repr__": "a roundtrip witness's value",
    "revcat.revlang.syntax._repr_layout": "the layout Term.__repr__ prints with",
    "revcat.revlang.syntax.CallRef.__repr__": "a reference as a debugger and the tests show it",
    "revcat.record.frozen.<locals>.__repr__": "a value as a witness, a debugger and the tests show it",
    "revcat.record.frozen.<locals>.__eq__": "equality of values no command compares; the morphisms write theirs, objects are interned",
    "revcat.record.refuse": "the refusal of an assignment to, or deletion of, a field of a frozen value",
    "revcat.report.LawReport.__eq__": "reports compare by value in the tests: merges and reruns",
    "revcat.revlang.syntax.Program.__eq__": "programs compare by value in the tests: double inversion",
    # No command copies or pickles a value; the tests do, for every value class.
    "revcat.record.reduce_fields": "a frozen or interned value copied or pickled, rebuilt by its constructor",
    "revcat.revlang.interp._Undefined.__reduce__": "the sentinel copied or pickled: itself",
    "revcat.revlang.interp._Stuck.__reduce__": "the sentinel copied or pickled: itself",
}

HOOK = r"""
import contextlib, importlib, inspect, io, json, pkgutil, sys
from pathlib import Path

src = Path(sys.argv[1]).resolve()
seen = set()

def hook(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)

sys.setprofile(hook)
import revcat.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [revcat.cli.main(argv) for argv in json.loads(sys.argv[2])]
sys.setprofile(None)

import revcat
for info in pkgutil.walk_packages(revcat.__path__, "revcat."):
    importlib.import_module(info.name)

def ours(fn):
    code = getattr(inspect.unwrap(fn), "__code__", None)
    return code if code is not None and src in Path(code.co_filename).resolve().parents else None

defined = {}
for name, module in list(sys.modules.items()):
    if not (name == "revcat" or name.startswith("revcat.")):
        continue
    for value in vars(module).values():
        if getattr(value, "__module__", None) != name:
            continue
        members = [value]
        if inspect.isclass(value):
            members = []
            for member in vars(value).values():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if isinstance(member, property):
                    members += [member.fget, member.fset, member.fdel]
                else:
                    members.append(member)
        for member in members:
            code = ours(member) if callable(member) else None
            if code is not None:
                member = inspect.unwrap(member)
                defined[code] = f"{member.__module__}.{member.__qualname__}"
print(json.dumps({"codes": codes, "unreached": sorted(n for c, n in defined.items() if c not in seen)}))
"""


def _invocations(tmp: Path) -> list[list[str]]:
    rel = {"type": "rel", "src": 3, "dst": 3, "pairs": [[0, 1], [1, 2], [2, 1]]}
    pinj = {"type": "pinj", "src": 3, "dst": 3, "map": {"0": 1, "1": 2, "2": 0}}
    stoch = {"type": "dstoch", "n": 2, "rows": [[0.5, 0], [0, 0.5]]}
    one = {"cat": "dstoch", "src": 1, "dst": 1}
    rel1 = {"cat": "rel", "src": 1, "dst": 1}
    files = {
        "add.rvl": ADD,
        "map.rvl": MAP,
        "bad.rvl": "fun f x = (",
        "invalid.rvl": "fun f Z = Z\nfun f (S x) = let y = f x in Z\n",
        "rel.json": json.dumps(rel),
        "pinj.json": json.dumps(pinj),
        "stoch.json": json.dumps(stoch),
        "closure.json": json.dumps({"op": "joinwith", "m": rel, "inner": {"op": "postcompose", "m": rel}}),
        "every-node.json": json.dumps({"op": "seq", "first": {"op": "joinof",
            "left": {"op": "dagger", "dom": rel1}, "right": {"op": "const", "m": {
                "type": "rel", "src": 1, "dst": 1, "pairs": []}}},
            "second": {"op": "precompose", "m": {"type": "rel", "src": 1, "dst": 1, "pairs": [[0, 0]]}}}),
        "not-endo.json": json.dumps({"op": "precompose", "m": {"type": "rel", "src": 1, "dst": 2, "pairs": []}}),
        "affine.json": json.dumps({"op": "host", "name": "affine", "n": 1, "scale": 0.5, "shift": 0.25}),
        "slow.json": json.dumps({"op": "host", "name": "affine", "n": 1, "scale": 0.5, "shift": 0.25}),
        "joinof.json": json.dumps({"op": "joinof", "left": {"op": "identity", "dom": one},
                                   "right": {"op": "identity", "dom": one}}),
        "config.json": json.dumps({"fuel": 50, "bind": ["g=inc"]}),
        "bad.json": "{",
    }
    for name, text in files.items():
        (tmp / name).write_text(text)
    path = {name: str(tmp / name) for name in files}
    laws = [
        ["laws", "--category", category, "--max-size", "1", "--trials", "4", "--seed", "1",
         "--format", "json"]
        for category in ("rel", "pinj", "dstoch")
    ]
    return laws + [
        ["laws", "--category", "rel", "--suite", "nope"],
        ["fix", path["closure.json"]],
        ["fix", path["every-node.json"], "--format", "json"],
        ["fix", path["affine.json"]],
        ["fix", path["slow.json"], "--max-iterations", "2"],
        ["fix", path["joinof.json"]],
        ["fix", path["bad.json"]],
        ["fix", path["not-endo.json"]],
        ["trace", path["pinj.json"], "--x", "1", "--y", "1", "--u", "2"],
        ["trace", path["rel.json"], "--x", "1", "--y", "1", "--u", "2", "--format", "json"],
        ["trace", path["pinj.json"], "--x", "2", "--y", "2", "--u", "2"],
        ["trace", path["rel.json"], "--x", "2", "--y", "2", "--u", "2"],
        ["trace", path["stoch.json"], "--x", "1", "--y", "1", "--u", "1"],
        ["trace", path["stoch.json"], "--x", "2", "--y", "2", "--u", "2"],
        ["run", path["add.rvl"], "add~", "--arg", "(S Z, S (S Z))"],
        ["run", path["add.rvl"], "add", "--arg", "Nil"],
        ["run", path["add.rvl"], "add", "--arg", "(S (S Z), Z)", "--fuel", "1"],
        ["run", path["map.rvl"], "map<inc>", "--arg", "Cons Z Nil"],
        ["--config", path["config.json"], "run", path["map.rvl"], "map", "--arg", "Cons Z Nil"],
        ["run", path["map.rvl"], "map<nope>", "--arg", "Nil"],
        ["run", path["bad.rvl"], "f", "--arg", "Z"],
        ["run", path["invalid.rvl"], "f", "--arg", "Z"],
        ["invert", path["map.rvl"]],
        ["invert", path["add.rvl"], "-o", str(tmp / "add_inv.rvl"), "--suffix", "_rev"],
        ["roundtrip", path["add.rvl"], "add", "--trials", "3", "--seed", "1", "--values", "peano"],
        ["roundtrip", path["map.rvl"], "map<inc>", "--trials", "3", "--seed", "1", "--values", "list"],
        ["roundtrip", path["add.rvl"], "add", "--trials", "3", "--seed", "1", "--value-bound", "4"],
    ]


def test_every_function_in_src_is_reached_by_a_command_or_kept_by_name(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", HOOK, str(SRC / "revcat"), json.dumps(_invocations(tmp_path))],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert sorted(set(report["codes"])) == [0, 2, 3]
    assert report["unreached"] == sorted(UNREACHED)
