"""The exit-code contract of every command under hostile input.

Each example runs one command in-process through ``main``:
- a bundled program with up to three tokens mutated (delete, insert,
  replace, duplicate, swap) through ``run``, ``invert`` or ``roundtrip``;
- a seeded random functional document with one to three mutations through
  ``fix``, and a random morphism document, mutated or not, through ``trace``;
- values, call references and JSON documents nested up to 10^4 deep;
- whole ``--config`` documents for each subcommand.

Whatever the input, the exit is 0 (pass), 1 (violation), 2 (input error)
or 3 (non-convergence), never an internal error, and a ``roundtrip`` that
passes has checked at least one instance.
"""
import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path
from random import Random

from hypothesis import given, settings, strategies as st

from revcat.cat.objects import FinObject
from revcat.cat.ops import PINJ, REL, HomSpace
from revcat.cat.serialize import MAX_NESTING as JSON_NESTING
from revcat.cli import main
from revcat.functionals.fixpoints import random_endo_functional
from revcat.revlang.parser import MAX_NESTING as REF_NESTING

from bundled import BUNDLED
from test_cli import CONFIG_KEYS, JSON_VALUES, SMALL_RUNS
from test_serialize import functional_to_doc

# Lexemes and the whitespace between them, so mutated tokens join back
# into program text.
_TOKEN = re.compile(r"\s+|--[^\n]*|'?\w+|.", re.DOTALL)
VOCABULARY = [
    "fun", "let", "in", "atom", "=", "(", ")", ",", "<", ">", "~", "--", "'", "'a",
    "Z", "S", "Nil", "Cons", "Pair", "x", "y", "xs", "g", "add", "map", "inc", "swap",
    "0", "_", " ", "\n",
]
# The references, values and ``--values`` draws each program is run on:
# mostly its own, so that a mutant that still parses is also evaluated, and
# a few that do not fit it.
REFS = {
    "swap": ["swap", "swap~", "add"],
    "add": ["add", "add~", "swap"],
    "map": ["map<inc>", "map", "map<inc~>", "map~<inc>", "inc", "map<map>"],
}
VALUES = {
    "swap": ["(Z, S Z)", "(Nil, Z)", "Z"],
    "add": ["(S Z, S (S Z))", "(Z, Z)", "S Z"],
    "map": ["Cons Z Nil", "Cons (S Z) (Cons Z Nil)", "Nil", "Z"],
}
DRAWS = {"swap": ["tree", "peano"], "add": ["peano", "tree"], "map": ["list", "tree"]}
EDIT = st.tuples(
    st.sampled_from(["delete", "insert", "replace", "duplicate", "swap"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.sampled_from(VOCABULARY),
)


def mutate(text, edits):
    """``text`` with each edit applied to its token list in turn; positions
    wrap around the current length."""
    tokens = _TOKEN.findall(text)
    for op, i, j, word in edits:
        i, j = i % len(tokens), j % len(tokens)
        if op == "delete":
            del tokens[i]
        elif op == "insert":
            tokens.insert(i, word)
        elif op == "replace":
            tokens[i] = word
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        else:
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return "".join(tokens)


def run_main(argv):
    """(exit code, stdout, stderr) of ``main(argv)``; argparse refusing the
    command line exits 2 by ``SystemExit``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_contract(argv, files=None):
    """Run ``argv`` in a fresh directory holding ``files`` (name -> text)
    and assert the exit-code contract; returns the exit code."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        for name, text in (files or {}).items():
            (Path(directory) / name).write_text(text, encoding="utf-8")
        os.chdir(directory)
        try:
            code, out, err = run_main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3), err
    assert not any(line.startswith("error: internal:") for line in err.splitlines()), err
    if code == 0 and "roundtrip" in argv:
        assert json.loads(out)["report"]["checked"] > 0
    return code


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(sorted(BUNDLED)), st.data())
def test_mutated_programs_keep_the_exit_contract(name, data):
    text = mutate(BUNDLED[name], data.draw(st.lists(EDIT, max_size=3)))
    command = data.draw(st.sampled_from(["run", "invert", "roundtrip"]))
    ref = data.draw(st.sampled_from(REFS[name]))
    bind = data.draw(st.sampled_from([[], ["--bind", "g=inc"]]))
    options = {
        "run": lambda: [ref, "--arg", data.draw(st.sampled_from(VALUES[name])), "--fuel", "50", *bind],
        "invert": lambda: [],
        "roundtrip": lambda: [ref, "--seed", "1", "--trials", "10", "--fuel", "50",
                              "--values", data.draw(st.sampled_from(DRAWS[name])), *bind],
    }[command]()
    check_contract([command, "program.rvl", *options, "--format", "json"], {"program.rvl": text})


# -- documents through fix and trace ------------------------------------------

# Field names a mutation may add: every key some document reads, and a few
# that none does.
KEYS = st.sampled_from([
    "op", "m", "dom", "inner", "first", "second", "left", "right", "value", "cat", "src",
    "dst", "type", "pairs", "map", "rows", "n", "name", "scale", "shift", "x", "",
])


def _paths(doc, path=()):
    """The path of every value in ``doc``, the root's first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _put(doc, path, value):
    """``doc`` with the value at ``path`` replaced, in place below the root."""
    if not path:
        return value
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def mutate_doc(doc, data):
    """``doc`` after one to three drawn mutations: a value replaced by a
    drawn JSON value, a key deleted, two disjoint subtrees swapped, or a
    field added."""
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        op = data.draw(st.sampled_from(["replace", "delete", "swap", "add"]))
        if op == "replace":
            doc = _put(doc, data.draw(st.sampled_from(paths)), data.draw(JSON_VALUES))
        elif op == "delete":
            keyed = [p for p in paths if p and isinstance(_at(doc, p[:-1]), dict)]
            if keyed:
                path = data.draw(st.sampled_from(keyed))
                del _at(doc, path[:-1])[path[-1]]
        elif op == "swap":
            a, b = data.draw(st.sampled_from(paths)), data.draw(st.sampled_from(paths))
            if a[: len(b)] != b and b[: len(a)] != a:
                first, second = _at(doc, a), _at(doc, b)
                doc = _put(_put(doc, a, second), b, first)
        else:
            objects = [p for p in paths if isinstance(_at(doc, p), dict)]
            if objects:
                _at(doc, data.draw(st.sampled_from(objects)))[data.draw(KEYS)] = data.draw(JSON_VALUES)
    return doc


def random_functional_doc(data):
    """The document of a seeded random endo-functional on a rel or pinj
    Hom(x, y), x and y in 1..3."""
    rng = Random(data.draw(st.integers(0, 2**32 - 1)))
    category = data.draw(st.sampled_from([REL, PINJ]))
    space = HomSpace(category, FinObject(rng.randrange(1, 4)), FinObject(rng.randrange(1, 4)))
    return functional_to_doc(random_endo_functional(space, rng))


# A chain that does not converge ends fast, as exit 3.
FIX = ["fix", "doc.json", "--max-iterations", "2", "--format", "json"]


@settings(max_examples=250, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_mutated_functional_documents_keep_the_exit_contract(data):
    doc = mutate_doc(random_functional_doc(data), data)
    check_contract(FIX, {"doc.json": json.dumps(doc)})


SIZES = st.integers(-1, 200) | st.integers(0, 4)


def random_morphism_doc(data, src, dst):
    """A morphism document of a drawn type; ``src`` and ``dst`` are its
    sizes, or drawn where they could not be."""
    fits = lambda n: n if 0 <= n <= 8 else data.draw(st.integers(0, 4))
    src, dst = fits(src), fits(dst)
    kind = data.draw(st.sampled_from(["rel", "pinj", "dstoch"]))
    if kind == "rel":
        pairs = st.tuples(st.integers(0, max(src - 1, 0)), st.integers(0, max(dst - 1, 0)))
        return {"type": "rel", "src": src, "dst": dst, "pairs": data.draw(st.lists(pairs, max_size=6))}
    if kind == "pinj":
        targets = data.draw(st.permutations(range(dst)))[: data.draw(st.integers(0, min(src, dst)))]
        return {"type": "pinj", "src": src, "dst": dst, "map": {str(i): j for i, j in enumerate(targets)}}
    rows = [[1.0 / src if src else 0.0] * src for _ in range(src)]
    return {"type": "dstoch", "n": src, "rows": rows}


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(SIZES, SIZES, SIZES, st.booleans(), st.data())
def test_random_and_mutated_morphism_documents_keep_the_exit_contract(x, y, u, mutated, data):
    doc = random_morphism_doc(data, x + u, y + u)
    if mutated:
        doc = mutate_doc(doc, data)
    argv = ["trace", "m.json", "--x", str(x), "--y", str(y), "--u", str(u), "--format", "json"]
    check_contract(argv, {"m.json": json.dumps(doc)})


# -- nesting --------------------------------------------------------------------

# Depths on both sides of each bound, up to 10^4.
DEPTHS = st.sampled_from([1, JSON_NESTING - 1, JSON_NESTING, JSON_NESTING + 1, REF_NESTING,
                          REF_NESTING + 1, 10**4]) | st.integers(1, 10**4)


def nested_value(shape, depth):
    """Value text ``depth`` constructors deep, nesting to the right or the left."""
    if shape == "S":
        return "S (" * depth + "Z" + ")" * depth
    if shape == "Cons":
        return "Cons Z (" * depth + "Nil" + ")" * depth
    return "(" * depth + "Z" + ", Nil)" * depth


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(sorted(BUNDLED)), st.sampled_from(["S", "Cons", "Pair"]), DEPTHS)
def test_deep_values_keep_the_exit_contract(name, shape, depth):
    ref = {"swap": "swap", "add": "add~", "map": "map<inc>"}[name]
    argv = ["run", "p.rvl", ref, "--arg", nested_value(shape, depth), "--fuel", "50", "--format", "json"]
    check_contract(argv, {"p.rvl": BUNDLED[name]})


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(DEPTHS, st.lists(st.booleans(), min_size=1), st.booleans(), st.sampled_from(["Cons Z Nil", "Nil", "Z"]))
def test_deep_call_references_keep_the_exit_contract(depth, marks, bound, value):
    # map<map<...<inc>...>>, each level's ~ read from ``marks`` in turn;
    # the parser refuses it past its nesting bound with exit 2.
    levels = [f"map{'~' * marks[i % len(marks)]}<" for i in range(depth)]
    ref = "".join(levels) + "inc" + ">" * depth
    options = ["map", "--bind", f"g={ref}"] if bound else [ref]
    code = check_contract(["run", "p.rvl", *options, "--arg", value, "--fuel", "50", "--format", "json"],
                          {"p.rvl": BUNDLED["map"]})
    if depth > REF_NESTING:
        assert code == 2


def nested_json(shape, depth):
    """JSON text ``depth`` arrays, or ``depth`` objects, deep."""
    if shape == "array":
        return "[" * depth + "0" + "]" * depth
    return '{"a": ' * depth + "0" + "}" * depth


def _identity_chain(depth):
    """A functional document ``depth`` objects deep: identities chained by
    "inner" over an innermost one with its "dom"."""
    return '{"op": "identity", "inner": ' * (depth - 2) + \
        '{"op": "identity", "dom": {"cat": "rel", "src": 2, "dst": 2}}' + "}" * (depth - 2)


# The small files of ``SMALL_RUNS``, and the document in each.
REL_DOC = {"type": "rel", "src": 1, "dst": 1, "pairs": [[0, 0]]}
SMALL_FILES = {"add.rvl": BUNDLED["add"], "m.json": json.dumps(REL_DOC),
               "doc.json": json.dumps({"op": "joinwith", "m": REL_DOC})}
# Each command with the file its deep document goes in.
DEEP_JSON = {
    "fix": (FIX, "doc.json"),
    "trace": (["trace", "m.json", "--x", "1", "--y", "1", "--u", "0", "--format", "json"], "m.json"),
    "config": (["--config", "config.json", *SMALL_RUNS["run"], "--format", "json"], "config.json"),
}


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(sorted(DEEP_JSON)), st.sampled_from(["array", "object", "chain"]), DEPTHS, st.data())
def test_deep_json_documents_keep_the_exit_contract(command, shape, depth, data):
    # A deep array or object in place of one value of a small document, or,
    # for fix, a chain of identities that deep.  Past the reader's bound
    # every document is refused with exit 2.
    argv, name = DEEP_JSON[command]
    files = dict(SMALL_FILES)
    if shape == "chain" and command == "fix":
        depth = max(depth, 2)
        files[name] = _identity_chain(depth)
    else:
        doc = json.loads(files.get(name, '{"fuel": 0}'))
        path = data.draw(st.sampled_from(list(_paths(doc))))
        files[name] = json.dumps(_put(doc, path, "@")).replace('"@"', nested_json(shape, depth))
        depth += len(path)  # each step of the path enters one more array or object
    code = check_contract(argv, files)
    if depth > JSON_NESTING:
        assert code == 2


# -- whole --config documents -----------------------------------------------------


def config_documents(command):
    """A non-object, or an object of several of ``command``'s keys, each a
    drawn JSON value: a list for an option that cannot repeat, a nested one."""
    keys = st.sampled_from(CONFIG_KEYS[command])
    return JSON_VALUES | st.dictionaries(keys, JSON_VALUES, min_size=2, max_size=len(CONFIG_KEYS[command]))


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(sorted(SMALL_RUNS)), st.data())
def test_whole_config_documents_keep_the_exit_contract(command, data):
    files = {**SMALL_FILES, "config.json": json.dumps(data.draw(config_documents(command)))}
    check_contract(["--config", "config.json", *SMALL_RUNS[command], "--format", "json"], files)
