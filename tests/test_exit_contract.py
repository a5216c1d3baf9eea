"""The exit-code contract of the language commands under mutated programs.

Each example takes a bundled program, mutates up to three of its tokens
(delete, insert, replace, duplicate, swap), and runs ``run``, ``invert`` or
``roundtrip`` on it in-process through ``main``.  Whatever the text, the
exit is 0 (pass), 1 (violation), 2 (input error) or 3 (non-convergence),
never an internal error, and a ``roundtrip`` that passes has checked at
least one instance.
"""
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from revcat.cli import main

from bundled import BUNDLED

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
    """(exit code, stdout, stderr) of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "program.rvl"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_main([command, str(path), *options, "--format", "json"])
    assert code in (0, 1, 2, 3), err
    assert not any(line.startswith("error: internal:") for line in err.splitlines()), err
    if command == "roundtrip" and code == 0:
        assert json.loads(out)["report"]["checked"] > 0
