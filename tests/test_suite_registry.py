"""The laws command reads its suites from one registry and refuses bad
requests before any suite runs; its JSON stays byte-identical."""
import importlib
import json
import pkgutil
import re
from inspect import signature
from pathlib import Path

import pytest

from revcat import functionals
from revcat.cat.laws import SUITES
from revcat.cli import REGISTRY, Suite, main
from revcat.functionals.trace import check_dagger_trace
from revcat.report import LawReport

from bundled import ADD

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "bench" / "golden"


@pytest.fixture()
def capture(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture()
def runner_calls(monkeypatch):
    """Replace every suite with a spy whose one empty draw comes from a spy
    source per original source, so sharing is kept, and whose check records
    its suite name."""
    calls = []
    sources = {}

    def spy_check(name):
        def check():
            calls.append(name)
            return LawReport(name)

        return check

    for name, suite in list(REGISTRY.items()):
        draws = sources.setdefault(suite.draws, lambda category, config: iter([()]))
        monkeypatch.setitem(
            REGISTRY, name, Suite(suite.name, suite.categories, suite.randomized, draws, spy_check(name))
        )
    return calls


def test_src_holds_only_the_checkers_a_command_runs():
    named = [
        name
        for path in sorted((ROOT / "src").rglob("*.py"))
        for name in re.findall(r'Checker\("([^"]*)"\)', path.read_text(encoding="utf-8"))
    ]
    functional = [name for name in REGISTRY if name not in SUITES]
    assert sorted(named) == sorted([*functional, "roundtrip"])
    assert not any(
        p.annotation in (bool, "bool") or isinstance(p.default, bool)
        for p in signature(check_dagger_trace).parameters.values()
    )


def test_checkers_and_fixed_points_take_no_knobs():
    found = {}
    for info in pkgutil.iter_modules(functionals.__path__, "revcat.functionals."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) == info.name and (
                name.startswith("check_") or name in ("fix_functional", "pfix_functional")
            ):
                found[name] = value
    assert len(found) >= 9
    # ``revcat fix`` hands its --max-iterations and --tolerance to
    # fix_functional, as a FixPolicy; nothing else takes a knob.
    assert list(signature(found.pop("fix_functional")).parameters) == ["phi", "policy"]
    for name, fn in found.items():
        taken = set(signature(fn).parameters)
        assert not taken & {"policy", "tolerance", "parameters"}, name


def test_unsupported_suite_is_refused_before_any_suite_runs(capture, runner_calls):
    code, _, err = capture(
        "laws", "--category", "dstoch", "--seed", "1", "--trials", "3000",
        "--suite", "dagger", "--suite", "naturality",
    )
    assert code == 2
    assert "'naturality' is not available for dstoch" in err
    assert runner_calls == []


def test_unknown_suite_is_refused_before_any_suite_runs(capture, runner_calls):
    code, _, err = capture("laws", "--category", "rel", "--suite", "dagger", "--suite", "nope")
    assert code == 2
    assert "unknown suite 'nope'" in err
    assert runner_calls == []


def test_default_suites_run_in_registry_order(capture, runner_calls):
    code, out, _ = capture("laws", "--category", "pinj", "--seed", "1", "--format", "json")
    assert code == 0
    assert runner_calls == list(REGISTRY)
    assert json.loads(out)["config"]["suites"] == list(REGISTRY)
    code, _, _ = capture("laws", "--category", "dstoch", "--seed", "1")
    assert code == 0
    assert runner_calls[len(REGISTRY):] == ["dagger", "enrichment", "monotone-dagger", "order-iso"]


def test_unknown_config_key_is_an_input_error(capture, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trails": 5}))
    code, out, err = capture(
        "--config", str(config), "laws", "--category", "rel", "--suite", "dagger", "--sizes", "1"
    )
    assert code == 2
    assert "'trails'" in err
    assert out == ""


def test_config_key_of_another_subcommand_is_refused(capture, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fuel": 1}))
    code, _, err = capture("--config", str(config), "trace", "f.json", "--x", "1", "--y", "1", "--u", "0")
    assert code == 2
    assert "'fuel'" in err


def test_trace_on_a_dstoch_document_is_an_input_error(capture, tmp_path):
    path = tmp_path / "stoch.json"
    path.write_text(json.dumps({"type": "dstoch", "n": 2, "rows": [[0.5, 0.0], [0.0, 0.5]]}))
    code, out, err = capture("trace", str(path), "--x", "1", "--y", "1", "--u", "1")
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


CORE_SUITES = ["--suite", "dagger", "--suite", "enrichment", "--suite", "monotone-dagger", "--suite", "order-iso"]
# The golden file of each benchmark argv checked here, by parameter index.
GOLDEN_FILES = ["laws-functional.0.json", "laws-functional.1.json", "laws-exhaustive.1.json", "laws-dstoch.0.json"]


@pytest.mark.parametrize(
    "index, argv",
    [
        (0, ["laws", "--category", "rel", "--max-size", "2", "--seed", "1", "--trials", "50"]),
        (1, ["laws", "--category", "pinj", "--max-size", "2", "--seed", "1", "--trials", "500"]),
        (2, ["laws", "--category", "pinj", "--sizes", "0,1,2,3", *CORE_SUITES]),
        (3, ["laws", "--category", "dstoch", "--trials", "2000", "--seed", "1", "--sizes", "1,2,3,4"]),
    ],
)
def test_functional_laws_match_the_benchmark_golden(capture, index, argv):
    code, out, _ = capture(*argv, "--format", "json")
    assert code == 0
    assert out.encode() == (GOLDEN / GOLDEN_FILES[index]).read_bytes()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--category", "rel", "--suite", "dagger", "--max-size", "-1"], "--max-size"),
        (["--category", "rel", "--suite", "dagger", "--sizes", "1", "--trials", "-1"], "--trials"),
        (["--category", "rel", "--suite", "dagger", "--suite", "dagger", "--sizes", "1"], "'dagger'"),
        (
            ["--category", "dstoch", "--seed", "1", "--sizes", "0", "--trials", "3",
             "--suite", "monotone-dagger"],
            "--sizes",
        ),
        (["--category", "rel", "--suite", "naturality", "--max-size", "1", "--fuel", "-3"], "--fuel"),
        (["--category", "pinj", "--suite", "naturality", "--max-size", "1", "--fuel", "0"], "--fuel"),
        (["--category", "rel", "--seed", "1", "--suite", "fix-adjoint", "--depth", "-5"], "--depth"),
    ],
)
def test_runs_that_check_nothing_or_a_suite_twice_are_refused(capture, runner_calls, argv, named):
    code, out, err = capture("laws", *argv, "--format", "json")
    assert code == 2
    assert named in err
    assert out == ""
    assert runner_calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["--category", "dstoch", "--seed", "1"],
        ["--category", "rel", "--seed", "1"],
        ["--category", "pinj", "--seed", "1", "--suite", "dagger", "--suite", "fix-adjoint"],
    ],
)
def test_zero_trials_in_a_randomized_suite_is_refused(capture, runner_calls, argv):
    code, out, err = capture("laws", *argv, "--trials", "0", "--format", "json")
    assert code == 2
    assert "--trials 0" in err
    assert out == ""
    assert runner_calls == []


def test_zero_trials_is_accepted_where_no_suite_samples(capture):
    code, out, _ = capture(
        "laws", "--category", "pinj", "--sizes", "1", "--trials", "0",
        "--suite", "dagger", "--suite", "naturality", "--format", "json",
    )
    assert code == 0
    assert all(entry["checked"] > 0 for entry in json.loads(out)["suites"].values())


def test_roundtrip_refuses_negative_trials(capture, tmp_path):
    path = tmp_path / "add.rvl"
    path.write_text(
        "fun add (Z, y) = (Z, y)\n"
        "fun add (S x, y) = let (x2, y2) = add (x, y) in (S x2, S y2)\n"
    )
    code, out, err = capture("roundtrip", str(path), "add", "--seed", "1", "--trials", "-1")
    assert code == 2
    assert "--trials" in err
    assert out == ""


def test_roundtrip_refuses_zero_trials(capture, tmp_path):
    path = tmp_path / "add.rvl"
    path.write_text(ADD)
    code, out, err = capture("roundtrip", str(path), "add", "--seed", "1", "--trials", "0")
    assert code == 2
    assert "--trials" in err
    assert out == ""
