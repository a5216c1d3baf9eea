"""The laws command reads its suites from one registry and refuses bad
requests before any suite runs; its JSON stays byte-identical."""
import json
from dataclasses import replace
from pathlib import Path

import pytest

from revcat.cli import main
from revcat.cli import REGISTRY

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden"


@pytest.fixture()
def capture(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture()
def runner_calls(monkeypatch):
    """Replace every suite runner with a spy that records its suite name."""
    calls = []

    def spy(name):
        def run(category, config):
            calls.append(name)
            return iter(())

        return run

    for name, suite in list(REGISTRY.items()):
        monkeypatch.setitem(REGISTRY, name, replace(suite, run=spy(name)))
    return calls


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


@pytest.mark.parametrize(
    "index, argv",
    [
        (0, ["laws", "--category", "rel", "--max-size", "2", "--seed", "1", "--trials", "50"]),
        (1, ["laws", "--category", "pinj", "--max-size", "2", "--seed", "1", "--trials", "500"]),
    ],
)
def test_functional_laws_match_the_benchmark_golden(capture, index, argv):
    code, out, _ = capture(*argv, "--format", "json")
    assert code == 0
    assert out.encode() == (GOLDEN / f"laws-functional.{index}.json").read_bytes()
