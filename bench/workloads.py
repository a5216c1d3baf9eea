"""The benchmark's workloads and the oracles that check their output.

A workload is a fixed list of ``revcat`` argv lists, each run in a fresh
process.  The oracles are independent of the code under test: closed-form
instance counts for the exhaustive suites, per-trial counts for the
randomized ones, integer arithmetic for ``add``, and byte-identical JSON
against goldens recorded for ``DEFAULT_SEED``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path
from random import Random
from typing import Callable, Optional

DEFAULT_SEED = 1
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
ADD = "bench/programs/add.rvl"
MAP = "bench/programs/map.rvl"

CORE = ("dagger", "enrichment", "monotone-dagger", "order-iso")
FUNCTIONAL = (
    "fix-adjoint",
    "pfix-adjoint",
    "conj-preservation",
    "pfix-identity",
    "naturality",
    "self-conjugate",
    "dagger-trace",
)
# Randomized functional suites: instances per trial (checked + skipped).
PER_TRIAL = {
    "fix-adjoint": lambda cat: 1,
    "pfix-adjoint": lambda cat: homs(cat, 2, 2),
    "conj-preservation": lambda cat: homs(cat, 2, 2),
    "pfix-identity": lambda cat: homs(cat, 2, 2),
}
# Every dstoch law is checked once per trial.
DSTOCH_LAWS = {
    "dagger": ("identity-dagger", "double-dagger", "compose-dagger"),
    "enrichment": (
        "bottom-after",
        "bottom-before",
        "compose-monotone-left",
        "compose-monotone-right",
        "compose-preserves-sup",
    ),
    "monotone-dagger": ("dagger-monotone",),
    "order-iso": ("order-iso", "order-iso-ordered", "dagger-preserves-sup", "dagger-strict"),
}


def homs(category: str, m: int, n: int) -> int:
    """Number of morphisms m -> n."""
    if category == "rel":
        return 2 ** (m * n)
    return sum(comb(m, k) * comb(n, k) * factorial(k) for k in range(min(m, n) + 1))


def ordered_pairs(category: str, m: int, n: int) -> int:
    """Number of pairs f <= g in Hom(m, n).

    In rel each cell of (f, g) is one of (0,0), (0,1), (1,1); in pinj f is
    a restriction of g, and g with k defined points has 2^k restrictions.
    """
    if category == "rel":
        return 3 ** (m * n)
    return sum(
        comb(m, k) * comb(n, k) * factorial(k) * 2**k for k in range(min(m, n) + 1)
    )


def core_by_law(category: str, sizes: tuple[int, ...]) -> dict[str, dict[str, int]]:
    """Closed-form instance counts per law of the exhaustive core suites."""
    P = lambda x, y: homs(category, x, y)
    O = lambda x, y: ordered_pairs(category, x, y)
    pairs = [(x, y) for x in sizes for y in sizes]
    triples = [(x, y, z) for x in sizes for y in sizes for z in sizes]
    return {
        "dagger": {
            "identity-dagger": len(sizes),
            "double-dagger": sum(P(x, y) for x, y in pairs),
            "compose-dagger": sum(P(x, y) * P(y, z) for x, y, z in triples),
        },
        "enrichment": {
            "bottom-after": sum(P(x, y) for x, y, z in triples),
            "bottom-before": sum(P(y, z) for x, y, z in triples),
            "compose-monotone-left": sum(O(x, y) * P(y, z) for x, y, z in triples),
            "compose-monotone-right": sum(O(y, z) * P(x, y) for x, y, z in triples),
            "compose-preserves-sup": sum(O(x, y) * P(y, z) for x, y, z in triples),
        },
        "monotone-dagger": {"dagger-monotone": sum(O(x, y) for x, y in pairs)},
        "order-iso": {
            "order-iso": sum(P(x, y) ** 2 for x, y in pairs),
            "dagger-preserves-sup": sum(O(x, y) for x, y in pairs),
            "dagger-strict": len(sizes) ** 2,
        },
    }


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    # Returns the problems found in the parsed JSON document.
    check: Callable[[dict], list[str]]
    # Golden file the stdout must equal byte for byte, if any.
    golden: Optional[str] = None
    # Calls the traced run must count on the morphisms' ``dagger``, if known.
    dagger_calls: Optional[int] = None


def _golden_doc(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


def _laws(command, category, sizes, trials, seed, golden):
    """A ``laws`` invocation and the checks its document must pass.

    ``command`` runs every suite listed in its ``--suite`` flags, or all
    suites of ``category`` when it has none.
    """
    argv = (*command.split(), "--format", "json")
    suites = [argv[i + 1] for i, a in enumerate(argv) if a == "--suite"]
    suites = suites or list(CORE if category == "dstoch" else CORE + FUNCTIONAL)

    def check(doc: dict) -> list[str]:
        problems = []
        if doc.get("command") != "laws" or doc["config"]["seed"] != seed:
            problems.append("config does not echo the command or the seed")
        if sorted(doc["suites"]) != sorted(suites):
            return problems + [f"suites {sorted(doc['suites'])} != {sorted(suites)}"]
        closed = core_by_law(category, sizes) if category != "dstoch" else {}
        for suite, entry in doc["suites"].items():
            if entry["violations"]:
                problems.append(f"{suite}: {len(entry['violations'])} violation(s)")
            if category == "dstoch":
                expected = {law: trials for law in DSTOCH_LAWS[suite]}
                if entry["by_law"] != expected or entry["skipped"]:
                    problems.append(f"{suite}: by_law {entry['by_law']} != {expected}")
            elif suite in closed:
                expected = closed[suite]
                if entry["by_law"] != expected or entry["skipped"]:
                    problems.append(f"{suite}: by_law {entry['by_law']} != {expected}")
            elif suite in PER_TRIAL:
                want = trials * PER_TRIAL[suite](category)
                if entry["checked"] + entry["skipped"] != want:
                    problems.append(f"{suite}: {entry['checked']}+{entry['skipped']} != {want}")
            else:
                # Not randomized: the counts must not depend on the seed.
                ref = _golden_doc(golden)["suites"][suite]
                for key in ("checked", "skipped", "by_law"):
                    if entry[key] != ref[key]:
                        problems.append(f"{suite}: {key} {entry[key]} != {ref[key]}")
            if entry["checked"] != sum(entry["by_law"].values()):
                problems.append(f"{suite}: checked != sum of by_law")
        return problems

    dagger_calls = None
    if suites == ["dagger"] and category != "dstoch":
        # One dagger per identity, two per double dagger, three per pair.
        law = core_by_law(category, sizes)["dagger"]
        dagger_calls = law["identity-dagger"] + 2 * law["double-dagger"] + 3 * law["compose-dagger"]
    use_golden = seed is None or seed == DEFAULT_SEED
    return Invocation(argv, check, golden if use_golden else None, dagger_calls)


def _roundtrip(command, trials, seed, golden):
    argv = (*command.split(), "--format", "json")

    def check(doc: dict) -> list[str]:
        report = doc["report"]
        expected = {"fuel-adjoint": trials, "roundtrip": trials}
        problems = []
        if doc.get("command") != "roundtrip" or doc["config"]["seed"] != seed:
            problems.append("config does not echo the command or the seed")
        if report["violations"]:
            problems.append(f"{len(report['violations'])} violation(s)")
        if report["by_law"] != expected or report["skipped"] or report["checked"] != 2 * trials:
            problems.append(f"counts {report['by_law']}, {report['skipped']} skipped")
        return problems

    return Invocation(argv, check, golden if seed == DEFAULT_SEED else None)


def workloads(seed: int) -> dict[str, list[Invocation]]:
    """The timed invocations of each workload at benchmark seed ``seed``."""
    core = " ".join(f"--suite {suite}" for suite in CORE)
    return {
        "laws-exhaustive": [
            _laws("laws --category rel --suite dagger --sizes 3",
                  "rel", (3,), None, None, "laws-exhaustive.0.json"),
            _laws(f"laws --category pinj --sizes 0,1,2,3 {core}",
                  "pinj", (0, 1, 2, 3), None, None, "laws-exhaustive.1.json"),
        ],
        "laws-functional": [
            _laws(f"laws --category rel --max-size 2 --seed {seed} --trials 50",
                  "rel", (0, 1, 2), 50, seed, "laws-functional.0.json"),
            _laws(f"laws --category pinj --max-size 2 --seed {seed} --trials 500",
                  "pinj", (0, 1, 2), 500, seed, "laws-functional.1.json"),
        ],
        "laws-dstoch": [
            _laws(f"laws --category dstoch --trials 2000 --seed {seed} --sizes 1,2,3,4",
                  "dstoch", (1, 2, 3, 4), 2000, seed, "laws-dstoch.0.json"),
        ],
        "lang-roundtrip": [
            _roundtrip(f"roundtrip {ADD} add --values peano --trials 2000 --seed {seed}",
                       2000, seed, "lang-roundtrip.0.json"),
            _roundtrip(f"roundtrip {MAP} map --bind g=inc --values list --trials 2000 --seed {seed}",
                       2000, seed, "lang-roundtrip.1.json"),
        ],
    }


def _numeral(n: int) -> str:
    text = "Z"
    for _ in range(n):
        text = f"S ({text})"
    return text


def _peano(text: str) -> int:
    """Parse ``S (S Z)`` back into 2, independently of revcat's parser."""
    tokens = text.replace("(", " ").replace(")", " ").split()
    if not tokens or tokens[-1] != "Z" or any(t != "S" for t in tokens[:-1]):
        raise ValueError(f"not a numeral: {text!r}")
    return len(tokens) - 1


def _run_add(fname: str, left: int, right: int, want: tuple[int, int]) -> Invocation:
    arg = f"({_numeral(left)}, {_numeral(right)})"
    argv = ("run", ADD, fname, "--arg", arg, "--format", "json")

    def check(doc: dict) -> list[str]:
        if doc.get("outcome") != "value":
            return [f"{fname} {arg}: outcome {doc.get('outcome')}"]
        head, _, tail = doc["value"][1:-1].partition(", ")
        try:
            got = (_peano(head), _peano(tail))
        except ValueError as exc:
            return [f"{fname} {arg}: {exc}"]
        return [] if got == want else [f"{fname} {arg}: got {got}, want {want}"]

    return Invocation(argv, check)


def oracle_invocations(seed: int) -> list[Invocation]:
    """Untimed checks of ``add`` against integer arithmetic, both directions.

    They run before the timed passes of every workload, which also warms the
    file cache and the bytecode cache the timed invocations then use.
    """
    rng = Random(seed)
    a, b = rng.randrange(40), rng.randrange(40)
    return [
        _run_add("add", a, b, (a, a + b)),
        _run_add("add~", a, a + b, (a, b)),
    ]
