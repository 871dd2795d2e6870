"""The ten suites at seeds 7, 123 and 2024, against pinned reports.

Each seed is pinned twice: at the suites' defaults (keyed by the seed) and at
the settings of ``scripts/run_all_suites.py --quick`` (keyed ``quick-<seed>``).
``golden_reports.json`` holds every report as ``SuiteReport.to_json_dict``
gives it. Names, counts, tolerances, details and status must match exactly,
and every ``worst`` within WORST_ABS. The file is rewritten only on purpose,
after a change that moves seeded values (a new seed layout, say), with

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import argparse
import copy
import json
from pathlib import Path

from ntangle.suites import SUITES, SuiteConfig, run_suite

GOLDEN = Path(__file__).with_name("golden_reports.json")
SEEDS = (7, 123, 2024)
WORST_ABS = 1e-14


def _config(name: str, seed: int, quick: bool) -> SuiteConfig:
    if not quick:
        return SuiteConfig(name, seed=seed)
    # the --quick settings: 25 trials, and n_max 6 for every suite but bitops
    return SuiteConfig(name, seed=seed, trials=25, n_max=None if name == "bitops" else 6)


def _reports() -> dict:
    return {("quick-" if quick else "") + str(seed):
            {name: run_suite(_config(name, seed, quick)).to_json_dict() for name in SUITES}
            for quick in (False, True) for seed in SEEDS}


def _mismatches(pinned: dict, got: dict) -> list:
    """Every difference between two sets of reports that the pin forbids."""
    out = []
    if pinned.keys() != got.keys():
        return [f"seeds {sorted(pinned)} != {sorted(got)}"]
    for seed, suites in pinned.items():
        if suites.keys() != got[seed].keys():
            out.append(f"seed {seed}: suites {list(suites)} != {list(got[seed])}")
            continue
        for name, want in suites.items():
            have = got[seed][name]
            where = f"{name}@{seed}"
            for key in want.keys() | have.keys():
                if key != "checks" and want.get(key) != have.get(key):
                    out.append(f"{where} {key}: {want.get(key)!r} != {have.get(key)!r}")
            if len(want["checks"]) != len(have["checks"]):
                out.append(f"{where}: {len(want['checks'])} checks != {len(have['checks'])}")
                continue
            for w, h in zip(want["checks"], have["checks"]):
                for key in w.keys() | h.keys():
                    if key != "worst" and w.get(key) != h.get(key):
                        out.append(f"{where} {w['name']} {key}: {w.get(key)!r} != {h.get(key)!r}")
                if not abs(h["worst"] - w["worst"]) <= WORST_ABS:
                    out.append(f"{where} {w['name']} worst: {w['worst']!r} != {h['worst']!r}")
    return out


def test_reports_match_the_pinned_reports():
    mismatches = _mismatches(json.loads(GOLDEN.read_text()), _reports())
    assert not mismatches, "\n".join(mismatches)


def test_every_pinned_field_is_gated():
    pinned = json.loads(GOLDEN.read_text())
    assert _mismatches(pinned, copy.deepcopy(pinned)) == []
    edits = [
        ("worst", lambda c: c["worst"] + 2 * WORST_ABS),
        ("name", lambda c: c["name"] + "x"),
        ("count", lambda c: c["count"] + 1),
        ("tol", lambda c: c["tol"] * 2),
        ("detail", lambda c: c["detail"] + "x"),
        ("passed", lambda c: not c["passed"]),
    ]
    for key, edit in edits:
        moved = copy.deepcopy(pinned)
        check = moved["123"]["product"]["checks"][-1]
        check[key] = edit(check)
        assert len(_mismatches(pinned, moved)) == 1, key
    moved = copy.deepcopy(pinned)
    moved["2024"]["range"]["passed"] = False
    assert len(_mismatches(pinned, moved)) == 1
    moved["2024"]["range"]["checks"].pop()
    assert len(_mismatches(pinned, moved)) == 2


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", required=True,
                        help="run every pinned suite and rewrite golden_reports.json")
    parser.parse_args()
    GOLDEN.write_text(json.dumps(_reports(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
