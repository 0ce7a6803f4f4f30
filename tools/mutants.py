"""Seeded mutation matrix: each defect class the tests claim to catch is caught.

Each entry names a defect, the file under ``src/muskatjump`` it goes into,
the exact text it replaces, the replacement, and the tier-1 test ids that
must catch it.  For each entry the script copies ``src/`` to a temporary
directory and requires the old text to occur there exactly once; it runs the
named tests on the unmutated copy and requires them to pass, then applies
the mutation and requires pytest to exit 1 with every named id failing (a
parametrized id counts as failing when one of its cases fails).

A mutant that no named test kills is a gap in the tests: close it with a
test, not by dropping the entry.  An entry whose old text is gone fails the
script, so a refactor that moves the code moves the entry with it.

usage: python tools/mutants.py     (from the repository root)

It prints one row per entry and exits 1 if any mutant survives, any old text
is missing or not unique, or any named test fails unmutated.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


_DECAY_EVALUATIONS = ("tests/test_evolution.py::"
                      "test_decay_steps_take_about_one_strength_evaluation_each")

MUTANTS = (
    Mutant("cubic start weight -6 -> -5", "vorticity.py",
           "- 6.0 * c[-2]", "- 5.0 * c[-2]",
           (_DECAY_EVALUATIONS,)),
    Mutant("carry the returned strength, not the next iterate", "vorticity.py",
           'ahead = w1 + np.fft.irfft(update, ws.grid.n_points, norm="forward")', "ahead = w1",
           (_DECAY_EVALUATIONS,
            "tests/test_evolution.py::test_carried_correction_is_the_solves_next_iterate")),
    Mutant("phi2 series z/6 -> z/5", "evolution.py",
           "0.5 + zs / 6.0", "0.5 + zs / 5.0",
           ("tests/test_evolution.py::test_phi_functions_match_mpmath",)),
    # criterion 3 checks rhs's four parts, not the step's sum, and misses it
    Mutant("tendency sum without the df factor", "evolution.py",
           "    total *= ws.dF\n", "",
           ("tests/test_evolution.py::test_rhs_identity_between_parts",
            "tests/test_evolution.py::test_rhs_and_tendency_are_one_assembly[0.02]",
            "tests/test_evolution.py::test_rhs_and_tendency_are_one_assembly[0.3]",
            "tests/test_evolution.py::test_even_symmetry_preserved")),
    Mutant("tendency sum not dealiased", "evolution.py",
           'np.where(dealias_mask(grid)[:half], np.fft.rfft(total, norm="forward"), 0.0)',
           'np.fft.rfft(total, norm="forward")',
           ("tests/test_acceptance.py::test_criterion_06_instant_analyticity",
            "tests/test_evolution.py::test_rhs_identity_between_parts",
            "tests/test_evolution.py::test_rhs_and_tendency_are_one_assembly[0.02]",
            "tests/test_cli.py::test_weighted_norm_past_the_exponential_guard_ends_in_exit_5")),
    Mutant("budget violation never flagged", "evolution.py",
           "rec.budget_violated = True", "rec.budget_violated = False",
           ("tests/test_cli.py::test_run_flags_a_violated_budget",
            "tests/test_cli.py::test_violated_budget_ends_the_run_in_exit_5")),
    Mutant("leakage unchecked at later snapshots", "evolution.py",
           'if row["leakage"] > opts.leakage_threshold:', "if False:",
           ("tests/test_cli.py::test_run_leakage_past_the_first_snapshot_ends_the_run_there",)),
    Mutant("leakage checked before a resume's first row", "evolution.py",
           "    if resume is None:\n        check_leakage(", "    if True:\n        check_leakage(",
           ("tests/test_cli.py::test_resume_from_the_leaking_snapshot_keeps_its_row",)),
    Mutant("budget slack 1e-6 -> 1e-2", "evolution.py",
           "rhs0[s] * (1.0 + 1e-6)", "rhs0[s] * (1.0 + 1e-2)",
           ("tests/test_cli.py::test_run_flags_a_budget_violated_by_a_thousandth",)),
    Mutant("CFL shortcut margin 1/2 -> 1", "evolution.py",
           "> 0.5 * opts.cfl_bound", "> 1.0 * opts.cfl_bound",
           ("tests/test_evolution.py::test_cfl_check_rejects_what_the_exact_check_rejects",)),
    Mutant("noise floor 1e-14 -> 1e-10", "norms.py",
           "NOISE_FLOOR = 1e-14", "NOISE_FLOOR = 1e-10",
           ("tests/test_cli.py::test_strip_radius_floor_is_relative",)),
)

_OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR) (\S+)", re.MULTILINE)


def _pytest(src: Path, tests: tuple[str, ...]) -> tuple[int, dict]:
    """Exit code and outcome per test id of the named tests against the copy ``src``."""
    # no bytecode: a mutation of equal length within the same second would
    # otherwise leave the unmutated run's .pyc in use
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "pytest", "-q",
                           "-rA", "-p", "no:cacheprovider", *tests],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    return proc.returncode, {node: outcome for outcome, node in _OUTCOME.findall(proc.stdout)}


def _failed(test: str, outcomes: dict) -> bool:
    return any(outcome != "PASSED" for node, outcome in outcomes.items()
               if node == test or node.startswith(test + "["))


def check(mutant: Mutant) -> str:
    """'killed', or why the entry fails."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "muskatjump" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return f"old text occurs {text.count(mutant.old)} times"
        code, outcomes = _pytest(src, mutant.tests)
        if code != 0:
            return f"unmutated tests exit {code}"
        path.write_text(text.replace(mutant.old, mutant.new))
        code, outcomes = _pytest(src, mutant.tests)
        missed = [t for t in mutant.tests if not _failed(t, outcomes)]
        if code != 1 or missed:
            return f"survived: pytest exit {code}, not failing {', '.join(missed) or '-'}"
    return "killed"


def main() -> int:
    width = max(len(m.name) for m in MUTANTS)
    print(f"{'mutant':<{width}}  {'file':<13}{'tests':>6}{'s':>7}  verdict")
    bad = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict = check(mutant)
        bad += verdict != "killed"
        print(f"{mutant.name:<{width}}  {mutant.file:<13}{len(mutant.tests):>6}"
              f"{time.perf_counter() - start:>7.1f}  {verdict}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
