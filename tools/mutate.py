"""Standing mutation check for the certificates and theorem checks.

Each mutant names a file under ``src/signalgames``, one exact source
fragment, the text that replaces it, and the tier-1 tests that must kill
it: at least one of them must fail once the fragment is replaced.  The
tool first runs every named test on an unmutated copy (they must pass
there), then applies one mutant at a time to a fresh temporary copy of
``src/`` and ``games/`` (never to the repository itself) and runs that
mutant's tests in one pytest subprocess.

    python3 tools/mutate.py

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when
a fragment does not occur exactly once or a named test fails on the
unmutated copy.  Standard library only;
``tests/test_mutants.py`` keeps every fragment present in ``src/``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "signalgames"
TIMEOUT = 600                            # seconds per pytest run


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str                  # under src/signalgames
    fragment: str              # occurs exactly once in src/
    replacement: str
    tests: tuple               # pytest node ids, relative to the repository


MUTANTS = (
    Mutant("certify-row-guarantee", "lp.py",
           'raise LPError("row strategy fails its guarantee")', "pass",
           ("tests/test_lp.py::test_forged_vector_game_certificate_rejected",
            "tests/test_lp.py::test_forged_matrix_game_solution_rejected")),
    Mutant("certify-column-guarantee", "lp.py",
           'raise LPError("column strategy fails its guarantee")', "pass",
           ("tests/test_lp.py::test_forged_vector_game_certificate_rejected",
            "tests/test_lp.py::test_forged_matrix_game_solution_rejected")),
    Mutant("saddle-last-maximin-row", "lp.py",
           "return mins.index(lower), maxes.index(lower)",
           "return len(mins) - 1 - mins[::-1].index(lower), maxes.index(lower)",
           ("tests/test_identity.py",)),
    Mutant("verify-optimal-leq-dual-sign", "lp.py",
           "if y < 0:", "if False:",
           ("tests/test_lp.py::test_certificate_check_fails_branch_by_branch",)),
    Mutant("best-reply-fold", "seqform.py",
           "pick = min if responder == 2 else max",
           "pick = max if responder == 2 else min",
           ("tests/test_seqform.py::test_best_response_matches_history_walk",)),
    Mutant("realization-plan-flow", "seqform.py",
           "if total != plan2_vec[prog.p2.parent_seq[view]]:", "if False:",
           ("tests/test_seqform.py::test_forged_player2_plan_is_refused",)),
    Mutant("nondecreasing-with-slack", "errors.py",
           "if v1 < v0:", "if v1 < v0 - 1:",
           ("tests/test_claims.py::test_forged_decreasing_values_rejected_under_optimize",)),
    Mutant("budget-charge-at-limit", "errors.py",
           "if self.count > self.limit:", "if self.count >= self.limit:",
           ("tests/test_histories.py::test_budget_overrun_pinned",)),
    Mutant("kernel-one-member-skips-mass", "histories.py",
           "if h.mass == mass:", "if True:",
           ("tests/test_histories.py::test_one_member_observations_match_dense_oracle",)),
    Mutant("absorbing-without-stay-filter", "model.py",
           "if x2 == x) != self.D:", ") != self.D:",
           ("tests/test_model.py::test_absorbing_detection_matches_bruteforce",)),
)


def fragment_counts(root: Path, mutant: Mutant) -> tuple:
    """``(in its file, in all of src/)``: how often the fragment occurs."""
    in_file = (root / PACKAGE / mutant.file).read_text().count(mutant.fragment)
    total = sum(path.read_text().count(mutant.fragment)
                for path in (root / "src").rglob("*.py"))
    return in_file, total


def _copy(dest: Path) -> None:
    shutil.copytree(ROOT / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(ROOT / "games", dest / "games")


def _pytest(copy: Path, tests) -> int:
    """Exit code of pytest on ``tests`` with ``copy``'s package imported."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *tests]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return 1                         # a mutant that hangs is caught


def run(mutants) -> int:
    """Apply each of ``mutants`` in turn, print a verdict line per mutant,
    and return the exit status described above."""
    for m in mutants:
        if fragment_counts(ROOT, m) != (1, 1):
            print(f"fragment of {m.name} does not occur exactly once in src/")
            return 2
    tests = sorted({t for m in mutants for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        _copy(Path(tmp))
        if _pytest(Path(tmp), tests) != 0:
            print("the named tests fail on the unmutated copy")
            return 2
    survived = 0
    for m in mutants:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
            copy = Path(tmp)
            _copy(copy)
            path = copy / PACKAGE / m.file
            path.write_text(path.read_text().replace(m.fragment, m.replacement))
            code = _pytest(copy, m.tests)
        seconds = time.perf_counter() - start
        if code == 1:
            verdict = "killed"
        else:
            verdict = "SURVIVED" if code == 0 else f"error (pytest exit {code})"
            survived += 1
        print(f"{verdict:22} {m.name:32} {seconds:5.1f} s", flush=True)
    print(f"{len(mutants) - survived} of {len(mutants)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(run(MUTANTS))
