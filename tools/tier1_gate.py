"""Run the tier-1 suite and pass only when the known red test fails and no
other test does.

    python3 tools/tier1_gate.py

The suite runs once, as ``tools/bench_record.py`` runs it (``_suite``).
The known red test checks a pooling claim that is false for mixtures (see
README), so it must fail, unmodified; a run where it passes, does not run,
or where any other test fails or errors exits 1.  Nothing is deselected
and nothing is marked as an expected failure.
"""

import sys

from bench_record import _suite


def main() -> int:
    suite = _suite()
    counts = suite["counts"]
    print(f"tier-1: {counts} in {suite['wall_s']} s")
    print(f"known red failed: {suite['known_red']['failed']} ({suite['known_red']['test']})")
    for test in suite["other_failures"]:
        print(f"other failure: {test}")
    ok = suite["known_red"]["failed"] and not suite["other_failures"] and counts.get("passed", 0) > 0
    print("gate " + ("passes" if ok else "fails"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
