"""Run every recorded CLI case through a command and compare stdout bytes and exit codes.

    python tests/golden_entry_point.py                           # the installed qscaling script
    python tests/golden_entry_point.py python -m qscaling.cli    # any other command

The cases and their recordings are ``CASES`` and ``GOLDEN`` of
``test_golden_output.py``, so a new golden is listed in one place. Prints
each case that differs and exits 1 if any does.
"""

import subprocess
import sys

from test_golden_output import CASES, GOLDEN


def main(command: list[str]) -> int:
    failed = 0
    for name, exit_code, argv in CASES:
        run = subprocess.run(command + argv, stdout=subprocess.PIPE)
        same_output = run.stdout == (GOLDEN / name).read_bytes()
        if run.returncode != exit_code or not same_output:
            failed += 1
            print(f"{name}: exit code {run.returncode} (recorded {exit_code}), same stdout: {same_output}")
    print(f"{len(CASES) - failed} of {len(CASES)} cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["qscaling"]))
