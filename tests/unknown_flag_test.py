#!/usr/bin/env python3
"""A typo'd flag must fail loudly, not run the defaults.

Runs BINARY --no-such-flag and requires exit 2, nothing on stdout, and
a stderr that names the flag and lists the valid ones (the strict
parser in src/scenario/cli.hpp). CMake registers one ctest per
flag-taking bench and example.

Run: python3 tests/unknown_flag_test.py build/examples/quickstart
"""

import subprocess
import sys


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: unknown_flag_test.py BINARY")
    proc = subprocess.run([sys.argv[1], "--no-such-flag"],
                          capture_output=True, text=True, timeout=60)
    problems = []
    if proc.returncode != 2:
        problems.append(f"exit status {proc.returncode}, want 2")
    if proc.stdout:
        problems.append(f"{len(proc.stdout.splitlines())} lines on stdout, "
                        "want none")
    if ("'--no-such-flag'" not in proc.stderr
            or "valid flags:" not in proc.stderr):
        problems.append("stderr does not name the flag and list the valid "
                        "flags")
    for problem in problems:
        print(f"{sys.argv[1]} --no-such-flag: {problem}")
    if problems:
        print(f"stderr was:\n{proc.stderr}")
        sys.exit(1)


if __name__ == "__main__":
    main()
