#!/usr/bin/env python3
"""A flag the binary cannot act on must fail loudly, not run the defaults.

Runs BINARY FLAG and requires exit 2, nothing on stdout and a stderr
that names the flag. FLAG defaults to --no-such-flag, which the strict
parser in src/scenario/cli.hpp rejects: that case also requires the
list of valid flags on stderr. Any other FLAG is either a flag of the
shared example set that this example does not take
(examples/example_util.hpp), which the same parser rejects, so stderr
must also list the valid flags and that list must not name the flag;
or a --modules=+NAME/-NAME listener name that is not in the chain. An
example resolves listener names only once it has built its controller,
after its banner, so that case may print the banner; stderr must quote
the name. CMake registers one ctest per flag-taking bench and example,
plus one per such case.

Run: python3 tests/unknown_flag_test.py build/examples/quickstart [FLAG]
"""

import subprocess
import sys

UNKNOWN = "--no-such-flag"


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit("usage: unknown_flag_test.py BINARY [FLAG]")
    binary = sys.argv[1]
    flag = sys.argv[2] if len(sys.argv) == 3 else UNKNOWN
    proc = subprocess.run([binary, flag], capture_output=True, text=True,
                          timeout=60)
    name, _, value = flag.partition("=")
    listeners = []
    if name == "--modules":
        listeners = [t[1:] for t in value.split(",") if t[:1] in ("+", "-")]
    if flag == UNKNOWN:
        wanted = [f"'{flag}'", "valid flags:"]
    elif listeners:
        wanted = [name] + [f"'{listener}'" for listener in listeners]
    else:
        wanted = [name, "valid flags:"]
    problems = []
    if proc.returncode != 2:
        problems.append(f"exit status {proc.returncode}, want 2")
    if proc.stdout and not listeners:
        problems.append(f"{len(proc.stdout.splitlines())} lines on stdout, "
                        "want none")
    missing = [w for w in wanted if w not in proc.stderr]
    if missing:
        problems.append(f"stderr lacks {missing}")
    for line in proc.stderr.splitlines():
        if line.startswith("valid flags:") and name in line.split()[2:]:
            problems.append(f"valid flags list {name}: {line}")
    for problem in problems:
        print(f"{binary} {flag}: {problem}")
    if problems:
        print(f"stderr was:\n{proc.stderr}")
        sys.exit(1)


if __name__ == "__main__":
    main()
