#!/usr/bin/env python3
"""Validate an observability trace export (JSONL) against the schema.

Usage:
    tools/check_trace_schema.py TRACE.jsonl [...]

Checks every line of each file:
  - parses as a single JSON object;
  - "ph" is "span" or "instant";
  - spans carry {id, parent, cat, name, t0_ns, t1_ns, args},
    instants carry {id, parent, cat, name, t_ns, args} -- no extras;
  - ids are positive, strictly increasing (the TraceLog allocates them
    sequentially), and unique;
  - parent is 0 or a previously seen id (causality: parents open first);
  - timestamps are non-negative integers; a closed span has t1 >= t0;
  - args is a string->string object;
  - "ids"-category instants (the anomaly IDS deviation stream) use one
    of the six ANOMALY_* names and carry a well-formed "loc" argument.

Exit status: 0 when every file is clean, 1 otherwise. Used by the CI
obs-smoke leg on the defense_stacked and attack_port_probing
--trace-out exports and the anomaly-smoke leg on the bench_anomaly
deviation stream.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

SPAN_KEYS = {"ph", "id", "parent", "cat", "name", "t0_ns", "t1_ns", "args"}
INSTANT_KEYS = {"ph", "id", "parent", "cat", "name", "t_ns", "args"}

ANOMALY_NAMES = {
    "ANOMALY_PORT",
    "ANOMALY_TRANSITION",
    "ANOMALY_TRIGRAM",
    "ANOMALY_LLDP_SRC",
    "ANOMALY_RATE",
    "ANOMALY_DURATION",
}

LOC_RE = re.compile(r"^0x[0-9a-f]+:\d+$")


def check_file(path: Path) -> list[str]:
    errors: list[str] = []
    seen_ids: set[int] = set()
    last_id = 0

    def err(lineno: int, msg: str) -> None:
        errors.append(f"{path}:{lineno}: {msg}")

    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"{path}: unreadable: {exc}"]

    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            err(lineno, "blank line (JSONL must be dense)")
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            err(lineno, f"invalid JSON: {exc}")
            continue
        if not isinstance(rec, dict):
            err(lineno, "line is not a JSON object")
            continue

        ph = rec.get("ph")
        if ph == "span":
            expect = SPAN_KEYS
        elif ph == "instant":
            expect = INSTANT_KEYS
        else:
            err(lineno, f'"ph" must be "span" or "instant", got {ph!r}')
            continue
        if set(rec) != expect:
            missing = expect - set(rec)
            extra = set(rec) - expect
            detail = []
            if missing:
                detail.append(f"missing {sorted(missing)}")
            if extra:
                detail.append(f"unexpected {sorted(extra)}")
            err(lineno, f"{ph} keys: " + ", ".join(detail))
            continue

        rid = rec["id"]
        if not isinstance(rid, int) or rid <= 0:
            err(lineno, f'"id" must be a positive integer, got {rid!r}')
            continue
        if rid in seen_ids:
            err(lineno, f"duplicate id {rid}")
        if rid <= last_id:
            err(lineno, f"id {rid} not increasing (last was {last_id})")
        seen_ids.add(rid)
        last_id = max(last_id, rid)

        parent = rec["parent"]
        if not isinstance(parent, int) or parent < 0:
            err(lineno, f'"parent" must be a non-negative int, got {parent!r}')
        elif parent != 0 and parent not in seen_ids:
            err(lineno, f"parent {parent} not a previously seen id")

        for key in ("cat", "name"):
            if not isinstance(rec[key], str) or not rec[key]:
                err(lineno, f'"{key}" must be a non-empty string')

        if ph == "span":
            t0, t1 = rec["t0_ns"], rec["t1_ns"]
            if not isinstance(t0, int) or t0 < 0:
                err(lineno, f'"t0_ns" must be a non-negative int, got {t0!r}')
            if t1 is not None:
                if not isinstance(t1, int) or t1 < 0:
                    err(lineno,
                        f'"t1_ns" must be null or non-negative int, got {t1!r}')
                elif isinstance(t0, int) and t1 < t0:
                    err(lineno, f"span ends before it begins ({t1} < {t0})")
        else:
            t = rec["t_ns"]
            if not isinstance(t, int) or t < 0:
                err(lineno, f'"t_ns" must be a non-negative int, got {t!r}')

        args = rec["args"]
        if not isinstance(args, dict):
            err(lineno, '"args" must be an object')
        else:
            for k, v in args.items():
                if not isinstance(k, str) or not isinstance(v, str):
                    err(lineno, f"args entry {k!r}: {v!r} is not str->str")

        # Anomaly-IDS deviation stream: the "ids" category is reserved
        # for the six ANOMALY_* instants, each tagged with the deviating
        # port's location.
        if ph == "instant" and rec.get("cat") == "ids":
            name = rec.get("name")
            if name not in ANOMALY_NAMES:
                err(lineno, f'"ids" instant name {name!r} is not one of '
                            f"{sorted(ANOMALY_NAMES)}")
            if isinstance(args, dict):
                loc = args.get("loc")
                if not isinstance(loc, str) or not LOC_RE.match(loc):
                    err(lineno, f'"ids" instant "loc" {loc!r} is not a '
                                '"0x<dpid>:<port>" location')
                if not args.get("detail"):
                    err(lineno, '"ids" instant without a "detail" message')

    return errors


def main() -> int:
    argv = sys.argv[1:]
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    all_errors: list[str] = []
    for arg in argv:
        path = Path(arg)
        errs = check_file(path)
        if errs:
            all_errors.extend(errs)
        else:
            lines = sum(1 for _ in path.open(encoding="utf-8"))
            print(f"{path}: OK ({lines} records)")
    if all_errors:
        print(f"trace schema: {len(all_errors)} error(s)")
        for e in all_errors[:50]:
            print("  " + e)
        if len(all_errors) > 50:
            print(f"  ... and {len(all_errors) - 50} more")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
