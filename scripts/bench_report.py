#!/usr/bin/env python3
"""Merge a cnp_load report and criterion logs into one BENCH_<n>.json.

The output is the per-PR performance trajectory file: the load harness's
wire-level latency/QPS numbers next to the key in-process criterion
means, so regressions show up as a diff against the committed file.

Usage:
    bench_report.py --pr 8 --load /tmp/load_report.json \
        --criterion /tmp/criterion.log [--criterion more.log] \
        [--snapshot-file v3=/tmp/cnp.snapshot] \
        --out BENCH_8.json

Each --snapshot-file NAME=PATH records the file's on-disk byte size under
"snapshotBytes".

Only the standard library is used; the criterion lines parsed are the
vendored harness's summary format, whose figure is the mean time per
iteration over the timed samples (kept under the "criterionNsPerIter"
key):

    group/bench/param    14161133.0 ns/iter (10 iters)
"""

import argparse
import json
import os
import re
import sys

CRITERION_LINE = re.compile(
    r"^\s*(?P<name>\S+)\s+(?P<ns>\d+(?:\.\d+)?)\s+ns/iter\s+\((?P<iters>\d+)\s+iters?\)\s*$"
)


def parse_criterion(paths):
    means = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                match = CRITERION_LINE.match(line)
                if match:
                    means[match.group("name")] = float(match.group("ns"))
    return means


def snapshot_sizes(specs):
    sizes = {}
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise SystemExit(f"bench_report: bad --snapshot-file {spec!r} (want NAME=PATH)")
        sizes[name] = os.path.getsize(path)
    return sizes


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pr", type=int, required=True, help="PR number for the trajectory")
    parser.add_argument("--load", required=True, help="cnp_load --out report")
    parser.add_argument(
        "--criterion",
        action="append",
        default=[],
        help="criterion log file (repeatable)",
    )
    parser.add_argument(
        "--snapshot-file",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="record a snapshot file's byte size under snapshotBytes (repeatable)",
    )
    parser.add_argument("--out", required=True, help="output BENCH_<n>.json path")
    args = parser.parse_args()

    with open(args.load, encoding="utf-8") as fh:
        load = json.load(fh)

    if load.get("counts", {}).get("protocolError", 0):
        print("bench_report: load report contains protocol errors", file=sys.stderr)
        return 1

    criterion = parse_criterion(args.criterion)
    if args.criterion and not criterion:
        print("bench_report: criterion logs yielded no parseable lines", file=sys.stderr)
        return 1

    sizes = snapshot_sizes(args.snapshot_file)

    report = {
        "pr": args.pr,
        "kind": "serving-load-smoke",
        "load": load,
        "criterionNsPerIter": dict(sorted(criterion.items())),
    }
    if sizes:
        report["snapshotBytes"] = dict(sorted(sizes.items()))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, ensure_ascii=False, sort_keys=False)
        fh.write("\n")
    print(f"bench_report: wrote {args.out} ({len(criterion)} criterion entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
