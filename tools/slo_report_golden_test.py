#!/usr/bin/env python3
"""Golden-output test for tools/slo_report.py.

Usage:
    slo_report_golden_test.py [--update]

Renders every metrics dump in tools/testdata/slo_report/*.json and compares
the report with the matching .golden file. The dumps are real
--metrics-json snapshots: bare_pipeline.json from pipeline_throughput (a
lone ThreadedPipeline provider, so its abort counters are the bare
"pipeline.abort.<cause>"), server_open_loop.json from fig18_skew_forensics
("server0.pipeline.abort.<cause>" plus the open-loop gauges), and
open_loop_only.json, the latter with the pipeline counters removed and a
busy count added. --update rewrites the golden files. Exit code 0 when
every report matches.
"""

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "testdata", "slo_report")
sys.path.insert(0, HERE)

import slo_report  # noqa: E402


def render(name):
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(DATA)  # The report's header names the path as given.
    try:
        with contextlib.redirect_stdout(out):
            ok = slo_report.report(name)
    finally:
        os.chdir(cwd)
    if not ok:
        raise ValueError(f"{name}: slo_report rejected the dump")
    return out.getvalue()


def main():
    update = "--update" in sys.argv[1:]
    dumps = sorted(f for f in os.listdir(DATA) if f.endswith(".json"))
    if not dumps:
        print("slo_report_golden_test: no dumps found", file=sys.stderr)
        return 1
    failed = 0
    for name in dumps:
        got = render(name)
        golden = os.path.join(DATA, name[:-len(".json")] + ".golden")
        if update:
            with open(golden, "w") as f:
                f.write(got)
            continue
        with open(golden) as f:
            want = f.read()
        if got != want:
            failed += 1
            print(f"MISMATCH {name}\n--- want\n{want}--- got\n{got}")
        else:
            print(f"ok {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
