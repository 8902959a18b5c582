#!/usr/bin/env python3
"""Run the shipped scenarios and collect their outputs.

Thin wrapper over the same entry point as `higsni simulate`: every scenario
writes its trajectory CSV and report JSON into one directory and the script
prints a one-line summary per scenario.  The divergent gain demo is opt-in
since it is expected to abort with a runtime failure.
"""

import argparse
import json
import pathlib
import sys

from higsni.cli import EXIT_RUNTIME, main as cli_main

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
SCENARIOS = [
    "mass_spring_irc_k20",
    "mass_spring_irc_k5",
    "mass_spring_pii2",
    "mass_spring_irc_linear",
    "mass_spring_pii2_linear",
    "two_mode_collocated",
]


def run(name: str, out_dir: str) -> int:
    return cli_main(["simulate", str(CONFIG_DIR / f"{name}.json"),
                     "--out-dir", out_dir])


def summarize(name: str, code: int, out_dir: pathlib.Path) -> str:
    report_path = out_dir / f"{name}.report.json"
    if code == 0 and report_path.exists():
        report = json.loads(report_path.read_text())
        final = report["result"]["final_norm"]
        checks = " ".join(
            f"{check}={'ok' if rep['passed'] else 'FAIL'}"
            for check, rep in sorted(report["checks"].items()))
        return f"{name:26s} exit {code}  final |state| {final:9.4f}  {checks}"
    return f"{name:26s} exit {code}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="mass_spring_out",
                        help="directory for CSV and report files")
    parser.add_argument("--scenarios", nargs="*", default=SCENARIOS,
                        metavar="NAME", help="scenario names under configs/")
    parser.add_argument("--include-unstable", action="store_true",
                        help="also run the divergent gain demo "
                             "(expected to fail with a runtime error)")
    args = parser.parse_args(argv)
    out_dir = pathlib.Path(args.out_dir)

    ok = True
    for name in args.scenarios:
        code = run(name, args.out_dir)
        ok = ok and code == 0
        print(summarize(name, code, out_dir))
    if args.include_unstable:
        code = run("mass_spring_irc_unstable", args.out_dir)
        ok = ok and code == EXIT_RUNTIME
        print(f"{'mass_spring_irc_unstable':26s} exit {code}  "
              f"(runtime failure expected: {'yes' if code == EXIT_RUNTIME else 'NO'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
