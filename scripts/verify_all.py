#!/usr/bin/env python3
"""Run the full property suite over every built-in catalog instance.

    python scripts/verify_all.py [--slow] [--seed N]

Prints one summary line per instance, and for each failing check its
witness as JSON, with sorted keys as `coxfold verify` prints it.
Exit status 0 only if every check of every instance passes.
"""

import argparse
import json
import sys
import time

from coxfold.catalog import CATALOG
from coxfold.coxeter import parse_input, parse_number
from coxfold.folding import Automorphism
from coxfold.verify import VerifyConfig, property_suite
from coxfold.words import CoxeterGroup


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--slow", action="store_true")
    parser.add_argument("--seed", default="0")
    args = parser.parse_args()
    seed = parse_number(args.seed)
    if seed is None:
        parser.error(f"bad --seed value {args.seed!r}: expected ASCII digits")

    all_ok = True
    for entry in CATALOG:
        if entry.slow and not args.slow:
            continue
        parsed = parse_input(entry.input_text)
        group = CoxeterGroup(parsed.matrix)
        autos = [Automorphism(images) for _, images in parsed.autos]
        t0 = time.perf_counter()
        report = property_suite(group, autos, VerifyConfig(seed=seed))
        status = "PASS" if report.passed else "FAIL"
        print(f"{entry.name:24s} {status}  ({time.perf_counter() - t0:.1f}s)")
        if not report.passed:
            all_ok = False
            for c in report.checks:
                if c.status == "fail":
                    witness = json.dumps(c.witness, sort_keys=True)
                    print(f"  [fail] {c.name}: {witness}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
