#!/usr/bin/env python3
"""Self-test of the benchmark, on the short mode of every workload.

    python3 perfbench/selftest.py            # check
    python3 perfbench/selftest.py --record   # print digests.txt lines

Checks, per workload: the same seed gives identical digests (across
processes, and between traced and untraced ops); a different seed gives a
different digest; the default seed matches its committed digest with
ops_failed_frac 0; and every metric BENCHMARK.json names is printed with
its unit. --record prints the committed-digest lines for the default and
held-out seeds in short and full mode instead.
"""
import json
import os
import sys

import run

# Every workload the binary runs: BENCHMARK.json's, plus terascale_plane,
# which stays runnable by hand (see README.md, "Workloads").
WORKLOADS = ["gang_timeslice", "launch_storm", "terascale_plane",
             "recovery_observed"]
DEFAULT_SEED = 2002
HELD_OUT_SEED = 7919
OTHER_SEED = 1


def metric_lines(lines):
    """{name: unit} from the readable 'metric NAME VALUE UNIT' lines."""
    out = {}
    for l in lines:
        parts = l.split()
        if len(parts) >= 4 and parts[0] == "metric":
            out[parts[1]] = parts[3]
    return out


def digest_of(lines):
    for l in lines:
        if l.startswith("digest "):
            return l.split()[1]
    return None


def short_run(binary, workload, seed, trace, full=False, expect=True):
    extra = ["--min-ops", "1"] + ([] if full else ["--short"])
    rc, lines = run.run(binary, workload, seed, 0, trace, extra, expect)
    return rc, lines, run.result_of(lines)


def main():
    binary = run.build()
    if binary is None:
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = WORKLOADS

    if "--record" in sys.argv:
        for w in names:
            for full in (False, True):
                for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                    _, lines, res = short_run(binary, w, seed, 0, full,
                                              expect=False)
                    if not res or res["failed"]:
                        print("# %s seed %d FAILED" % (w, seed))
                        continue
                    print("%s %s %d %s" % (w, "full" if full else "short",
                                           seed, digest_of(lines)))
        return 0

    failures = []
    checks = [0]

    def check(ok, what):
        checks[0] += 1
        if not ok:
            print("FAIL " + what)
            failures.append(what)

    for w in names:
        print("checking " + w)
        rc0, l0, r0 = short_run(binary, w, DEFAULT_SEED, 0)
        rc1, l1, r1 = short_run(binary, w, DEFAULT_SEED, 1)
        rc2, l2, r2 = short_run(binary, w, OTHER_SEED, 0)
        check(rc0 == rc1 == rc2 == 0 and r0 and r1 and r2,
              "%s: every run prints a result" % w)
        if not (r0 and r1 and r2):
            continue
        d0, d1, d2 = digest_of(l0), digest_of(l1), digest_of(l2)
        check(d0 == d1, "%s: same seed, same digest (%s, %s)" % (w, d0, d1))
        check("traced digests equal untraced" in l1,
              "%s: traced ops reproduce the untraced digest" % w)
        check(d0 != d2, "%s: seeds %d and %d give different digests"
              % (w, DEFAULT_SEED, OTHER_SEED))
        check(any(l.endswith("matches committed") for l in l0),
              "%s: default seed matches its committed digest" % w)
        check(r0["correct"] and r0["failed"] == 0 and r1["failed"] == 0,
              "%s: ops_failed_frac is 0 at the default seed" % w)
        for kind, lines, res in (("end_to_end", l0, r0),
                                 ("per_layer", l1, r1)):
            printed = metric_lines(lines)
            for m in spec[kind]:
                ok = (printed.get(m["name"]) == m["unit"]
                      and res["metrics"].get(m["name"], {}).get("unit")
                      == m["unit"])
                check(ok, "%s: %s %s printed with unit %s"
                      % (w, kind, m["name"], m["unit"]))
            check(sorted(res["metrics"]) == sorted(m["name"]
                                                   for m in spec[kind]),
                  "%s: JSON holds exactly the %s metrics" % (w, kind))
    print("%d of %d checks failed" % (len(failures), checks[0]) if failures
          else "all %d checks passed" % checks[0])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
