#!/usr/bin/env python
"""Figure 6 timeline: authen-then-fetch vs authen-then-issue for two
dependent external memory fetches.

Under authen-then-issue the dependent computation waits for the first
line's *verification*; under authen-then-fetch it runs on decrypted data
immediately and only the second fetch's bus grant waits.

Run:  python examples/timeline_fig6.py [compute_latency]
"""

import sys

from repro.experiments import fig6


def main():
    compute = int(sys.argv[1]) if len(sys.argv) > 1 else 30
    print(fig6.emit(compute_latency=compute)[0])
    print()
    print("Sweep of the compute latency between the two fetches:")
    print("%10s %22s %22s %10s" % ("compute", "issue finishes",
                                   "fetch finishes", "advantage"))
    for latency in (0, 10, 20, 40, 80, 160):
        timelines = fig6.run(compute_latency=latency)
        issue = timelines["authen-then-issue"].finish
        fetch = timelines["authen-then-fetch"].finish
        print("%10d %22d %22d %10d" % (latency, issue, fetch,
                                       issue - fetch))


if __name__ == "__main__":
    main()
