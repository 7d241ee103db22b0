"""ClouDiA end-to-end benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload search-ll --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced pass;
``--trace 1`` runs an untraced pass (counts, untraced throughput) and a
traced pass (per-layer times) and prints the per-layer metrics.  The last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it starts with ``diagnostics`` and is not gated.  README.md
documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

WORKLOADS = ("search-ll", "search-lp", "serve-mixed", "redeploy-watch")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import common
    import inputs
    import metrics
    import workloads

    diagnostics = common.Diagnostics()
    kwargs = {}
    if args.workload == "serve-mixed":
        # The server's modules are not imported by the harness otherwise;
        # importing them here is the untimed start that writes their
        # bytecode caches before the timed cold starts.
        import repro.cli  # noqa: F401
        import repro.serve  # noqa: F401

        run_pass = workloads.serve_pass
        kwargs["schedule"] = (
            inputs.serve_schedule(args.seed, args.seconds),
            inputs.serve_schedule(args.seed, args.seconds, warmup=True))
    elif args.workload == "redeploy-watch":
        run_pass = workloads.watch_pass
    else:
        run_pass = workloads.search_pass

    extra = {}
    if not args.trace:
        if args.workload == "serve-mixed":
            # Three cold starts; the last server serves the timed pass.
            servers = []
            try:
                for _ in range(common.COLD_STARTS):
                    if servers:
                        servers[-1].stop()
                    servers.append(workloads.Server("serve.sqlite"))
                setup_s = statistics.median(s.setup_s for s in servers)
                result = run_pass(args.workload, args.seed, args.seconds,
                                  server=servers[-1], **kwargs)
            finally:
                for server in servers:
                    server.stop()
        else:
            setup_s = common.cold_start_s(
                "store" if args.workload == "redeploy-watch" else "session")
            result = run_pass(args.workload, args.seed, args.seconds,
                              **kwargs)
        reported = metrics.end_to_end(setup_s, result)
    else:
        import tracing

        untraced = run_pass(args.workload, args.seed, args.seconds, **kwargs)
        tracer = tracing.Tracer()
        if args.workload != "serve-mixed":
            tracing.install(tracer)
        result = run_pass(args.workload, args.seed, args.seconds,
                          tracer=tracer, **kwargs)
        if result.spans is None:
            result.spans = tracer.spans
        reported = metrics.per_layer(untraced, result)
        extra["traced_failed"] = result.failed
        result.failed += untraced.failed
        result.attempted += untraced.attempted
        result.notes += untraced.notes
    extra.update({
        "p50_class": common.class_at(result.samples, 50),
        "p90_class": common.class_at(result.samples, 90),
        "ops": len(result.samples),
        "notes": result.notes,
    })
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "diagnostics": diagnostics.finish(**extra),
              "metrics": reported}
    common.write_record(args.workload, args.seed, bool(args.trace), record)
    print("diagnostics " + json.dumps(record["diagnostics"], default=str))
    print(json.dumps({"correct": result.failed == 0,
                      "attempted": result.attempted,
                      "failed": result.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
