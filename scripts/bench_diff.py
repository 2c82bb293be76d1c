#!/usr/bin/env python3
"""Compare two benchmark JSON files from the same bench binary.

Understands BENCH_signatures.json (bench_fig8_signatures),
BENCH_historical.json (bench_historical), BENCH_observe.json
(bench_observe), BENCH_snapshots.json (bench_snapshots),
BENCH_exec.json (bench_table5_modes exec-worker sweep),
BENCH_net.json (bench_net live closed-loop load),
BENCH_smallbank.json (bench_smallbank SmallBank sweep) and the JSON that
google-benchmark binaries write with --benchmark_format=json or
--benchmark_out=FILE (e.g. BENCH_crypto.json from bench_ablation_crypto:
benchmarks matched by name, cpu_time compared, lower is better); the
format is detected from the file contents.

Usage:
    scripts/bench_diff.py OLD.json NEW.json [--threshold PCT]

Prints per-metric deltas, flagging regressions beyond the threshold
(default 10%). Exit code is 1 when any flagged metric regressed, so it can
gate CI. A missing baseline file is not an error (exit 0 with a notice):
the first run of a new bench has nothing to compare against. Metrics
present on only one side are reported and skipped, never crashed on.

Stdlib only.
"""

import argparse
import json
import statistics
import sys


def load(path, role):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        print(f"note: {role} file {path} does not exist; "
              "nothing to compare (not an error on a first run)")
        return None
    except json.JSONDecodeError as e:
        print(f"note: {role} file {path} is not valid JSON ({e}); "
              "skipping comparison")
        return None


def fmt_delta(old, new):
    if old == 0:
        return "   n/a"
    pct = 100.0 * (new - old) / old
    return f"{pct:+6.1f}%"


def gbench_cpu_ns(doc):
    """name -> cpu_time in ns from a google-benchmark JSON document. With
    --benchmark_repetitions the median aggregate wins; repeated iteration
    rows without one are reduced to their median."""
    to_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    runs, medians = {}, {}
    for b in doc.get("benchmarks", []):
        if "cpu_time" not in b:
            continue
        name = b.get("run_name", b.get("name"))
        t = b["cpu_time"] * to_ns.get(b.get("time_unit", "ns"), 1.0)
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[name] = t
            continue
        runs.setdefault(name, []).append(t)
    out = {name: statistics.median(ts) for name, ts in runs.items()}
    out.update(medians)
    return out


def key_of(row):
    return (row.get("worker_threads"), row.get("worker_async"),
            row.get("interval"))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="flag regressions beyond this percentage")
    args = ap.parse_args()

    old, new = load(args.old, "baseline"), load(args.new, "new")
    if old is None or new is None:
        return 0
    regressions = []

    def check(name, old_v, new_v, lower_is_better):
        if old_v is None or new_v is None:
            side = "new run" if old_v is None else "baseline"
            print(f"  {name:<44} (only in {side}; skipped)")
            return
        delta = fmt_delta(old_v, new_v)
        worse = (new_v > old_v) if lower_is_better else (new_v < old_v)
        flag = ""
        if old_v > 0 and worse and \
                abs(new_v - old_v) / old_v * 100.0 > args.threshold:
            flag = "  <-- regression"
            regressions.append(name)
        print(f"  {name:<44} {old_v:>12.2f} {new_v:>12.2f} {delta}{flag}")

    if old.get("smoke") != new.get("smoke"):
        print("WARNING: comparing a smoke run against a full run; "
              "deltas are not meaningful as absolutes")

    # google-benchmark JSON (bench_ablation_* with --benchmark_format=json):
    # rows matched by benchmark name, cpu_time per iteration.
    if "benchmarks" in old or "benchmarks" in new:
        print(f"{'cpu time per iteration (ns; lower is better)':<46} "
              f"{'old':>12} {'new':>12}")
        old_t, new_t = gbench_cpu_ns(old), gbench_cpu_ns(new)
        for name in list(new_t) + [n for n in old_t if n not in new_t]:
            check(name, old_t.get(name), new_t.get(name),
                  lower_is_better=True)
        if regressions:
            print(f"\n{len(regressions)} metric(s) regressed beyond "
                  f"{args.threshold:.0f}%:")
            for r in regressions:
                print(f"  - {r}")
            return 1
        print("\nno regressions beyond threshold")
        return 0

    # BENCH_historical.json (bench_historical): flat sections of scalars.
    if "cold" in old or "cold" in new:
        print(f"{'historical queries':<46} {'old':>12} {'new':>12}")
        sections = (
            ("cold", (("wall_ms", True), ("verify_per_s", False),
                      ("fetch_round_trips", True))),
            ("warm", (("wall_ms", True), ("speedup_vs_cold", False))),
            ("churn", (("wall_ms", True), ("fetches", True),
                       ("evictions", True))),
        )
        for section, metrics in sections:
            old_s, new_s = old.get(section, {}), new.get(section, {})
            for metric, lower_is_better in metrics:
                if metric not in old_s and metric not in new_s:
                    continue
                check(f"{section} {metric}", old_s.get(metric),
                      new_s.get(metric), lower_is_better)
        if regressions:
            print(f"\n{len(regressions)} metric(s) regressed beyond "
                  f"{args.threshold:.0f}%:")
            for r in regressions:
                print(f"  - {r}")
            return 1
        print("\nno regressions beyond threshold")
        return 0

    # BENCH_snapshots.json (bench_snapshots): per-mode row lists keyed by
    # ledger length.
    if "join" in old or "join" in new:
        print(f"{'join time (s; lower is better)':<46} "
              f"{'old':>12} {'new':>12}")
        old_j, new_j = old.get("join", {}), new.get("join", {})
        for mode in ("snapshot", "replay"):
            old_rows = {r.get("ledger_entries"): r
                        for r in old_j.get(mode, [])}
            for row in new_j.get(mode, []):
                n = row.get("ledger_entries")
                prev = old_rows.get(n)
                if prev is None:
                    print(f"  (new config: {mode} ledger={n})")
                    continue
                label = f"{mode} ledger={n}"
                check(f"{label} wall_seconds", prev.get("wall_seconds"),
                      row.get("wall_seconds"), lower_is_better=True)
                check(f"{label} entries_replayed",
                      prev.get("entries_replayed"),
                      row.get("entries_replayed"), lower_is_better=True)
        if regressions:
            print(f"\n{len(regressions)} metric(s) regressed beyond "
                  f"{args.threshold:.0f}%:")
            for r in regressions:
                print(f"  - {r}")
            return 1
        print("\nno regressions beyond threshold")
        return 0

    # BENCH_observe.json (bench_observe): flat sections of scalars.
    if "hotpath" in old or "hotpath" in new:
        print(f"{'observability subsystem':<46} {'old':>12} {'new':>12}")
        sections = (
            ("hotpath", (("counter_ns", True), ("gauge_ns", True),
                         ("histogram_ns", True))),
            ("service", (("tx_per_s", False), ("rpc_p50_us", True),
                         ("rpc_p99_us", True))),
            ("exposition", (("to_json_ms", True),
                            ("to_prometheus_ms", True))),
        )
        for section, metrics in sections:
            old_s, new_s = old.get(section, {}), new.get(section, {})
            for metric, lower_is_better in metrics:
                if metric not in old_s and metric not in new_s:
                    continue
                check(f"{section} {metric}", old_s.get(metric),
                      new_s.get(metric), lower_is_better)
        if regressions:
            print(f"\n{len(regressions)} metric(s) regressed beyond "
                  f"{args.threshold:.0f}%:")
            for r in regressions:
                print(f"  - {r}")
            return 1
        print("\nno regressions beyond threshold")
        return 0

    # BENCH_net.json (bench_net): closed-loop live-cluster rows keyed by
    # (connections, pipeline). Throughput is higher-is-better; latency
    # percentiles are lower-is-better.
    if "net" in old or "net" in new:
        print(f"{'live closed-loop load':<46} {'old':>12} {'new':>12}")
        old_rows = {(r.get("connections"), r.get("pipeline")): r
                    for r in old.get("net", [])}
        for row in new.get("net", []):
            k = (row.get("connections"), row.get("pipeline"))
            prev = old_rows.get(k)
            if prev is None:
                print(f"  (new config: conns={k[0]} pipeline={k[1]})")
                continue
            label = f"conns={k[0]} pipeline={k[1]}"
            check(f"{label} tx_per_s", prev.get("tx_per_s"),
                  row.get("tx_per_s"), lower_is_better=False)
            check(f"{label} p50_us", prev.get("p50_us"),
                  row.get("p50_us"), lower_is_better=True)
            check(f"{label} p99_us", prev.get("p99_us"),
                  row.get("p99_us"), lower_is_better=True)
        if regressions:
            print(f"\n{len(regressions)} metric(s) regressed beyond "
                  f"{args.threshold:.0f}%:")
            for r in regressions:
                print(f"  - {r}")
            return 1
        print("\nno regressions beyond threshold")
        return 0

    # BENCH_smallbank.json (bench_smallbank): rows keyed by
    # (exec_threads, skew). Throughput is higher-is-better; the conflict
    # and abort rates are workload-determined, so they are printed for
    # context, not gated.
    if "smallbank" in old or "smallbank" in new:
        print(f"{'SmallBank sweep':<46} {'old':>12} {'new':>12}")
        old_rows = {(r.get("exec_threads"), r.get("skew")): r
                    for r in old.get("smallbank", [])}
        for row in new.get("smallbank", []):
            k = (row.get("exec_threads"), row.get("skew"))
            prev = old_rows.get(k)
            if prev is None:
                print(f"  (new config: exec_threads={k[0]} skew={k[1]})")
                continue
            label = f"exec_threads={k[0]} skew={k[1]}"
            check(f"{label} tx_per_s", prev.get("tx_per_s"),
                  row.get("tx_per_s"), lower_is_better=False)
            for rate in ("conflict_rate", "abort_rate"):
                old_r, new_r = prev.get(rate), row.get(rate)
                if old_r is not None or new_r is not None:
                    print(f"  {label + ' ' + rate + ' (info)':<44} "
                          f"{old_r if old_r is not None else float('nan'):>12.3f} "
                          f"{new_r if new_r is not None else float('nan'):>12.3f}")
        if regressions:
            print(f"\n{len(regressions)} metric(s) regressed beyond "
                  f"{args.threshold:.0f}%:")
            for r in regressions:
                print(f"  - {r}")
            return 1
        print("\nno regressions beyond threshold")
        return 0

    # BENCH_exec.json (bench_table5_modes exec-worker sweep): rows keyed
    # by exec_threads. Throughputs are higher-is-better; the conflict rate
    # is workload-determined, so it is printed for context, not gated.
    if "exec" in old or "exec" in new:
        print(f"{'exec-worker sweep':<46} {'old':>12} {'new':>12}")
        old_rows = {r.get("exec_threads"): r for r in old.get("exec", [])}
        for row in new.get("exec", []):
            w = row.get("exec_threads")
            prev = old_rows.get(w)
            if prev is None:
                print(f"  (new config: exec_threads={w})")
                continue
            label = f"exec_threads={w}"
            check(f"{label} read_tx_per_s", prev.get("read_tx_per_s"),
                  row.get("read_tx_per_s"), lower_is_better=False)
            check(f"{label} mixed_tx_per_s", prev.get("mixed_tx_per_s"),
                  row.get("mixed_tx_per_s"), lower_is_better=False)
            old_cr = prev.get("conflict_rate")
            new_cr = row.get("conflict_rate")
            if old_cr is not None or new_cr is not None:
                print(f"  {label + ' conflict_rate (info)':<44} "
                      f"{old_cr if old_cr is not None else float('nan'):>12.3f} "
                      f"{new_cr if new_cr is not None else float('nan'):>12.3f}")
        if regressions:
            print(f"\n{len(regressions)} metric(s) regressed beyond "
                  f"{args.threshold:.0f}%:")
            for r in regressions:
                print(f"  - {r}")
            return 1
        print("\nno regressions beyond threshold")
        return 0

    print(f"{'latency (us; lower is better)':<46} {'old':>12} {'new':>12}")
    old_lat = {key_of(r): r for r in old.get("latency", [])}
    for row in new.get("latency", []):
        prev = old_lat.get(key_of(row))
        if prev is None:
            print(f"  (new config: {row.get('label')})")
            continue
        label = row.get("label", "?")
        for metric in ("p50_us", "p99_us", "mean_spike_us", "spike_ratio"):
            if metric not in prev and metric not in row:
                continue
            check(f"{label} {metric}", prev.get(metric),
                  row.get(metric), lower_is_better=True)

    print(f"\n{'throughput (tx/s; higher is better)':<46} "
          f"{'old':>12} {'new':>12}")
    old_tput = {key_of(r): r for r in old.get("throughput", [])}
    for row in new.get("throughput", []):
        prev = old_tput.get(key_of(row))
        if prev is None:
            continue
        name = (f"workers={row.get('worker_threads')}"
                f"{'+async' if row.get('worker_async') else ''} "
                f"interval={row.get('interval')}")
        check(name, prev.get("tx_per_s", 0), row.get("tx_per_s", 0),
              lower_is_better=False)

    print(f"\n{'audit replay':<46} {'old':>12} {'new':>12}")
    old_a, new_a = old.get("audit_replay", {}), new.get("audit_replay", {})
    if old_a and new_a:
        check("serial_ms", old_a.get("serial_ms", 0),
              new_a.get("serial_ms", 0), lower_is_better=True)
        check("batch_ms", old_a.get("batch_ms", 0),
              new_a.get("batch_ms", 0), lower_is_better=True)
        check("speedup", old_a.get("speedup", 0),
              new_a.get("speedup", 0), lower_is_better=False)

    if regressions:
        print(f"\n{len(regressions)} metric(s) regressed beyond "
              f"{args.threshold:.0f}%:")
        for r in regressions:
            print(f"  - {r}")
        return 1
    print("\nno regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
