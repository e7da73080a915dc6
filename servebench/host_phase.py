#!/usr/bin/env python3
"""Host-phase measurement behind the benchmark's set-up sampling rule.

Runs `rpr check --jobs 1` back to back on a 56-fact S4 workspace (two
28-fact conflict chains, optimal candidate, so exact search runs to the
end; about 0.1 s of CPU a run) and reports how the per-run CPU time drifts:

* spread (IQR / median) of single runs,
* autocorrelation at lags 1, 10 and 50 runs,
* spread of the medians of consecutive 100-run blocks.

A high lag-1 autocorrelation with a low lag-50 one means host speed
drifts in phases of seconds: a short contiguous quantity (one set-up)
lands in one phase, so the benchmark samples set-up on fresh servers
spread through the run.

    python3 servebench/host_phase.py target/release/rpr [RUNS]
"""

import os
import resource
import statistics
import subprocess
import sys
import tempfile


def chain_workspace(chains=2, length=28):
    lines = ["relation R4/3", "fd R4: 1 -> 2", "fd R4: 2 -> 3"]
    facts = []
    for k in range(chains):
        chain = [f"R4(a{k}_{i // 2}, b{k}_{(i + 1) // 2}, c{k}_{i})" for i in range(length)]
        facts.append(chain)
        lines += [f"fact {f}" for f in chain]
    for chain in facts:
        lines += [f"prefer {chain[i - 1]} > {chain[i]}" for i in range(1, len(chain), 2)]
    lines.append("repair J: " + "; ".join(f for chain in facts for f in chain[::2]))
    return "\n".join(lines) + "\n"


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def autocorrelation(values, lag):
    mean = statistics.fmean(values)
    dev = [v - mean for v in values]
    num = sum(dev[i] * dev[i + lag] for i in range(len(dev) - lag))
    return num / sum(d * d for d in dev)


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    rpr, runs = sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2 else 600
    with tempfile.NamedTemporaryFile("w", suffix=".rpr", delete=False) as f:
        f.write(chain_workspace())
        path = f.name
    try:
        cpu = []
        for _ in range(runs):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            subprocess.run([rpr, "check", path, "J", "--jobs", "1"], check=True, stdout=subprocess.DEVNULL)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu.append((after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime))
    finally:
        os.unlink(path)
    blocks = [statistics.median(cpu[i:i + 100]) for i in range(0, runs - 99, 100)]
    print(f"runs: {runs}, median CPU {1e3 * statistics.median(cpu):.1f} ms per run")
    print(f"single-run spread (IQR/median): {spread(cpu):.3f}")
    for lag in (1, 10, 50):
        print(f"autocorrelation at lag {lag}: {autocorrelation(cpu, lag):.2f}")
    if len(blocks) >= 2:
        print(f"100-run block medians: {len(blocks)}, spread {spread(blocks) if len(blocks) >= 3 else float('nan'):.3f}, "
              f"max/min {max(blocks) / min(blocks):.3f}")


if __name__ == "__main__":
    main()
