# Local mirror of .github/workflows/ci.yml. Everything runs offline: the
# workspace has no registry dependencies, and CARGO_NET_OFFLINE makes any
# regression of that property an immediate error.

export CARGO_NET_OFFLINE := "true"

# Run the full CI gauntlet.
ci: fmt build test number-sweep lint deps cli-flags clippy docs golden-trace chaos serve-smoke serve-scale batch-scale bench-smoke sweep-smoke fleet-smoke fleet-scale

fmt:
    cargo fmt --all --check

build:
    cargo build --release --workspace

test:
    cargo test -q --workspace

# 1e8 random f64 bit patterns: the fmt-free number writer against
# `format!("{x}")`; 1e7 mutated lines: the flat-object splitter against
# its `str`-method oracle (mirrors the CI step; about a minute in release).
number-sweep:
    cargo test --release -p cloudsched-obs -- --ignored

# The rules clippy cannot express (L001, L002, L009) and the L004 manifest
# check; also runs as a tier-1 test. `just clippy` enforces the rest.
lint:
    cargo run --release -p cloudsched-cli -- lint

# Every `cloudsched-*` entry under a member's [dependencies] is named as
# `cloudsched_*` somewhere in that crate's src/ (mirrors the CI step): an
# unused edge only slows the build and hides the real crate graph.
deps:
    #!/usr/bin/env bash
    set -euo pipefail
    status=0
    for manifest in Cargo.toml crates/*/Cargo.toml; do
        dir=$(dirname "$manifest")
        deps=$(sed -n '/^\[dependencies\]/,/^\[/s/^\(cloudsched-[a-z-]*\)[ .=].*/\1/p' "$manifest")
        for dep in $deps; do
            name=${dep//-/_}
            if ! grep -rqw "$name" "$dir/src"; then
                echo "$manifest: $dep is a dependency, but $dir/src never names $name"
                status=1
            fi
        done
    done
    exit "$status"

# Every command rejects an unknown flag with exit 2 (mirrors the CI step).
cli-flags:
    #!/usr/bin/env bash
    set -euo pipefail
    cargo build --release -p cloudsched-cli
    cmds=$(target/release/cloudsched help | sed -n 's/^  cloudsched \([a-z-]*\) .*/\1/p')
    test -n "$cmds"
    for cmd in $cmds; do
        status=0
        target/release/cloudsched "$cmd" --no-such-flag > /dev/null 2>&1 || status=$?
        if [ "$status" -ne 2 ]; then
            echo "cloudsched $cmd --no-such-flag exited $status, expected 2"
            exit 1
        fi
    done

# Clippy with clippy.toml and the workspace lint table (mirrors the CI
# step): every warning fails, including an unfulfilled expectation in the
# moved rules' fixture (crates/lint/tests/clippy_fixture.rs).
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc with warnings denied (mirrors the CI step): every intra-doc link
# resolves, and no public doc links to a private item.
docs:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib

# Explain one rule: summary, scope, rationale, fix. E.g. `just lint-explain L009`.
lint-explain rule:
    cargo run --release -p cloudsched-cli -- lint --explain {{rule}}

# Certify a generated trace against Thm 2 / Def 4 / the SIII-A bijection.
audit lambda="8" seed="1":
    cargo run --release -p cloudsched-cli -- gen --lambda {{lambda}} --seed {{seed}} --out /tmp/cloudsched-trace.txt
    cargo run --release -p cloudsched-cli -- audit --trace /tmp/cloudsched-trace.txt

# Trace determinism gate: regenerate the golden instance's JSONL stream and
# byte-diff it against the checked-in golden (mirrors the CI step).
golden-trace:
    cargo run --release -p cloudsched-cli -- trace --lambda 12 --seed 7 --horizon 6 --scheduler vdover --out /tmp/golden-trace.jsonl
    diff -u tests/golden/trace_seed7_vdover.jsonl /tmp/golden-trace.jsonl

# Regenerate the checked-in golden trace after an *intentional* semantic change.
golden-trace-regen:
    cargo run --release -p cloudsched-cli -- trace --lambda 12 --seed 7 --horizon 6 --scheduler vdover --out tests/golden/trace_seed7_vdover.jsonl

# The paper's Table I, Figure 1 and the extra experiments at paper counts
# (800 / 200 / 200 / 50 runs), rewriting results/*.csv. Output does not
# depend on the thread count.
repro:
    cargo run --release -p cloudsched-cli -- repro --out results

# Span profile + tracing-overhead table (best of 10 runs per case).
profile:
    cargo run --release -p cloudsched-bench --bin profile

# Kernel hot-path benchmark: EDF / Dover / V-Dover at n ∈ {1e3 … 1e6},
# rewriting BENCH_kernel.json at the repo root (see DESIGN.md §10). Run on
# an otherwise-idle machine before updating the checked-in report.
bench:
    cargo run --release -p cloudsched-cli -- bench --out BENCH_kernel.json

# CI bench smoke: the quick sweep (n = 1e3, one rep) written to a scratch
# file — validates the benchmark harness and its JSON schema on every
# commit without gating on timing-sensitive numbers.
bench-smoke:
    cargo run --release -p cloudsched-cli -- bench --quick --out /tmp/bench-smoke.json

# Sweep-scale throughput benchmark: Monte-Carlo runs/sec of the Table-I
# panel, fresh vs reused workspaces across thread counts, rewriting
# BENCH_sweep.json at the repo root (see DESIGN.md §11). Run on an
# otherwise-idle machine before updating the checked-in report.
sweep:
    cargo run --release -p cloudsched-cli -- bench --suite sweep --out BENCH_sweep.json

# CI sweep smoke: the quick sweep configuration written to a scratch file —
# validates the harness, the digest invariance across modes/threads and the
# JSON schema, without gating on timing-sensitive numbers.
sweep-smoke:
    cargo run --release -p cloudsched-cli -- bench --suite sweep --quick --out /tmp/sweep-smoke.json

# Fleet-scaling benchmark: multi-machine fleet runs/sec across fleet sizes
# and thread counts, rewriting BENCH_fleet.json at the repo root (see
# DESIGN.md §16). The harness refuses to emit rows whose digests diverge
# across thread counts within a fleet size. Run on an otherwise-idle
# multi-core machine before updating the checked-in report.
fleet:
    cargo run --release -p cloudsched-cli -- bench --suite fleet --out BENCH_fleet.json

# CI fleet smoke (mirrors the CI step): the quick fleet configuration
# written to a scratch file — validates the harness, the cross-thread
# digest invariance and the JSON schema — plus one `cloudsched fleet` run
# per dispatch policy diffed byte-for-byte between serial and 2-thread
# execution, and the serial λ = 12 value table per policy (plus one dover
# run) diffed against its checked-in golden.
fleet-smoke:
    #!/usr/bin/env bash
    set -euo pipefail
    cargo run --release -p cloudsched-cli -- bench --suite fleet --quick --out /tmp/fleet-smoke.json
    for policy in rr llf p2c; do
        cargo run --release -p cloudsched-cli -- fleet --policy "$policy" --machines 4 --lambda 4 --horizon 12 --threads 1 > "/tmp/fleet-serial-$policy.txt"
        cargo run --release -p cloudsched-cli -- fleet --policy "$policy" --machines 4 --lambda 4 --horizon 12 --threads 2 > "/tmp/fleet-threaded-$policy.txt"
        diff -u "/tmp/fleet-serial-$policy.txt" "/tmp/fleet-threaded-$policy.txt"
        cargo run --release -p cloudsched-cli -- fleet --policy "$policy" --machines 4 --lambda 12 --horizon 20 --threads 1 > "/tmp/fleet-golden-$policy.txt"
        diff -u "tests/golden/fleet_m4_$policy.txt" "/tmp/fleet-golden-$policy.txt"
    done
    cargo run --release -p cloudsched-cli -- fleet --policy p2c --scheduler dover --machines 4 --lambda 12 --horizon 20 --threads 1 > /tmp/fleet-golden-p2c-dover.txt
    diff -u tests/golden/fleet_m4_p2c_dover.txt /tmp/fleet-golden-p2c-dover.txt

# Fleet scale gate (mirrors the CI step): a 1024-machine fleet (≈490k
# jobs, p2c dispatch) must finish within 3 s. Dispatch that reads O(1)
# machines per job takes well under a second; one that touches every
# machine on every tick takes several seconds.
fleet-scale:
    cargo build --release -p cloudsched-cli
    timeout 3 target/release/cloudsched fleet --machines 1024 --lambda 8 --horizon 60 --threads 2 > /tmp/fleet-scale.txt

# Value-loss ledger for one instance: where did the arrived value go?
# E.g. `just inspect 12 7` or `just inspect 8 1 --queues`.
inspect lambda="8" seed="1" *flags="":
    cargo run --release -p cloudsched-cli -- inspect --lambda {{lambda}} --seed {{seed}} {{flags}}

# Empirical competitive ratio vs the paper's Theorem 3 bounds.
inspect-ratio lambda="8" seed="1" seeds="3":
    cargo run --release -p cloudsched-cli -- inspect --ratio --lambda {{lambda}} --seed {{seed}} --seeds {{seeds}}

# Regenerate the checked-in golden ledger summary after an *intentional*
# change to the ledger's classification rules or report format.
golden-inspect-regen:
    cargo run --release -p cloudsched-cli -- inspect --lambda 12 --seed 7 --horizon 6 --scheduler vdover --in tests/golden/trace_seed7_vdover.jsonl > tests/golden/inspect_seed7_vdover.txt

# Compare fresh quick kernel, sweep and fleet runs against the checked-in
# reports (report-only in CI; run `just bench` / `just sweep` / `just fleet`
# on an idle machine for real numbers). bench-diff takes the suite from each
# report's `bench` field.
bench-diff tol="50":
    cargo run --release -p cloudsched-cli -- bench --quick --out /tmp/bench-smoke.json
    cargo run --release -p cloudsched-cli -- bench-diff --old BENCH_kernel.json --new /tmp/bench-smoke.json --tol {{tol}}
    cargo run --release -p cloudsched-cli -- bench --suite sweep --quick --out /tmp/sweep-smoke.json
    cargo run --release -p cloudsched-cli -- bench-diff --old BENCH_sweep.json --new /tmp/sweep-smoke.json --tol {{tol}}
    cargo run --release -p cloudsched-cli -- bench --suite fleet --quick --out /tmp/fleet-smoke.json
    cargo run --release -p cloudsched-cli -- bench-diff --old BENCH_fleet.json --new /tmp/fleet-smoke.json --tol {{tol}}

# Crash-recovery smoke (mirrors the CI kill-and-recover step): serve the
# checked-in golden stream to completion, then serve it again with a seeded
# crash mid-stream and recover from the journal — both the uninterrupted
# and the recovered ledger + commitment audit must match the checked-in
# golden byte-for-byte, and `recover` must report the 18 arrivals the
# crashed run journaled.
serve-smoke:
    cargo run --release -p cloudsched-cli -- serve --in tests/golden/stream_small.jsonl --scheduler vdover --k 7 --snapshot-every 8 --journal /tmp/serve-smoke-full.wal > /tmp/serve-smoke-full.txt
    diff -u tests/golden/serve_stream_small.txt /tmp/serve-smoke-full.txt
    cargo run --release -p cloudsched-cli -- serve --in tests/golden/stream_small.jsonl --scheduler vdover --k 7 --snapshot-every 8 --journal /tmp/serve-smoke-crash.wal --crash-after 17
    cargo run --release -p cloudsched-cli -- recover --journal /tmp/serve-smoke-crash.wal --in tests/golden/stream_small.jsonl > /tmp/serve-smoke-recovered.txt 2> /tmp/serve-smoke-recover.err
    diff -u tests/golden/serve_stream_small.txt /tmp/serve-smoke-recovered.txt
    grep -F "vdover, 18 journaled arrivals" /tmp/serve-smoke-recover.err
    just serve-cotimed

# Co-timed crash drill (part of the CI smoke step): releases and deadlines
# on a quarter-unit grid, every fifth arrival (0-based 5k+4) an exact
# duplicate of the one before it at the same instant; crash right after
# duplicate 204, recover, and match the uninterrupted run.
serve-cotimed:
    #!/usr/bin/env bash
    set -euo pipefail
    python3 -c '
    import random
    rng = random.Random(20110516)
    t = 0.0
    for _ in range(100):
        for _ in range(4):
            t += rng.choice([0.0, 0.0, 0.25, 0.5])
            w = 0.25 * rng.randint(2, 12)
            p = w * rng.uniform(0.3, 0.9)
            line = "{\"r\":%.2f,\"d\":%.2f,\"p\":%.6f,\"v\":%.6f}" % (t, t + w, p, p * rng.uniform(1.0, 2.0))
            print(line)
        print(line)
    ' > /tmp/serve-cotimed.jsonl
    cargo run --release -p cloudsched-cli -- serve --in /tmp/serve-cotimed.jsonl --scheduler vdover --k 7 --snapshot-every 8 --journal /tmp/serve-cotimed-full.wal > /tmp/serve-cotimed-full.txt
    cargo run --release -p cloudsched-cli -- serve --in /tmp/serve-cotimed.jsonl --scheduler vdover --k 7 --snapshot-every 8 --journal /tmp/serve-cotimed-crash.wal --crash-after 204
    cargo run --release -p cloudsched-cli -- recover --journal /tmp/serve-cotimed-crash.wal --in /tmp/serve-cotimed.jsonl > /tmp/serve-cotimed-recovered.txt
    diff -u /tmp/serve-cotimed-full.txt /tmp/serve-cotimed-recovered.txt

# Serve scale gate (mirrors the CI step): a deterministic 1e5-arrival λ=8
# stream through `serve` must finish within 60 s with no journal and again
# with a tmpfs journal snapshotting every 1000 arrivals, and that journal
# must stay within 1000 B per arrival. A linear service takes seconds; a
# per-arrival cost that grows with the stream (Θ(n²) overall) takes
# minutes, and snapshots that re-encode every job exceed the byte bound.
serve-scale:
    #!/usr/bin/env bash
    set -euo pipefail
    python3 -c '
    import random
    rng = random.Random(20110516)
    t = 0.0
    for _ in range(100000):
        t += rng.expovariate(8.0)
        p = rng.uniform(0.05, 2.0)
        d = t + p * rng.uniform(1.0, 4.0)
        v = p * rng.uniform(1.0, 7.0)
        print("{\"r\":%.6f,\"d\":%.6f,\"p\":%.6f,\"v\":%.6f}" % (t, d, p, v))
    ' > /tmp/serve-scale.jsonl
    cargo build --release -p cloudsched-cli
    timeout 60 target/release/cloudsched serve --in /tmp/serve-scale.jsonl --scheduler vdover --k 7 > /tmp/serve-scale.txt
    timeout 60 target/release/cloudsched serve --in /tmp/serve-scale.jsonl --scheduler vdover --k 7 \
        --journal /dev/shm/serve-scale.wal --snapshot-every 1000 > /tmp/serve-scale-wal.txt
    cmp /tmp/serve-scale.txt /tmp/serve-scale-wal.txt
    bytes=$(stat -c %s /dev/shm/serve-scale.wal)
    echo "journal: $bytes B for 100000 arrivals ($((bytes / 100000)) B/arrival)"
    rm -f /dev/shm/serve-scale.wal
    test "$bytes" -le 100000000

# Batch scale gate (mirrors the CI step): a deterministic ≈1e6-job trace
# in the paper's shape (λ = 8 over 125,000 time units, zero conservative
# laxity) through `run --scheduler edf,vdover` must peak within 160 MiB
# resident. Seeding each job at its release keeps the event queue at the
# live set (≈95 MiB peak); pre-pushing 2n events peaks at ≈305 MiB.
batch-scale:
    #!/usr/bin/env bash
    set -euo pipefail
    python3 -c '
    import random
    rng = random.Random(20110516)
    H = 125000.0
    print("# cloudsched trace v1")
    print("bounds 1 35")
    t, rate = 0.0, 35
    while t < H:
        print("cap %.6f %d" % (t, rate))
        t += rng.expovariate(1.0 / 50.0)
        rate = 36 - rate
    t = 0.0
    while True:
        t += rng.expovariate(8.0)
        if t >= H:
            break
        p = rng.uniform(0.05, 2.0)
        print("job %.6f %.6f %.6f %.6f" % (t, t + p, p, p * rng.uniform(1.0, 7.0)))
    ' > /tmp/batch-scale.txt
    cargo build --release -p cloudsched-cli
    python3 -c '
    import resource, subprocess
    subprocess.run(["target/release/cloudsched", "run", "--trace",
                    "/tmp/batch-scale.txt", "--scheduler", "edf,vdover"], check=True)
    mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024
    print("peak RSS: %d MiB" % mib)
    assert mib <= 160, "batch run peaked at %d MiB; the bound is 160" % mib
    '

# Regenerate the checked-in golden service ledger after an *intentional*
# change to the admission service, the ledger, or the commitment audit.
serve-golden-regen:
    cargo run --release -p cloudsched-cli -- serve --in tests/golden/stream_small.jsonl --scheduler vdover --k 7 --snapshot-every 8 > tests/golden/serve_stream_small.txt

# Chaos smoke: run a fixed-seed fault-injection campaign twice and byte-diff
# the fault traces — zero panics, deterministic fault sequence (mirrors CI).
chaos:
    cargo run --release -p cloudsched-cli -- chaos --lambda 6 --seed 3 --seeds 2 --plan harsh --trace-out /tmp/chaos-trace-a.jsonl
    cargo run --release -p cloudsched-cli -- chaos --lambda 6 --seed 3 --seeds 2 --plan harsh --trace-out /tmp/chaos-trace-b.jsonl
    diff -u /tmp/chaos-trace-a.jsonl /tmp/chaos-trace-b.jsonl
    diff -u tests/golden/chaos_seed3_degrade.jsonl /tmp/chaos-trace-a.jsonl

# Regenerate the checked-in golden chaos trace after an *intentional* change
# to fault injection or the degradation layer.
chaos-golden-regen:
    cargo run --release -p cloudsched-cli -- chaos --lambda 6 --seed 3 --seeds 1 --plan harsh --policy degrade --trace-out tests/golden/chaos_seed3_degrade.jsonl
