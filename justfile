# Local mirror of .github/workflows/ci.yml. Everything runs offline: the
# workspace has no registry dependencies, and CARGO_NET_OFFLINE makes any
# regression of that property an immediate error.

export CARGO_NET_OFFLINE := "true"

# Run the full CI gauntlet.
ci: fmt build bench-check test lint golden-trace chaos serve-smoke serve-scale bench-smoke sweep-smoke fleet-smoke

fmt:
    cargo fmt --all --check

build:
    cargo build --release --workspace

bench-check:
    cargo check --benches --workspace

test:
    cargo test -q --workspace

# Workspace static analysis (rules L001–L011); also runs as a tier-1 test.
lint:
    cargo run --release -p cloudsched-lint

# Machine-readable lint report (the artifact CI uploads).
lint-json:
    cargo run --release -p cloudsched-lint -- --json

# Explain one rule: summary, scope, rationale, fix. E.g. `just lint-explain L007`.
lint-explain rule:
    cargo run --release -p cloudsched-lint -- --explain {{rule}}

# Regenerate lint.baseline (only to grandfather genuinely unfixable debt).
lint-baseline:
    cargo run --release -p cloudsched-lint -- --write-baseline

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

# Span profile + tracing-overhead microbench.
profile:
    cargo run --release -p cloudsched-bench --bin profile

# Kernel hot-path benchmark: EDF / Dover / V-Dover at n ∈ {1e3 … 1e6},
# rewriting BENCH_kernel.json at the repo root (see DESIGN.md §10). Run on
# an otherwise-idle machine before updating the checked-in report.
bench:
    cargo run --release -p cloudsched-cli -- bench --out BENCH_kernel.json

# Flat-vs-heap comparison: the kernel suite with --compare, so every
# (scheduler, n) cell is measured twice — once on the default calendar
# event queue and once on the reference binary-heap workspace — and the
# report carries paired rows (the heap row is tagged `"queue":"heap"`).
# This is the configuration of the checked-in BENCH_kernel.json.
bench-flat:
    cargo run --release -p cloudsched-cli -- bench --compare --out BENCH_kernel.json

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
# diffed byte-for-byte between serial and 2-thread execution.
fleet-smoke:
    cargo run --release -p cloudsched-cli -- bench --suite fleet --quick --out /tmp/fleet-smoke.json
    cargo run --release -p cloudsched-cli -- fleet --machines 4 --lambda 4 --horizon 12 --threads 1 > /tmp/fleet-serial.txt
    cargo run --release -p cloudsched-cli -- fleet --machines 4 --lambda 4 --horizon 12 --threads 2 > /tmp/fleet-threaded.txt
    diff -u /tmp/fleet-serial.txt /tmp/fleet-threaded.txt

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

# Compare fresh quick kernel and sweep runs against the checked-in reports
# (report-only in CI; run `just bench` / `just sweep` on an idle machine for
# real numbers). bench-diff auto-detects the suite from the report schema.
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
# golden byte-for-byte.
serve-smoke:
    cargo run --release -p cloudsched-cli -- serve --in tests/golden/stream_small.jsonl --scheduler vdover --k 7 --snapshot-every 8 --journal /tmp/serve-smoke-full.wal > /tmp/serve-smoke-full.txt
    diff -u tests/golden/serve_stream_small.txt /tmp/serve-smoke-full.txt
    cargo run --release -p cloudsched-cli -- serve --in tests/golden/stream_small.jsonl --scheduler vdover --k 7 --snapshot-every 8 --journal /tmp/serve-smoke-crash.wal --crash-after 17
    cargo run --release -p cloudsched-cli -- recover --journal /tmp/serve-smoke-crash.wal --in tests/golden/stream_small.jsonl > /tmp/serve-smoke-recovered.txt
    diff -u tests/golden/serve_stream_small.txt /tmp/serve-smoke-recovered.txt

# Serve scale gate (mirrors the CI step): a deterministic 1e5-arrival λ=8
# stream through `serve` with no journal must finish within 60 s. A linear
# service takes well under a second; a per-arrival cost that grows with the
# stream (Θ(n²) overall) takes minutes.
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
