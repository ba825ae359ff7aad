//! Satellite of `DESIGN.md` §16: fleet output is a pure function of
//! `(seed, M, policy)` — bit-identical at every thread count.
//!
//! 50 seeds × M ∈ {2, 16} × threads ∈ {1, 2, 8}, p2c dispatch over V-Dover
//! machines on a tiny-horizon fleet scenario: the serial run is the
//! reference, and every threaded run must reproduce its fleet digest *and*
//! the byte-exact per-machine reports (Debug formatting covers every field,
//! float bits included).

use cloudsched_bench::{fleet_digest, fleet_suite_run, FleetBenchConfig};

#[test]
fn p2c_dispatch_is_bit_identical_across_thread_counts() {
    let cfg = FleetBenchConfig {
        lambda: 4.0,
        horizon: 4.0,
        machines: vec![],
        threads: vec![],
        runs: 0,
    };
    for m in [2usize, 16] {
        for run in 0..50 {
            let reference = fleet_suite_run(&cfg, m, run, 1);
            let ref_digest = fleet_digest(&reference);
            let ref_bytes: Vec<String> = reference
                .per_machine
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            for threads in [2usize, 8] {
                let got = fleet_suite_run(&cfg, m, run, threads);
                assert_eq!(
                    fleet_digest(&got),
                    ref_digest,
                    "digest drift at M={m} run={run} threads={threads}"
                );
                assert_eq!(
                    got.per_machine.len(),
                    reference.per_machine.len(),
                    "machine count drift at M={m} run={run} threads={threads}"
                );
                for (machine, bytes) in ref_bytes.iter().enumerate() {
                    assert_eq!(
                        &format!("{:?}", got.per_machine[machine]),
                        bytes,
                        "per-machine report drift at M={m} run={run} \
                         threads={threads} machine={machine}"
                    );
                }
                assert_eq!(got.assignment, reference.assignment);
                assert_eq!(got.steals, reference.steals);
                assert_eq!(got.quarantined, reference.quarantined);
                assert_eq!(
                    got.value.to_bits(),
                    reference.value.to_bits(),
                    "aggregate value bits drift at M={m} run={run} threads={threads}"
                );
            }
        }
    }
}
