//! `cloudsched_bench::repro` reproduces the output of the experiment
//! binaries it replaced, byte for byte.
//!
//! Each digest folds an experiment's stdout, then every CSV it writes (file
//! name, then contents, in write order), with FNV-1a 64. The values were
//! recorded from the seven binaries (`table1`, `fig1`, `ablation`,
//! `adversary`, `bounds`, `transform`, `underloaded`) at the small run
//! counts below and `--threads 1`. The same counts also run at two threads,
//! which must not move a byte.

mod common;

use cloudsched_bench::repro;
use common::{fnv1a_bytes, FNV_OFFSET};

/// `(experiment, run count, digest)`. `None` runs the experiment's fixed
/// size: `fig1`, `adversary` and `bounds` take no count.
const PINNED: &[(&str, Option<usize>, u64)] = &[
    ("table1", Some(4), 0xa014_ac40_c038_206a),
    ("fig1", None, 0xaaa0_8742_c5c2_1030),
    ("ablation", Some(4), 0x264e_29b4_a674_d308),
    ("adversary", None, 0xcafe_2791_720e_0123),
    ("bounds", None, 0x0a78_12f3_615c_1b51),
    ("transform", Some(8), 0x7196_1c2b_6b07_f2e1),
    ("underloaded", Some(8), 0x4ba6_7913_16ca_513b),
];

fn digest(out: &repro::Output) -> u64 {
    let mut h = fnv1a_bytes(FNV_OFFSET, out.stdout.as_bytes());
    for (name, csv) in &out.files {
        h = fnv1a_bytes(h, name.as_bytes());
        h = fnv1a_bytes(h, csv.as_bytes());
    }
    h
}

#[test]
fn repro_matches_the_pinned_binary_digests_at_one_and_two_threads() {
    for &(name, runs, pinned) in PINNED {
        for threads in [1, 2] {
            let out = repro::run(name, runs, threads).expect("known experiment");
            assert_eq!(
                digest(&out),
                pinned,
                "{name} at {threads} thread(s) moved from the pinned oracle"
            );
        }
    }
}

#[test]
fn all_selects_every_experiment_once_in_table_order() {
    let all = repro::selection("all").expect("all is a choice");
    let names: Vec<&str> = PINNED.iter().map(|p| p.0).collect();
    assert_eq!(all, names.as_slice());
    assert_eq!(repro::selection("fig1"), Some(&["fig1"][..]));
    assert_eq!(repro::selection("table2"), None);
    assert!(
        repro::run("all", None, 1).is_err(),
        "all is not an experiment"
    );
}
