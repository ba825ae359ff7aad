//! Detection coverage for the rules clippy enforces (L003, L005–L008,
//! L010, L011), checked by `cargo clippy --workspace --all-targets -- -D
//! warnings` with the root `clippy.toml` and the workspace lint levels.
//!
//! Each positive case sits under `#[expect(clippy::…)]` naming the lint
//! that must fire: if it does not, clippy reports an unfulfilled
//! expectation and the run fails. Negative cases and carve-outs are plain
//! code that must pass at deny level. Modules stand for the crates and
//! files whose scope the cases exercise. Nothing here runs; a plain
//! `cargo test` only compiles it.

#![allow(dead_code)]

/// L003: no panic macros in library code.
mod workload {
    #[expect(clippy::panic)]
    pub fn boom() {
        panic!("boom");
    }

    #[expect(clippy::todo)]
    pub fn later() {
        todo!()
    }

    #[expect(clippy::unimplemented)]
    pub fn never() {
        unimplemented!()
    }

    pub fn typed() -> Result<(), String> {
        Err("infeasible".to_string())
    }

    /// `#[cfg(test)]` code may panic (`allow-panic-in-tests`).
    #[cfg(test)]
    mod tests {
        fn helper(x: Option<u32>) -> u32 {
            match x {
                Some(v) => v,
                None => panic!("fixture"),
            }
        }
    }
}

/// L005 and L006: no wall clock, no raw time types; L007: no hash-order
/// iteration; L008: no raw thread fan-out; L011: no ambient state.
mod sim {
    use std::collections::{BTreeMap, HashMap, HashSet};

    #[expect(clippy::disallowed_methods, clippy::disallowed_types)]
    pub fn wall() -> std::time::Instant {
        std::time::Instant::now()
    }

    pub fn simulated(now: f64) -> f64 {
        now
    }

    pub struct S {
        m: HashMap<u64, u64>,
        seen: HashSet<u64>,
        ordered: BTreeMap<u64, u64>,
    }

    impl S {
        #[expect(clippy::disallowed_methods)]
        pub fn sum(&self) -> u64 {
            self.m.values().sum()
        }

        #[expect(clippy::iter_over_hash_type)]
        pub fn dump(&self) -> u64 {
            let mut last = 0;
            for v in &self.seen {
                last = *v;
            }
            last
        }

        pub fn get(&self, k: u64) -> Option<&u64> {
            self.m.get(&k)
        }

        pub fn ordered_sum(&self) -> u64 {
            self.ordered.values().sum()
        }
    }

    #[expect(clippy::disallowed_methods)]
    pub fn imported_read() -> std::io::Result<String> {
        use std::fs;
        fs::read_to_string("cfg")
    }
}

/// L006 outside the clock seam, and bench's site-level carve-out.
mod analysis {
    #[expect(clippy::disallowed_types)]
    pub struct Timer {
        started: std::time::Instant,
    }

    pub trait Clock {
        fn now_ns(&self) -> u64;
    }

    pub struct Injected {
        clock: Box<dyn Clock>,
    }
}

mod bench {
    // The benchmark harness may hold wall-clock types.
    #[allow(clippy::disallowed_types)]
    pub struct Timer {
        started: std::time::Instant,
    }
}

/// L008 and `core/src/par.rs`'s carve-out.
mod faults {
    #[expect(clippy::disallowed_methods)]
    pub fn fan_out() {
        std::thread::spawn(|| {});
    }

    #[expect(clippy::disallowed_methods)]
    pub fn built() -> std::io::Result<()> {
        std::thread::Builder::new().spawn(|| {})?;
        Ok(())
    }

    pub fn through_par(n: usize) -> Vec<u64> {
        super::par::parallel_map(n, |i| i as u64)
    }
}

mod par {
    // The one sanctioned fan-out.
    #[allow(clippy::disallowed_methods)]
    pub fn parallel_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        std::thread::scope(|_| (0..n).map(&f).collect())
    }
}

/// L010: lossy casts, denied in the kernel crates only.
mod kernel {
    #![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

    #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn floor(remaining: f64) -> usize {
        remaining as usize
    }

    #[expect(clippy::cast_possible_truncation)]
    pub fn narrow(n: usize) -> u16 {
        (n as u64) as u16
    }

    pub fn widen(n: u32) -> u64 {
        n as u64
    }
}

/// L011: `std::env`/`std::fs` in the deterministic core, the journal seam
/// and the cli boundary.
mod sched {
    #[expect(clippy::disallowed_methods)]
    pub fn threads() -> Option<String> {
        std::env::var("THREADS").ok()
    }

    pub fn typed(threads: usize) -> usize {
        threads
    }
}

mod obs {
    #[expect(clippy::disallowed_methods)]
    pub fn dump(path: &str, body: &str) -> std::io::Result<()> {
        std::fs::write(path, body)
    }

    mod journal {
        // The write-ahead-journal seam may touch the filesystem.
        #![allow(clippy::disallowed_types, clippy::disallowed_methods)]

        pub fn create(path: &str) -> std::io::Result<std::fs::File> {
            std::fs::File::create(path)
        }
    }

    #[expect(clippy::disallowed_types)]
    pub fn open(path: &str) -> std::io::Result<std::fs::File> {
        std::fs::OpenOptions::new().append(true).open(path)
    }
}

mod cli {
    #[allow(clippy::disallowed_methods)]
    pub fn read_text(path: &str) -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    }
}

/// `insight` carries the full determinism contract.
mod insight {
    use std::collections::{BTreeMap, HashMap};

    #[expect(clippy::disallowed_methods, clippy::disallowed_types)]
    pub fn wall() -> std::time::Instant {
        std::time::Instant::now()
    }

    #[expect(clippy::disallowed_methods)]
    pub fn total(buckets: &HashMap<u64, f64>) -> f64 {
        buckets.values().sum()
    }

    pub fn ordered_total(buckets: &BTreeMap<u64, f64>) -> f64 {
        buckets.values().sum()
    }

    #[expect(clippy::disallowed_methods)]
    pub fn read(path: &str) -> std::io::Result<String> {
        std::fs::read_to_string(path)
    }

    pub fn count(jsonl: &str) -> usize {
        jsonl.lines().count()
    }
}

/// The fleet engine (`sim/src/fleet.rs`) and dispatch policies
/// (`sched/src/dispatch.rs`) get no carve-outs.
mod fleet {
    use std::collections::HashMap;

    #[expect(clippy::disallowed_methods, clippy::disallowed_types)]
    pub fn wall() -> std::time::Instant {
        std::time::Instant::now()
    }

    #[expect(clippy::disallowed_methods)]
    pub fn backlog(backlog: &HashMap<usize, f64>) -> f64 {
        backlog.values().sum()
    }

    pub fn ordered_backlog(backlog: &[f64]) -> f64 {
        backlog.iter().sum()
    }

    #[expect(clippy::disallowed_methods)]
    pub fn fan_out() {
        std::thread::spawn(|| {});
    }

    #[expect(clippy::disallowed_methods)]
    pub fn policy() -> Option<String> {
        std::env::var("FLEET_POLICY").ok()
    }

    pub fn typed(policy: &str) -> String {
        policy.to_string()
    }
}
