//! Tier-1 oracle for the fmt-free number writer. Every JSONL line the
//! workspace writes — trace events, the `serve` journal, the goldens and
//! the pinned digests built from them — renders its numbers through
//! `obs::jsonl::push_f64` and `push_u64`, so both must print exactly what
//! `format!("{x}")` prints. Inputs: every power of two and of ten with its
//! bit neighbours, small integers and binary fractions, exact decimal ties,
//! the special values and seeded random bit patterns, each with both signs.
//! The release-only 1e8 sweep is `cargo test --release -p cloudsched-obs
//! -- --ignored`.

use cloudsched::core::rng::{Pcg32, Rng};
use cloudsched::obs::jsonl::{push_f64, push_u64};
use std::fmt::Write as _;

/// Compares `push_f64` with `format!` on `x` and `-x`, reusing buffers.
#[derive(Default)]
struct Oracle {
    ours: String,
    std: String,
}

impl Oracle {
    fn check(&mut self, x: f64) {
        for v in [x, -x] {
            self.ours.clear();
            self.std.clear();
            push_f64(&mut self.ours, v);
            write!(self.std, "{v}").unwrap();
            assert_eq!(self.ours, self.std, "bits {:#018x}", v.to_bits());
        }
    }

    /// `x` and its two bit-neighbours.
    fn check_with_neighbours(&mut self, x: f64) {
        let bits = x.to_bits();
        self.check(x);
        self.check(f64::from_bits(bits + 1));
        if bits > 0 {
            self.check(f64::from_bits(bits - 1));
        }
    }
}

#[test]
fn push_f64_matches_display() {
    let mut o = Oracle::default();

    // Special values.
    for x in [
        0.0,
        f64::INFINITY,
        f64::NAN,
        f64::MIN_POSITIVE,
        5e-324,
        f64::MAX,
    ] {
        o.check(x);
    }

    // Every power of two, subnormals included.
    for k in -1074i32..=1023 {
        let bits = if k >= -1022 {
            u64::try_from(k + 1023).unwrap() << 52
        } else {
            1u64 << (k + 1074)
        };
        o.check_with_neighbours(f64::from_bits(bits));
    }

    // Every power of ten in range, correctly rounded by the parser.
    for k in -323..=308 {
        o.check_with_neighbours(format!("1e{k}").parse().unwrap());
    }

    // Integers and binary fractions.
    for i in 0..100_000u32 {
        o.check(f64::from(i));
        o.check(f64::from(i) / 1024.0);
    }

    // Exact decimal ties o·5^j / 2^(j+1): the exact decimal ends in …5, so
    // when the shortest round-trip form drops that digit the value can sit
    // exactly halfway between two candidates. Display rounds such a tie up.
    let mut rng = Pcg32::seed_from_u64(0x7e5_7e5);
    for j in 1..=22u32 {
        let pow5 = 5u64.pow(j);
        let scale = 2f64.powi(i32::try_from(j + 1).unwrap());
        let bound = (1u64 << 53) / pow5; // o < bound keeps o·5^j < 2^53
        let small = (1..2_000).step_by(2);
        let top = (1..200).map(|d| bound.saturating_sub(2 * d) | 1);
        let random: Vec<u64> = (0..400).map(|_| (rng.next_u64() % bound) | 1).collect();
        for o_j in small.chain(top).chain(random) {
            if o_j < bound {
                o.check((o_j * pow5) as f64 / scale);
            }
        }
    }
    // Two ties std and a half-even Ryu print differently (both quotients
    // are exact).
    let mut out = String::new();
    push_f64(&mut out, 244_140_625.0 / 8192.0);
    assert_eq!(out, "29802.322387695313");
    out.clear();
    push_f64(&mut out, 7_574_609_329_789_353.0 / 4.0);
    assert_eq!(out, "1893652332447338.3");

    // Seeded random bit patterns (NaN payloads and infinities included).
    let mut rng = Pcg32::seed_from_u64(0xf64_d15);
    for _ in 0..100_000 {
        o.check(f64::from_bits(rng.next_u64()));
    }
}

#[test]
fn push_u64_matches_display() {
    let mut cases = vec![0, 9, 10, 99, 100, u64::MAX - 1, u64::MAX];
    for k in 1..=19 {
        let p = 10u64.pow(k);
        cases.extend([p - 1, p, p + 1]);
    }
    let mut out = String::new();
    for n in cases {
        out.clear();
        push_u64(&mut out, n);
        assert_eq!(out, n.to_string());
    }
}
