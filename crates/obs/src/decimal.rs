//! Decimal text for `u64` and `f64` without `core::fmt`.
//!
//! [`push_u64`] writes digit pairs out of a 200-byte table. [`push_f64`]
//! finds the shortest round-trip digits with Ryu (Adams, PLDI 2018: 64-bit
//! halves, `u128` products, the tables in [`pow5`]) and lays them out the
//! way `f64`'s `Display` does — never an exponent, `0.000ddd` for small
//! magnitudes, `ddd000` for large ones, `-0`, `inf`, `-inf`, `NaN` — so
//! the text is byte-identical to `format!("{x}")`.
//!
//! One deliberate departure from reference Ryu: when the value lies
//! *exactly* halfway between the two shortest candidates, std's
//! `Display` rounds the last digit up (`244140625/8192` prints as
//! `29802.322387695313`), while Ryu rounds to even (`…312`). This port
//! therefore omits Ryu's "round even if the exact number is …50…0" step.
//! `tests/number_text.rs` compares both writers against `format!` on
//! boundary, tie and seeded random inputs; an `#[ignore]`d sweep here
//! runs 1e8 random bit patterns in release builds.

mod pow5;

use pow5::{POW5_INV_SPLIT, POW5_SPLIT};

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;
/// Bit counts of the `POW5_INV_SPLIT` and `POW5_SPLIT` entries.
const POW5_INV_BITCOUNT: i32 = 125;
const POW5_BITCOUNT: i32 = 125;

/// `"00" "01" … "99"`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

const ZEROS: &str = "0000000000000000000000000000000000000000000000000000000000000000";

/// Finite floats whose text fits this many bytes are laid out in one
/// stack buffer; longer text (tiny or huge magnitudes, with long runs of
/// zeros) is written piecewise.
const SHORT: usize = 32;

/// Appends `n` in decimal (`{}` of `u64`).
pub fn push_u64(out: &mut String, n: u64) {
    let mut buf = [0u8; 20];
    let start = write_digits(&mut buf, 20, n);
    out.push_str(ascii(&buf[start..]));
}

/// Appends `x` in its shortest round-trip decimal form, byte-identical to
/// `format!("{x}")`.
pub fn push_f64(out: &mut String, x: f64) {
    let bits = x.to_bits();
    let negative = bits >> 63 != 0;
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    let ieee_mantissa = bits & ((1u64 << MANTISSA_BITS) - 1);
    if ieee_exponent == 0x7ff {
        out.push_str(match (ieee_mantissa != 0, negative) {
            (true, _) => "NaN",
            (false, true) => "-inf",
            (false, false) => "inf",
        });
        return;
    }
    if negative {
        out.push('-');
    }
    if bits << 1 == 0 {
        out.push('0');
        return;
    }
    // `output` has no trailing zero digit: `shortest` stops dropping digits
    // only when no multiple of ten is left in the rounding interval.
    let (output, exp10) = shortest(ieee_mantissa, ieee_exponent);
    let len = output.ilog10() as usize + 1;
    // Digits before the decimal point.
    let point = len as i32 + exp10;
    let text_len = if point <= 0 {
        2 + point.unsigned_abs() as usize + len
    } else if (point as usize) < len {
        len + 1
    } else {
        point as usize
    };
    if text_len > SHORT {
        push_long(out, output, point);
        return;
    }
    // Every byte not written below is one of the layout's zeros.
    let mut buf = [b'0'; SHORT];
    if point <= 0 {
        // 0.000ddd
        buf[1] = b'.';
        write_digits(&mut buf, text_len, output);
    } else if (point as usize) < len {
        // ddd.ddd: write the digits one byte right, then move the integer
        // part back over the point's slot.
        let point = point as usize;
        write_digits(&mut buf, text_len, output);
        buf.copy_within(1..=point, 0);
        buf[point] = b'.';
    } else {
        // ddd000
        write_digits(&mut buf, len, output);
    }
    out.push_str(ascii(&buf[..text_len]));
}

/// The `0.000ddd` and `ddd000` layouts too long for the stack buffer.
#[cold]
fn push_long(out: &mut String, output: u64, point: i32) {
    let mut buf = [0u8; 20];
    let start = write_digits(&mut buf, 20, output);
    let digits = ascii(&buf[start..]);
    if point <= 0 {
        out.push_str("0.");
        push_zeros(out, point.unsigned_abs() as usize);
        out.push_str(digits);
    } else {
        out.push_str(digits);
        push_zeros(out, point as usize - digits.len());
    }
}

fn ascii(digits: &[u8]) -> &str {
    std::str::from_utf8(digits).expect("invariant: decimal digits are ASCII")
}

fn push_zeros(out: &mut String, mut n: usize) {
    while n > ZEROS.len() {
        out.push_str(ZEROS);
        n -= ZEROS.len();
    }
    out.push_str(&ZEROS[..n]);
}

/// Writes the decimal digits of `n` into `buf`, ending just before `end`;
/// returns the index of the first digit. Eight digits at a time come off
/// in `u64` arithmetic, the rest in `u32` digit pairs.
fn write_digits(buf: &mut [u8], mut end: usize, mut n: u64) -> usize {
    while n >= 100_000_000 {
        let eight = (n % 100_000_000) as u32;
        n /= 100_000_000;
        let (high, low) = (eight / 10_000, eight % 10_000);
        put_pair(buf, end - 2, low % 100);
        put_pair(buf, end - 4, low / 100);
        put_pair(buf, end - 6, high % 100);
        put_pair(buf, end - 8, high / 100);
        end -= 8;
    }
    let mut n = n as u32;
    while n >= 100 {
        end -= 2;
        put_pair(buf, end, n % 100);
        n /= 100;
    }
    if n >= 10 {
        end -= 2;
        put_pair(buf, end, n);
    } else {
        end -= 1;
        buf[end] = b'0' + n as u8;
    }
    end
}

/// Writes the two digits of `pair` (below 100) at `buf[at..at + 2]`.
fn put_pair(buf: &mut [u8], at: usize, pair: u32) {
    let i = pair as usize * 2;
    buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[i..i + 2]);
}

/// `floor(log10(2^e))` for `e` in `0..=1650`.
fn log10_pow2(e: i32) -> i32 {
    ((e as u32 * 78_913) >> 18) as i32
}

/// `floor(log10(5^e))` for `e` in `0..=2620`.
fn log10_pow5(e: i32) -> i32 {
    ((e as u32 * 732_923) >> 20) as i32
}

/// The bit length of `5^e` for `e` in `0..=3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

fn multiple_of_pow5(mut value: u64, p: i32) -> bool {
    let mut count = 0;
    while value % 5 == 0 {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `floor(m * mul / 2^j)` for the 128-bit `mul = [low, high]`, `j >= 64`.
fn mul_shift(m: u64, mul: &[u64; 2], j: i32) -> u64 {
    let low = u128::from(m) * u128::from(mul[0]);
    let high = u128::from(m) * u128::from(mul[1]);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// Ryu's shortest digits of a positive finite `f64`, given its raw fields:
/// `(output, e10)` with the value's shortest round-trip decimal equal to
/// `output * 10^e10`.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1u64 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    let accept_bounds = m2 & 1 == 0;

    // The value is mv * 2^e2; its rounding interval is [mm, mp] * 2^e2.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // Convert [mm, mv, mp] * 2^e2 to [vm, vr, vp] * 10^e10. Reference
    // Ryu also tracks whether vr is exact, but only to round an exact tie
    // to even; Display rounds every tie up, so only the lower bound's
    // exactness matters here.
    let mut vm_is_trailing_zeros = false;
    let (e10, mut vr, mut vp, mut vm);
    if e2 >= 0 {
        let q = log10_pow2(e2) - i32::from(e2 > 3);
        e10 = q;
        let k = POW5_INV_BITCOUNT + pow5_bits(q) - 1;
        let i = -e2 + q + k;
        let mul = &POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, i);
        vp = mul_shift(mv + 2, mul, i);
        vm = mul_shift(mv - 1 - mm_shift, mul, i);
        // Only one of mp, mv and mm can be a multiple of 5, if any.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - i32::from(-e2 > 1);
        e10 = q + e2;
        let i = -e2 - q;
        let k = pow5_bits(i) - POW5_BITCOUNT;
        let j = q - k;
        let mul = &POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // mv = 4 * m2 has at least two trailing zero bits, so for q <= 1
        // the products are exact.
        if q <= 1 {
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter decimal.
    let mut removed = 0;
    let output = if vm_is_trailing_zeros {
        // The lower bound is exact and may itself be the shortest decimal.
        let mut last_removed_digit = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm % 10 == 0;
            last_removed_digit = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm % 10 == 0 {
                last_removed_digit = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        // `>= 5` also rounds an exact tie (`…5` with nothing after it) up.
        let round_up = (vr == vm && !vm_is_trailing_zeros) || last_removed_digit >= 5;
        vr + u64::from(round_up)
    } else {
        // The common case: the lower bound is not an exact decimal.
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test-only unsigned bignum: little-endian `u32` limbs.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Big(Vec<u32>);

    impl Big {
        fn from_u128(mut n: u128) -> Big {
            let mut limbs = Vec::new();
            while n > 0 {
                limbs.push(n as u32);
                n >>= 32;
            }
            Big(limbs)
        }

        fn trim(mut self) -> Big {
            while self.0.last() == Some(&0) {
                self.0.pop();
            }
            self
        }

        fn mul(&self, other: &Big) -> Big {
            let mut out = vec![0u32; self.0.len() + other.0.len()];
            for (i, &a) in self.0.iter().enumerate() {
                let mut carry = 0u64;
                for (j, &b) in other.0.iter().enumerate() {
                    let t = u64::from(a) * u64::from(b) + u64::from(out[i + j]) + carry;
                    out[i + j] = t as u32;
                    carry = t >> 32;
                }
                out[i + other.0.len()] = carry as u32;
            }
            Big(out).trim()
        }

        fn shl(&self, bits: u32) -> Big {
            let mut out = vec![0u32; (bits / 32) as usize];
            let shift = bits % 32;
            let mut carry = 0u32;
            for &limb in &self.0 {
                out.push((limb << shift) | carry);
                carry = if shift == 0 { 0 } else { limb >> (32 - shift) };
            }
            out.push(carry);
            Big(out).trim()
        }

        fn bit_len(&self) -> u32 {
            self.0
                .last()
                .map_or(0, |top| 32 * self.0.len() as u32 - top.leading_zeros())
        }
    }

    impl PartialOrd for Big {
        fn partial_cmp(&self, other: &Big) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Big {
        fn cmp(&self, other: &Big) -> std::cmp::Ordering {
            self.0
                .len()
                .cmp(&other.0.len())
                .then_with(|| self.0.iter().rev().cmp(other.0.iter().rev()))
        }
    }

    fn entry(pair: &[u64; 2]) -> u128 {
        u128::from(pair[0]) | (u128::from(pair[1]) << 64)
    }

    #[test]
    fn pow5_tables_satisfy_their_defining_inequalities() {
        let five = Big::from_u128(5);
        let mut pow5 = Big::from_u128(1);
        for i in 0..POW5_INV_SPLIT.len().max(POW5_SPLIT.len()) {
            let len = pow5.bit_len();
            assert_eq!(pow5_bits(i as i32), len as i32, "bit length of 5^{i}");
            if let Some(pair) = POW5_INV_SPLIT.get(i) {
                // (S - 1) * 5^i <= 2^j < S * 5^i.
                let s = entry(pair);
                let two_j = Big::from_u128(1).shl(len - 1 + 125);
                assert!(Big::from_u128(s - 1).mul(&pow5) <= two_j, "inv {i}");
                assert!(two_j < Big::from_u128(s).mul(&pow5), "inv {i}");
            }
            if let Some(pair) = POW5_SPLIT.get(i) {
                let s = entry(pair);
                if len <= 125 {
                    // Exact: S = 5^i * 2^(125 - len).
                    assert_eq!(Big::from_u128(s), pow5.shl(125 - len), "split {i}");
                } else {
                    // S * 2^(len - 125) <= 5^i < (S + 1) * 2^(len - 125).
                    assert!(Big::from_u128(s).shl(len - 125) <= pow5, "split {i}");
                    assert!(pow5 < Big::from_u128(s + 1).shl(len - 125), "split {i}");
                }
            }
            pow5 = pow5.mul(&five);
        }
    }

    /// 1e8 seeded random bit patterns against `format!`; run it with
    /// `cargo test --release -p cloudsched-obs -- --ignored` (≈1 min).
    #[test]
    #[ignore = "release-mode sweep of 1e8 bit patterns"]
    fn push_f64_matches_display_on_1e8_random_bit_patterns() {
        use cloudsched_core::rng::{Pcg32, Rng};
        use std::fmt::Write as _;
        let mut rng = Pcg32::seed_from_u64(0x5eed_f64d);
        let (mut ours, mut std) = (String::new(), String::new());
        let mut mismatches = 0u64;
        for _ in 0..100_000_000u64 {
            let x = f64::from_bits(rng.next_u64());
            ours.clear();
            std.clear();
            push_f64(&mut ours, x);
            write!(std, "{x}").expect("invariant: writing to a String cannot fail");
            if ours != std {
                mismatches += 1;
                if mismatches <= 10 {
                    eprintln!("{:#018x}: ours {ours} std {std}", x.to_bits());
                }
            }
        }
        assert_eq!(mismatches, 0);
    }
}
