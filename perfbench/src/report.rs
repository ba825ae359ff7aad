//! The result line every run prints last, and the order statistics the
//! metrics are built from.
//!
//! Format (one line, keys in this order):
//! `{"correct":true,"attempted":N,"failed":F,"metrics":{"name":{"value":V,"unit":"U"},…}}`.
//! Values use Rust's shortest round-trip float form, so `parse(render(r))`
//! returns `r` exactly.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string as listed in `BENCHMARK.json`.
    pub unit: String,
}

/// Everything one run reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted: runs (kernel, fleet) or admitted arrivals
    /// (serve).
    pub attempted: u64,
    /// Operations that failed an output check or reneged a commitment.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Appends a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Renders the result line. A non-finite value cannot be written as
    /// JSON, so it is an error (and a bug in the benchmark).
    pub fn render(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        out.push_str("}}");
        Ok(out)
    }

    /// Parses exactly the format [`RunResult::render`] writes.
    pub fn parse(line: &str) -> Result<RunResult, String> {
        let mut p = Cursor {
            s: line.trim(),
            at: 0,
        };
        p.eat("{\"correct\":")?;
        let correct = match p.word()? {
            "true" => true,
            "false" => false,
            other => return Err(format!("correct is not a bool: {other}")),
        };
        p.eat(",\"attempted\":")?;
        let attempted = p.int()?;
        p.eat(",\"failed\":")?;
        let failed = p.int()?;
        p.eat(",\"metrics\":{")?;
        let mut metrics = Vec::new();
        while !p.peek("}") {
            if !metrics.is_empty() {
                p.eat(",")?;
            }
            let name = p.string()?;
            p.eat(":{\"value\":")?;
            let value = p
                .word()?
                .parse::<f64>()
                .map_err(|e| format!("value of {name}: {e}"))?;
            p.eat(",\"unit\":")?;
            let unit = p.string()?;
            p.eat("}")?;
            metrics.push(Metric { name, value, unit });
        }
        p.eat("}}")?;
        if p.at != p.s.len() {
            return Err(format!("trailing text at byte {}", p.at));
        }
        Ok(RunResult {
            correct,
            attempted,
            failed,
            metrics,
        })
    }
}

struct Cursor<'a> {
    s: &'a str,
    at: usize,
}

impl<'a> Cursor<'a> {
    fn rest(&self) -> &'a str {
        &self.s[self.at..]
    }

    fn peek(&self, lit: &str) -> bool {
        self.rest().starts_with(lit)
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if !self.peek(lit) {
            return Err(format!("expected {lit:?} at byte {}", self.at));
        }
        self.at += lit.len();
        Ok(())
    }

    /// A bare token: up to the next `,` or `}`.
    fn word(&mut self) -> Result<&'a str, String> {
        let rest = self.rest();
        let end = rest.find([',', '}']).ok_or("unterminated token")?;
        self.at += end;
        Ok(&rest[..end])
    }

    fn int(&mut self) -> Result<u64, String> {
        let w = self.word()?;
        w.parse::<u64>().map_err(|e| format!("{w:?}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let rest = self.rest();
        let end = rest.find('"').ok_or("unterminated string")?;
        self.at += end + 1;
        Ok(rest[..end].to_string())
    }
}

/// Quantile `q ∈ [0, 1]` of `xs` by linear interpolation between order
/// statistics. `xs` need not be sorted; an empty slice gives 0.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// FNV-1a over 64-bit words: the digest the output checks compare.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_then_parse_is_the_identity() {
        let mut r = RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: Vec::new(),
        };
        r.push("setup_s", 0.012_345_678_901_234_5, "s");
        r.push("jobs_per_s", 812_345.5, "jobs/s");
        r.push("sched.on_timer.calls", 0.0, "count");
        r.push("value_fraction", 1.0 / 3.0, "ratio");
        let line = r.render().unwrap();
        assert_eq!(RunResult::parse(&line).unwrap(), r);
    }

    #[test]
    fn parse_rejects_other_shapes() {
        for bad in [
            "",
            "{\"correct\":yes,\"attempted\":1,\"failed\":0,\"metrics\":{}}",
            "{\"correct\":true,\"attempted\":-1,\"failed\":0,\"metrics\":{}}",
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}} x",
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"a\":{\"value\":x,\"unit\":\"s\"}}}",
        ] {
            assert!(RunResult::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn non_finite_values_do_not_render() {
        let mut r = RunResult::default();
        r.push("x", f64::NAN, "s");
        assert!(r.render().is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
