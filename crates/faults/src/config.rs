//! Fault-plan configuration: which assumptions of the paper's model are
//! broken, and how hard.
//!
//! A [`FaultPlan`] is pure data — injecting it is the job of the sibling
//! modules ([`crate::oracle`], [`crate::capacity`], [`crate::stream`]).
//! Everything is seeded from the outside, so a `(plan, seed)` pair describes
//! one exact, replayable fault sequence.

/// Faults of the capacity *oracle* — the monitoring plane the watchdog reads.
/// The physical capacity (and hence job progress) is never affected; only
/// what the degradation layer *observes* is distorted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleFaultConfig {
    /// Relative measurement noise: a reading of true rate `c` is uniform in
    /// `c·[1 − noise, 1 + noise]`. `0` disables noise.
    pub noise: f64,
    /// Readings lag behind by this many probes (stale monitoring pipeline).
    /// `0` means fresh reads.
    pub stale_lag: usize,
    /// Per-probe probability of entering a blackout (the oracle returns
    /// `Down`).
    pub blackout_prob: f64,
    /// Number of consecutive probes a blackout lasts once entered.
    pub blackout_len: u32,
}

impl OracleFaultConfig {
    /// A perfectly healthy oracle.
    pub const fn none() -> Self {
        OracleFaultConfig {
            noise: 0.0,
            stale_lag: 0,
            blackout_prob: 0.0,
            blackout_len: 0,
        }
    }
}

/// A capacity-SLA violation: the provider's *physical* rate dips below the
/// declared `c_lo` for a window, while the declared class bounds keep
/// claiming otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityFaultConfig {
    /// Dip start, as a fraction of the instance horizon.
    pub dip_start_frac: f64,
    /// Dip length, as a fraction of the instance horizon. `0` disables the
    /// dip.
    pub dip_len_frac: f64,
    /// Rate during the dip, as a fraction of the declared `c_lo` (e.g. `0.4`
    /// means the provider delivers 40% of the promised floor).
    pub dip_depth: f64,
}

impl CapacityFaultConfig {
    /// No SLA violation.
    pub const fn none() -> Self {
        CapacityFaultConfig {
            dip_start_frac: 0.0,
            dip_len_frac: 0.0,
            dip_depth: 1.0,
        }
    }

    /// `true` if this config actually injects a dip.
    pub fn active(&self) -> bool {
        self.dip_len_frac > 0.0 && self.dip_depth < 1.0
    }
}

/// Corruptions of the job *stream*: extra jobs that violate the paper's
/// admission preconditions (Def. 4, importance ratio `k`) or duplicate
/// earlier releases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamFaultConfig {
    /// Number of individually *inadmissible* jobs to inject (window shorter
    /// than `p / c_lo`, violating Def. 4).
    pub inadmissible: usize,
    /// Number of duplicate releases (exact parameter copies of existing
    /// jobs under fresh ids).
    pub duplicates: usize,
    /// Number of value-spike jobs whose density exceeds `k` times the
    /// smallest density seen, breaking the importance-ratio premise.
    pub value_spikes: usize,
    /// Spike density multiplier: spike density = `spike_factor · k ·`
    /// (largest clean density). Must be `> 1` for spikes to be detectable.
    pub spike_factor: f64,
}

impl StreamFaultConfig {
    /// A clean stream.
    pub const fn none() -> Self {
        StreamFaultConfig {
            inadmissible: 0,
            duplicates: 0,
            value_spikes: 0,
            spike_factor: 2.0,
        }
    }

    /// Total number of jobs this config injects.
    pub fn injected(&self) -> usize {
        self.inadmissible + self.duplicates + self.value_spikes
    }
}

/// A complete fault plan: one knob set per fault surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Monitoring-plane faults.
    pub oracle: OracleFaultConfig,
    /// Physical capacity-SLA violation.
    pub capacity: CapacityFaultConfig,
    /// Job-stream corruption.
    pub stream: StreamFaultConfig,
}

impl FaultPlan {
    /// The fault-free plan: every run under it must match the plain
    /// simulator bit for bit.
    pub const fn none() -> Self {
        FaultPlan {
            oracle: OracleFaultConfig::none(),
            capacity: CapacityFaultConfig::none(),
            stream: StreamFaultConfig::none(),
        }
    }

    /// Mild degradation: small measurement noise, occasional short
    /// blackouts, a shallow late dip and a couple of corrupt jobs.
    pub const fn mild() -> Self {
        FaultPlan {
            oracle: OracleFaultConfig {
                noise: 0.02,
                stale_lag: 1,
                blackout_prob: 0.10,
                blackout_len: 2,
            },
            capacity: CapacityFaultConfig {
                dip_start_frac: 0.45,
                dip_len_frac: 0.05,
                dip_depth: 0.8,
            },
            stream: StreamFaultConfig {
                inadmissible: 1,
                duplicates: 1,
                value_spikes: 0,
                spike_factor: 2.0,
            },
        }
    }

    /// Harsh degradation: noisy stale oracle with long blackouts, a deep
    /// long dip and several corrupt jobs of every kind.
    pub const fn harsh() -> Self {
        FaultPlan {
            oracle: OracleFaultConfig {
                noise: 0.10,
                stale_lag: 2,
                blackout_prob: 0.25,
                blackout_len: 5,
            },
            capacity: CapacityFaultConfig {
                dip_start_frac: 0.30,
                dip_len_frac: 0.15,
                dip_depth: 0.4,
            },
            stream: StreamFaultConfig {
                inadmissible: 3,
                duplicates: 2,
                value_spikes: 2,
                spike_factor: 3.0,
            },
        }
    }

    /// Parses a preset name (`none`, `mild`, `harsh`).
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "none" => Some(FaultPlan::none()),
            "mild" => Some(FaultPlan::mild()),
            "harsh" => Some(FaultPlan::harsh()),
            _ => None,
        }
    }

    /// Canonical preset name for display, or `custom`.
    pub fn name(&self) -> &'static str {
        if *self == FaultPlan::none() {
            "none"
        } else if *self == FaultPlan::mild() {
            "mild"
        } else if *self == FaultPlan::harsh() {
            "harsh"
        } else {
            "custom"
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_round_trip_by_name() {
        for name in ["none", "mild", "harsh"] {
            let plan = FaultPlan::preset(name).unwrap();
            assert_eq!(plan.name(), name);
        }
        assert!(FaultPlan::preset("apocalyptic").is_none());
    }

    #[test]
    fn the_none_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(!plan.capacity.active());
        assert_eq!(plan.stream.injected(), 0);
        assert_eq!(plan.oracle, OracleFaultConfig::none());
    }

    #[test]
    fn harsh_injects_more_than_mild() {
        assert!(FaultPlan::harsh().stream.injected() > FaultPlan::mild().stream.injected());
        assert!(FaultPlan::harsh().capacity.dip_depth < FaultPlan::mild().capacity.dip_depth);
    }
}
