//! The one scheduler vocabulary.
//!
//! [`SchedulerSpec`] names every scheduler in the workspace together with
//! its parameters. The CLI, the tracing facade, the fault campaign, the
//! service and the benchmark harness all turn a scheduler name like
//! `"vdover"` into a spec with [`SchedulerSpec::parse`] (or
//! [`SchedulerSpec::for_instance`]) and instantiate it with
//! [`SchedulerSpec::build`]; the experiments construct variants directly.
//! Keeping the mapping here keeps the set of recognised names — and the
//! parameterisation conventions — identical everywhere.

use crate::{Dover, Edf, Fifo, Greedy, Llf, VDover, VDoverConfig};
use cloudsched_capacity::{CapacityProfile, Instance};
use cloudsched_core::CoreError;
use cloudsched_sim::Scheduler;

/// Names accepted by [`SchedulerSpec::parse`], in display order.
pub const SCHEDULER_NAMES: &[&str] = &[
    "vdover", "dover", "dover-lo", "dover-hi", "edf", "llf", "fifo", "greedy", "hvdf",
];

/// A constructible scheduler description (cheap to clone, `Send + Sync`).
#[derive(Debug, Clone)]
pub enum SchedulerSpec {
    /// Preemptive EDF.
    Edf,
    /// LLF with capacity estimate.
    Llf(f64),
    /// Non-preemptive FIFO.
    Fifo,
    /// Preemptive highest-value-first.
    GreedyValue,
    /// Preemptive highest-density-first.
    GreedyDensity,
    /// Dover with importance bound `k` and capacity estimate `ĉ`.
    Dover {
        /// Importance-ratio bound.
        k: f64,
        /// Capacity estimate `ĉ`.
        c_estimate: f64,
    },
    /// V-Dover; [`VDoverConfig::paper`] gives the paper's optimal β for
    /// `(k, δ)`, explicit knobs give the ablations.
    VDover(VDoverConfig),
}

/// Validates one spec parameter against its mathematical domain.
fn check(name: &'static str, value: f64, ok: bool, reason: &str) -> Result<(), CoreError> {
    if ok {
        Ok(())
    } else {
        Err(CoreError::InvalidParameter {
            name: name.to_string(),
            value,
            reason: reason.to_string(),
        })
    }
}

impl SchedulerSpec {
    /// Parses a scheduler from its command-line name.
    ///
    /// Parameters follow the paper's evaluation conventions:
    ///
    /// * `k` — importance ratio (max/min value density), used by the Dover
    ///   family's β threshold;
    /// * `delta` — capacity-class width `c_hi / c_lo`, used by V-Dover;
    /// * `c_lo`, `c_hi` — class bounds; `dover`/`dover-lo` estimate capacity
    ///   at `c_lo`, `dover-hi` at `c_hi`, and LLF computes laxity against
    ///   `c_lo`.
    ///
    /// # Errors
    /// [`CoreError::UnknownScheduler`] for an unrecognised name;
    /// [`CoreError::InvalidParameter`] when a parameter leaves its domain
    /// (`k >= 1`, `delta >= 1`, `0 < c_lo <= c_hi`, all finite).
    pub fn parse(name: &str, k: f64, delta: f64, c_lo: f64, c_hi: f64) -> Result<Self, CoreError> {
        check(
            "k",
            k,
            k.is_finite() && k >= 1.0, // lint: allow(L001) — domain boundary, k = 1 is legal
            "importance ratio k must be finite and >= 1",
        )?;
        check(
            "delta",
            delta,
            delta.is_finite() && delta >= 1.0, // lint: allow(L001) — domain boundary, delta = 1 is legal
            "capacity variation delta = c_hi/c_lo must be finite and >= 1",
        )?;
        check(
            "c_lo",
            c_lo,
            c_lo.is_finite() && c_lo > 0.0,
            "c_lo must be finite and > 0",
        )?;
        check(
            "c_hi",
            c_hi,
            c_hi.is_finite() && c_hi >= c_lo, // lint: allow(L001) — domain boundary, c_hi = c_lo is legal
            "c_hi must be finite and >= c_lo",
        )?;
        Ok(match name {
            "vdover" => SchedulerSpec::VDover(VDoverConfig::paper(k, delta)),
            "dover" | "dover-lo" => SchedulerSpec::Dover {
                k,
                c_estimate: c_lo,
            },
            "dover-hi" => SchedulerSpec::Dover {
                k,
                c_estimate: c_hi,
            },
            "edf" => SchedulerSpec::Edf,
            "llf" => SchedulerSpec::Llf(c_lo),
            "fifo" => SchedulerSpec::Fifo,
            "greedy" => SchedulerSpec::GreedyValue,
            "hvdf" => SchedulerSpec::GreedyDensity,
            other => {
                return Err(CoreError::UnknownScheduler {
                    name: other.to_string(),
                })
            }
        })
    }

    /// Parses `name` with the parameters read off `instance`: `k` is the
    /// observed importance ratio (7 when undefined), `δ` the capacity-class
    /// width clamped above 1, and the class bounds are the capacity's.
    ///
    /// # Errors
    /// As [`SchedulerSpec::parse`].
    pub fn for_instance(name: &str, instance: &Instance) -> Result<Self, CoreError> {
        let (c_lo, c_hi) = instance.capacity.bounds();
        let k = instance.importance_ratio().unwrap_or(7.0);
        let delta = instance.delta().max(1.0 + 1e-9);
        Self::parse(name, k, delta, c_lo, c_hi)
    }

    /// Instantiates a fresh scheduler.
    pub fn build(&self) -> Box<dyn Scheduler + Send> {
        match *self {
            SchedulerSpec::Edf => Box::new(Edf::new()),
            SchedulerSpec::Llf(c) => Box::new(Llf::with_estimate(c)),
            SchedulerSpec::Fifo => Box::new(Fifo::new()),
            SchedulerSpec::GreedyValue => Box::new(Greedy::highest_value()),
            SchedulerSpec::GreedyDensity => Box::new(Greedy::highest_density()),
            SchedulerSpec::Dover { k, c_estimate } => Box::new(Dover::new(k, c_estimate)),
            SchedulerSpec::VDover(ref cfg) => Box::new(VDover::from_config(cfg.clone())),
        }
    }

    /// The display name the built scheduler will report.
    pub fn name(&self) -> String {
        self.build().name()
    }
}

/// [`SchedulerSpec::parse`] then [`SchedulerSpec::build`].
///
/// Kept as a stable entry point for code outside this workspace that
/// builds schedulers by name (the `perfbench` service workload imports
/// it); inside the workspace, parse a [`SchedulerSpec`] instead.
///
/// # Errors
/// As [`SchedulerSpec::parse`].
pub fn by_name(
    name: &str,
    k: f64,
    delta: f64,
    c_lo: f64,
    c_hi: f64,
) -> Result<Box<dyn Scheduler>, CoreError> {
    Ok(SchedulerSpec::parse(name, k, delta, c_lo, c_hi)?.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsched_capacity::PiecewiseConstant;
    use cloudsched_core::JobSet;

    #[test]
    fn parse_knows_every_listed_name() {
        for name in SCHEDULER_NAMES {
            let spec = SchedulerSpec::parse(name, 7.0, 2.0, 1.0, 2.0)
                .unwrap_or_else(|e| panic!("parse rejected {name}: {e}"));
            assert_eq!(spec.name(), spec.build().name(), "{name}");
            let aliased = by_name(name, 7.0, 2.0, 1.0, 2.0).unwrap();
            assert_eq!(spec.name(), aliased.name(), "{name}");
        }
        assert!(SchedulerSpec::parse("bogus", 7.0, 2.0, 1.0, 2.0).is_err());
    }

    #[test]
    fn parse_rejects_out_of_domain_parameters_with_typed_errors() {
        match SchedulerSpec::parse("bogus", 7.0, 2.0, 1.0, 2.0) {
            Err(CoreError::UnknownScheduler { name }) => assert_eq!(name, "bogus"),
            other => panic!("expected UnknownScheduler, got {other:?}"),
        }
        for (k, delta, c_lo, c_hi, param) in [
            (0.5, 2.0, 1.0, 2.0, "k"),
            (f64::NAN, 2.0, 1.0, 2.0, "k"),
            (7.0, 0.9, 1.0, 2.0, "delta"),
            (7.0, 2.0, 0.0, 2.0, "c_lo"),
            (7.0, 2.0, -1.0, 2.0, "c_lo"),
            (7.0, 2.0, 1.0, 0.5, "c_hi"),
            (7.0, 2.0, 1.0, f64::INFINITY, "c_hi"),
        ] {
            match SchedulerSpec::parse("vdover", k, delta, c_lo, c_hi) {
                Err(CoreError::InvalidParameter { name, .. }) => assert_eq!(name, param),
                other => panic!("expected InvalidParameter({param}), got {other:?}"),
            }
        }
        // Boundary values are legal: k = 1, delta = 1, c_hi = c_lo.
        assert!(SchedulerSpec::parse("vdover", 1.0, 1.0, 2.0, 2.0).is_ok());
    }

    #[test]
    fn dover_variants_use_the_requested_bound() {
        // The names must construct distinct schedulers; their display names
        // encode the estimate so a mix-up would be visible in reports.
        let lo = SchedulerSpec::parse("dover-lo", 7.0, 2.0, 1.0, 4.0).unwrap();
        let hi = SchedulerSpec::parse("dover-hi", 7.0, 2.0, 1.0, 4.0).unwrap();
        assert_ne!(lo.name(), hi.name());
    }

    #[test]
    fn specs_build_and_name() {
        let specs = [
            SchedulerSpec::Edf,
            SchedulerSpec::Llf(2.0),
            SchedulerSpec::Fifo,
            SchedulerSpec::GreedyValue,
            SchedulerSpec::GreedyDensity,
            SchedulerSpec::Dover {
                k: 7.0,
                c_estimate: 10.5,
            },
            SchedulerSpec::VDover(VDoverConfig::paper(7.0, 35.0)),
        ];
        let names: Vec<String> = specs.iter().map(SchedulerSpec::name).collect();
        assert_eq!(names[0], "EDF");
        assert!(names[5].contains("Dover"));
        assert_eq!(names[6], "V-Dover");
        // All distinct.
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn for_instance_falls_back_to_k_7_and_delta_just_above_1() {
        // Densities 1 and 3 on constant capacity 2: k = 3 is read off the
        // jobs, and δ = 1 is clamped to 1 + 1e-9, so V-Dover takes the
        // f(k, δ) threshold rather than Dover's δ <= 1 fallback.
        let jobs = JobSet::from_tuples(&[(0.0, 4.0, 2.0, 2.0), (1.0, 6.0, 3.0, 9.0)]).unwrap();
        let inst = Instance::new(jobs, PiecewiseConstant::constant(2.0).unwrap());
        match SchedulerSpec::for_instance("dover", &inst).unwrap() {
            SchedulerSpec::Dover { k, c_estimate } => {
                assert_eq!(k.to_bits(), 3.0f64.to_bits());
                assert_eq!(c_estimate.to_bits(), 2.0f64.to_bits());
            }
            other => panic!("expected Dover, got {other:?}"),
        }
        match SchedulerSpec::for_instance("vdover", &inst).unwrap() {
            SchedulerSpec::VDover(cfg) => {
                let clamped = VDoverConfig::paper(3.0, 1.0 + 1e-9).beta;
                assert_eq!(cfg.beta.to_bits(), clamped.to_bits());
                assert_ne!(
                    cfg.beta.to_bits(),
                    VDoverConfig::paper(3.0, 1.0).beta.to_bits()
                );
            }
            other => panic!("expected V-Dover, got {other:?}"),
        }
        // A zero-value job leaves the importance ratio undefined: k = 7.
        let zero = JobSet::from_tuples(&[(0.0, 4.0, 2.0, 0.0), (1.0, 6.0, 3.0, 3.0)]).unwrap();
        let inst = Instance::new(zero, PiecewiseConstant::constant(2.0).unwrap());
        match SchedulerSpec::for_instance("dover-hi", &inst).unwrap() {
            SchedulerSpec::Dover { k, .. } => assert_eq!(k.to_bits(), 7.0f64.to_bits()),
            other => panic!("expected Dover, got {other:?}"),
        }
    }
}
