//! Seed-sweep chaos campaigns: inject a [`FaultPlan`] into paper-scenario
//! instances, run every degradation policy on the same corrupted instance,
//! and compare accrued value against the fault-free baseline.
//!
//! Everything downstream of the `(plan, seed)` pair is deterministic — the
//! corrupted job set, the dipped capacity trace, the oracle's reading
//! sequence, and hence the full fault/recovery trace. Running a campaign
//! twice yields byte-identical reports and JSONL traces, which is what the
//! CI chaos smoke job asserts.

use crate::capacity::apply_capacity_faults;
use crate::config::FaultPlan;
use crate::stream::{corrupt_stream, InjectedFault};
use cloudsched_capacity::{CapacityProfile, Instance};
use cloudsched_core::{derive_seed, parallel_map, CoreError, Rng, SplitMix64};
use cloudsched_obs::JsonlTracer;
use cloudsched_sim::{
    simulate, DegradationPolicy, DegradationStats, Run, RunOptions, WatchdogConfig,
};
use cloudsched_workload::PaperScenario;

/// Configuration of one chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Arrival rate λ of the paper's Table I scenario.
    pub lambda: f64,
    /// First seed of the sweep.
    pub first_seed: u64,
    /// Number of consecutive seeds.
    pub num_seeds: usize,
    /// Factory name of the scheduler under test.
    pub scheduler: String,
    /// The fault plan to inject.
    pub plan: FaultPlan,
    /// Degradation policies to compare (in report order).
    pub policies: Vec<DegradationPolicy>,
    /// Worker threads for the seed sweep. Purely a wall-clock knob: the
    /// report and traces are bit-identical for every value (each seed is
    /// self-contained and results are joined in seed order).
    pub threads: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            lambda: 8.0,
            first_seed: 1,
            num_seeds: 5,
            scheduler: "vdover".to_string(),
            plan: FaultPlan::harsh(),
            policies: vec![
                DegradationPolicy::Strict,
                DegradationPolicy::Degrade,
                DegradationPolicy::BestEffort,
            ],
            threads: 1,
        }
    }
}

/// A clean instance plus its faulted twin, ready to simulate.
#[derive(Debug, Clone)]
pub struct FaultedInstance {
    /// The fault-free instance (baseline).
    pub baseline: Instance,
    /// Corrupted jobs on dipped capacity, declared bounds unchanged.
    pub faulted: Instance,
    /// Injected stream faults, by id in the corrupted job set.
    pub injected: Vec<InjectedFault>,
    /// Importance ratio `k` of the scenario (the watchdog's spike limit).
    pub k: f64,
    /// Capacity-class width `δ` (clamped above 1 for V-Dover).
    pub delta: f64,
}

/// Generates the Table-I instance for `(lambda, seed)` and applies `plan`
/// to it. Sub-seeds for generation, stream corruption and the oracle are
/// derived from `seed` with SplitMix64, so fault randomness never perturbs
/// the underlying instance.
///
/// # Errors
/// Propagates scenario-generation and fault-injection failures.
pub fn prepare(plan: &FaultPlan, lambda: f64, seed: u64) -> Result<FaultedInstance, CoreError> {
    let scenario = PaperScenario::table1(lambda);
    let generated = scenario.generate(seed)?;
    let baseline = generated.instance;
    let (declared_lo, _) = baseline.capacity.bounds();
    let k = scenario.k();
    let delta = scenario.delta().max(1.0 + 1e-9);

    let mut sub = SplitMix64::seed_from_u64(seed);
    let stream_seed = sub.next_u64();
    let horizon = scenario.horizon;
    let (jobs, injected) =
        corrupt_stream(&baseline.jobs, &plan.stream, declared_lo, k, stream_seed)?;
    let capacity = apply_capacity_faults(&baseline.capacity, &plan.capacity, horizon)?;
    Ok(FaultedInstance {
        faulted: Instance::new(jobs, capacity),
        baseline,
        injected,
        k,
        delta,
    })
}

/// Derives the oracle's sub-seed for `seed` (third draw after generation
/// and stream corruption, so the streams stay decorrelated).
pub fn oracle_seed(seed: u64) -> u64 {
    let mut sub = SplitMix64::seed_from_u64(seed);
    let _stream = sub.next_u64();
    sub.next_u64()
}

/// Outcome of one `(seed, policy)` degraded run.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The policy that produced this outcome.
    pub policy: DegradationPolicy,
    /// Accrued value.
    pub value: f64,
    /// `value / baseline_value` (1 when the baseline accrued nothing).
    pub retention: f64,
    /// Rendered abort error, if the policy aborted the run.
    pub aborted: Option<String>,
    /// Watchdog statistics.
    pub stats: DegradationStats,
    /// Number of audit violations in the recorded schedule.
    pub audit_errors: usize,
}

/// Outcome of one seed: the baseline plus one entry per policy.
#[derive(Debug, Clone)]
pub struct SeedOutcome {
    /// Instance seed.
    pub seed: u64,
    /// Number of clean jobs in the instance.
    pub clean_jobs: usize,
    /// Number of injected corrupt jobs.
    pub injected: usize,
    /// Value accrued by the fault-free baseline run.
    pub baseline_value: f64,
    /// Per-policy outcomes, in campaign policy order.
    pub policies: Vec<PolicyOutcome>,
}

/// A full campaign report.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The configuration that produced it.
    pub config: ChaosConfig,
    /// One outcome per seed, in sweep order.
    pub seeds: Vec<SeedOutcome>,
}

impl CampaignReport {
    /// Mean value retention of `policy` across all seeds (0 when the policy
    /// was not part of the sweep).
    pub fn mean_retention(&self, policy: DegradationPolicy) -> f64 {
        let values: Vec<f64> = self
            .seeds
            .iter()
            .flat_map(|s| &s.policies)
            .filter(|p| p.policy == policy)
            .map(|p| p.retention)
            .collect();
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }

    /// Total aborts across the sweep for `policy`.
    pub fn aborts(&self, policy: DegradationPolicy) -> usize {
        self.seeds
            .iter()
            .flat_map(|s| &s.policies)
            .filter(|p| p.policy == policy && p.aborted.is_some())
            .count()
    }

    /// Total audit violations across every degraded run of the sweep.
    pub fn audit_errors(&self) -> usize {
        self.seeds
            .iter()
            .flat_map(|s| &s.policies)
            .map(|p| p.audit_errors)
            .sum()
    }

    /// Renders the campaign as a deterministic plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "chaos campaign: plan={} sched={} lambda={} seeds={}..{}\n",
            self.config.plan.name(),
            self.config.scheduler,
            self.config.lambda,
            self.config.first_seed,
            // The campaign's last seed. `derive_seed(s, 0.0, r) == s + r`
            // exactly, so the header is unchanged from the former inline sum.
            derive_seed(
                self.config.first_seed,
                0.0,
                self.config.num_seeds.saturating_sub(1),
            ),
        ));
        out.push_str(&format!(
            "{:<6} {:>6} {:>5} {:>12} | {:<12} {:>10} {:>9} {:>7} {:>6} {:>6} {:>7}\n",
            "seed",
            "jobs",
            "inj",
            "baseline",
            "policy",
            "value",
            "retain%",
            "faults",
            "quar",
            "readm",
            "abort"
        ));
        for s in &self.seeds {
            for (i, p) in s.policies.iter().enumerate() {
                let seed_cols = if i == 0 {
                    format!(
                        "{:<6} {:>6} {:>5} {:>12.3}",
                        s.seed, s.clean_jobs, s.injected, s.baseline_value
                    )
                } else {
                    format!("{:<6} {:>6} {:>5} {:>12}", "", "", "", "")
                };
                out.push_str(&format!(
                    "{} | {:<12} {:>10.3} {:>9.2} {:>7} {:>6} {:>6} {:>7}\n",
                    seed_cols,
                    p.policy.as_str(),
                    p.value,
                    100.0 * p.retention,
                    p.stats.faults_detected,
                    p.stats.quarantined,
                    p.stats.readmitted,
                    if p.aborted.is_some() { "yes" } else { "-" },
                ));
            }
        }
        out.push_str("mean retention:");
        for policy in &self.config.policies {
            out.push_str(&format!(
                " {}={:.1}%",
                policy.as_str(),
                100.0 * self.mean_retention(*policy)
            ));
        }
        out.push('\n');
        out
    }
}

/// Runs one degraded `(instance, policy)` pair and folds the outcome.
fn run_policy(
    fi: &FaultedInstance,
    scheduler: &str,
    policy: DegradationPolicy,
    seed: u64,
    plan: &FaultPlan,
    baseline_value: f64,
) -> Result<PolicyOutcome, CoreError> {
    let (c_lo, c_hi) = fi.faulted.capacity.bounds();
    let mut sched = cloudsched_sched::by_name(scheduler, fi.k, fi.delta, c_lo, c_hi)?;
    let mut oracle = crate::oracle::FaultyOracle::new(plan.oracle, oracle_seed(seed));
    let cfg = WatchdogConfig {
        max_retries: 3,
        k_limit: Some(fi.k),
    };
    let options = RunOptions {
        record_schedule: true,
        ..RunOptions::lean()
    };
    let outcome = Run::new(&fi.faulted.jobs, &fi.faulted.capacity, options)
        .watchdog(policy, cfg, Some(&mut oracle))
        .run_degraded(&mut *sched);
    let retention = if baseline_value > 0.0 {
        outcome.report.value / baseline_value
    } else {
        1.0
    };
    Ok(PolicyOutcome {
        policy,
        value: outcome.report.value,
        retention,
        aborted: outcome.aborted.map(|e| e.to_string()),
        stats: outcome.stats,
        audit_errors: outcome.audit_errors.len(),
    })
}

/// Runs the whole campaign: for every seed, a fault-free baseline run plus
/// one degraded run per policy on the identical corrupted instance.
///
/// # Errors
/// Unknown scheduler names, out-of-domain parameters, or instance
/// generation failures.
pub fn run_campaign(cfg: &ChaosConfig) -> Result<CampaignReport, CoreError> {
    // Seeds are independent, so the sweep fans out over a work-stealing
    // pool; `parallel_map` returns results in seed order regardless of
    // thread count, keeping the report byte-identical to a serial run.
    // `derive_seed(s, 0.0, i) == s + i` exactly (the frozen formula adds
    // nothing at lambda 0), so campaign goldens stay byte-identical.
    let seeds = parallel_map(cfg.num_seeds, cfg.threads.max(1), |i| {
        run_seed(cfg, derive_seed(cfg.first_seed, 0.0, i))
    })
    .into_iter()
    .collect::<Result<Vec<SeedOutcome>, CoreError>>()?;
    Ok(CampaignReport {
        config: cfg.clone(),
        seeds,
    })
}

/// Runs one seed of the campaign: the fault-free baseline plus one degraded
/// run per policy on the identical corrupted instance.
///
/// # Errors
/// Unknown scheduler names, out-of-domain parameters, or instance
/// generation failures.
pub fn run_seed(cfg: &ChaosConfig, seed: u64) -> Result<SeedOutcome, CoreError> {
    let fi = prepare(&cfg.plan, cfg.lambda, seed)?;
    let (c_lo, c_hi) = fi.baseline.capacity.bounds();
    let mut base_sched = cloudsched_sched::by_name(&cfg.scheduler, fi.k, fi.delta, c_lo, c_hi)?;
    let baseline = simulate(
        &fi.baseline.jobs,
        &fi.baseline.capacity,
        &mut *base_sched,
        RunOptions::lean(),
    );
    let mut policies = Vec::with_capacity(cfg.policies.len());
    for &policy in &cfg.policies {
        policies.push(run_policy(
            &fi,
            &cfg.scheduler,
            policy,
            seed,
            &cfg.plan,
            baseline.value,
        )?);
    }
    Ok(SeedOutcome {
        seed,
        clean_jobs: fi.baseline.jobs.len(),
        injected: fi.injected.len(),
        baseline_value: baseline.value,
        policies,
    })
}

/// Runs one `(seed, policy)` degraded run with a JSONL tracer and returns
/// the trace — the byte-stable artefact the golden test and the CI smoke
/// job compare.
///
/// # Errors
/// Unknown scheduler names, out-of-domain parameters, or instance
/// generation failures.
pub fn chaos_trace(
    cfg: &ChaosConfig,
    seed: u64,
    policy: DegradationPolicy,
) -> Result<String, CoreError> {
    let fi = prepare(&cfg.plan, cfg.lambda, seed)?;
    let (c_lo, c_hi) = fi.faulted.capacity.bounds();
    let mut sched = cloudsched_sched::by_name(&cfg.scheduler, fi.k, fi.delta, c_lo, c_hi)?;
    let mut oracle = crate::oracle::FaultyOracle::new(cfg.plan.oracle, oracle_seed(seed));
    let mut tracer = JsonlTracer::new(Vec::new());
    let wcfg = WatchdogConfig {
        max_retries: 3,
        k_limit: Some(fi.k),
    };
    Run::new(&fi.faulted.jobs, &fi.faulted.capacity, RunOptions::lean())
        .tracer(&mut tracer)
        .watchdog(policy, wcfg, Some(&mut oracle))
        .run_degraded(&mut *sched);
    let bytes = tracer
        .finish()
        .expect("invariant: writing to an in-memory Vec cannot fail");
    Ok(String::from_utf8(bytes).expect("invariant: JSONL traces are ASCII"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ChaosConfig {
        ChaosConfig {
            lambda: 4.0,
            first_seed: 7,
            num_seeds: 2,
            scheduler: "vdover".to_string(),
            plan: FaultPlan::harsh(),
            policies: vec![
                DegradationPolicy::Strict,
                DegradationPolicy::Degrade,
                DegradationPolicy::BestEffort,
            ],
            threads: 1,
        }
    }

    #[test]
    fn prepare_is_deterministic_and_injects_the_plan() {
        let a = prepare(&FaultPlan::harsh(), 4.0, 3).unwrap();
        let b = prepare(&FaultPlan::harsh(), 4.0, 3).unwrap();
        assert_eq!(a.faulted.jobs, b.faulted.jobs);
        assert_eq!(a.faulted.capacity, b.faulted.capacity);
        assert_eq!(a.injected, b.injected);
        assert_eq!(
            a.injected.len(),
            FaultPlan::harsh().stream.injected(),
            "every configured stream fault must be injected"
        );
        // The dip really breaks the SLA while the declared claim stands.
        let (declared_lo, _) = a.faulted.capacity.bounds();
        let (observed_lo, _) = a.faulted.capacity.observed_bounds();
        assert!(observed_lo < declared_lo);
        assert_eq!(a.baseline.capacity.bounds(), a.faulted.capacity.bounds());
    }

    #[test]
    fn the_none_plan_leaves_the_instance_untouched() {
        let fi = prepare(&FaultPlan::none(), 4.0, 3).unwrap();
        assert_eq!(fi.baseline.jobs, fi.faulted.jobs);
        assert_eq!(fi.baseline.capacity, fi.faulted.capacity);
        assert!(fi.injected.is_empty());
    }

    #[test]
    fn campaigns_render_deterministically() {
        let cfg = small();
        let a = run_campaign(&cfg).unwrap();
        let b = run_campaign(&cfg).unwrap();
        assert_eq!(a.render(), b.render());
        assert_eq!(a.seeds.len(), 2);
        for s in &a.seeds {
            assert_eq!(s.policies.len(), 3);
        }
    }

    #[test]
    fn degrade_dominates_strict_under_harsh_faults() {
        let report = run_campaign(&small()).unwrap();
        // Strict aborts on the first detected fault; Degrade keeps going.
        assert!(report.aborts(DegradationPolicy::Strict) > 0);
        assert_eq!(report.aborts(DegradationPolicy::Degrade), 0);
        assert!(
            report.mean_retention(DegradationPolicy::Degrade)
                >= report.mean_retention(DegradationPolicy::Strict)
        );
        assert_eq!(report.audit_errors(), 0, "no run may violate the audit");
    }

    #[test]
    fn threaded_campaigns_match_the_serial_report() {
        let serial = run_campaign(&small()).unwrap();
        let mut cfg = small();
        cfg.threads = 4;
        let threaded = run_campaign(&cfg).unwrap();
        // The thread count is a pure wall-clock knob: render() omits it and
        // every other byte of the report must match the serial sweep.
        assert_eq!(serial.render(), threaded.render());
    }

    #[test]
    fn chaos_traces_are_byte_stable() {
        let cfg = small();
        let a = chaos_trace(&cfg, 7, DegradationPolicy::Degrade).unwrap();
        let b = chaos_trace(&cfg, 7, DegradationPolicy::Degrade).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"ev\":\"fault\""), "trace must record faults");
    }
}
