//! The Theorem 3(3) adversary: without individual admissibility no online
//! algorithm has a positive competitive ratio.
//!
//! The paper's detailed construction lives in an unpublished technical
//! report; what we implement here is a faithful *qualitative* reproduction
//! built from the proof sketch ("an input instance `I_n` … the job input of
//! which contains one job not individually admissible, such that the
//! competitive ratio for the singleton set `{I_n}` is disproportional with
//! `n`"). Our gadget:
//!
//! * one **bait job** `B` with workload `δ·L` over a window of length `L`
//!   (not individually admissible: it completes only if the capacity sits at
//!   `c_hi = δ` for its *entire* window) and maximal value density `k`;
//! * a stream of `m` **filler jobs** with zero conservative laxity covering
//!   the same window at density 1 — any instant spent on the bait forfeits
//!   the concurrent filler;
//! * two capacity futures that agree until late in the window:
//!   `stay-high` (capacity `δ` throughout — bait feasible, worth `k·δ`
//!   versus filler worth `1`) and `drop` (capacity collapses to `c_lo` just
//!   before the end — bait infeasible, filler is everything).
//!
//! The adaptive adversary watches the online algorithm: chase the bait and
//! the capacity drops at the last moment (online salvages `O(1/m)` of the
//! filler while the clairvoyant offline collects all of it); ignore the bait
//! and the capacity stays high (offline collects `k·δ` times the filler
//! value). Because the online scheduler cannot distinguish the futures
//! before its filler jobs expire, chaining `n` independent rounds and
//! letting the filler granularity `m` grow with `n` drives the achieved
//! ratio to zero — which is exactly what the `adversary` experiment binary
//! demonstrates against every scheduler in this workspace.

use cloudsched_capacity::PiecewiseConstant;
use cloudsched_core::{CoreError, JobId, JobSet};

/// One round of the adversary game.
#[derive(Debug, Clone)]
pub struct TrapRound {
    /// Bait + filler jobs, bait first (id 0), times relative to round start 0.
    pub jobs: JobSet,
    /// Future 1: capacity stays at `c_hi` forever.
    pub cap_stay_high: PiecewiseConstant,
    /// Future 2: capacity drops to `c_lo` at `L·(1 − 1/m)`.
    pub cap_drop: PiecewiseConstant,
    /// Clairvoyant optimum under `cap_stay_high` (runs the bait): `k·δ·L·c_lo`.
    pub opt_stay_high: f64,
    /// Clairvoyant optimum under `cap_drop` (runs the filler): `L·c_lo`
    /// — the filler value (bait infeasible once the drop is fixed).
    pub opt_drop: f64,
}

/// Parameters of the trap construction.
#[derive(Debug, Clone, Copy)]
pub struct TrapParams {
    /// Importance-ratio bound `k >= 1` (bait density).
    pub k: f64,
    /// Capacity variation `δ > 1` (`c_lo = 1`, `c_hi = δ`).
    pub delta: f64,
    /// Window length of the round.
    pub window: f64,
    /// Number of filler jobs (granularity). More filler ⇒ less salvage for a
    /// bait-chasing online algorithm ⇒ smaller achieved ratio.
    pub fillers: usize,
}

impl TrapRound {
    /// Builds one round.
    pub fn build(p: TrapParams) -> Result<TrapRound, CoreError> {
        let TrapParams {
            k,
            delta,
            window: l,
            fillers: m,
        } = p;
        // lint: allow(L001) — exact domain validation
        if k < 1.0 || delta <= 1.0 || l <= 0.0 || m == 0 {
            return Err(CoreError::InvalidCapacityProfile {
                reason: format!("invalid trap parameters {p:?}"),
            });
        }
        // Bait: completable only at full capacity δ over the whole window.
        // Not individually admissible: p/c_lo = δ·l > l = d − r.
        let mut tuples = vec![(0.0, l, delta * l, k * delta * l)];
        // Fillers: m zero-conservative-laxity unit-density jobs tiling [0, l].
        let step = l / m as f64;
        for j in 0..m {
            let r = j as f64 * step;
            tuples.push((r, r + step, step, step));
        }
        let jobs = JobSet::from_tuples(&tuples)?;
        let cap_stay_high = PiecewiseConstant::constant(delta)?.with_declared_bounds(1.0, delta)?;
        let drop_at = l * (1.0 - 1.0 / m as f64);
        let cap_drop = if drop_at > 0.0 {
            PiecewiseConstant::from_durations(&[(drop_at, delta), (1.0, 1.0)])?
                .with_declared_bounds(1.0, delta)?
        } else {
            PiecewiseConstant::constant(1.0)?.with_declared_bounds(1.0, delta)?
        };
        Ok(TrapRound {
            jobs,
            cap_stay_high,
            cap_drop,
            opt_stay_high: k * delta * l,
            opt_drop: l,
        })
    }
}

/// A §III-D-style *corrupt stream* for degradation testing: the trap's
/// inadmissible bait plus a duplicate release of the first filler, riding
/// on an otherwise clean filler stream under the stay-high capacity future.
///
/// The bait violates Def. 4 against the declared `c_lo = 1` (its window is
/// `1/δ` of its minimum processing time), and the duplicate replays filler
/// parameters under a fresh id — exactly the two job-stream faults the
/// degradation watchdog must catch. A `Strict` policy is expected to abort
/// on the first corrupt release; a `Degrade` policy to quarantine both and
/// still collect the clean filler value.
#[derive(Debug, Clone)]
pub struct CorruptRound {
    /// Bait (id 0), fillers (ids `1..=m`), duplicate of filler 1 (id `m+1`).
    pub jobs: JobSet,
    /// Stay-high capacity: constant `δ` with declared bounds `(1, δ)`.
    pub capacity: PiecewiseConstant,
    /// Ids of the corrupt jobs, in release order: the bait, then the
    /// duplicate.
    pub corrupt_ids: Vec<JobId>,
    /// Total value of the clean fillers (what a degraded run can still
    /// collect after quarantining the corruption).
    pub clean_value: f64,
}

impl CorruptRound {
    /// Builds the corrupt round from trap parameters.
    ///
    /// # Errors
    /// Same domain as [`TrapRound::build`].
    pub fn build(p: TrapParams) -> Result<CorruptRound, CoreError> {
        let trap = TrapRound::build(p)?;
        let m = p.fillers;
        let mut tuples: Vec<(f64, f64, f64, f64)> = trap
            .jobs
            .iter()
            .map(|j| (j.release.as_f64(), j.deadline.as_f64(), j.workload, j.value))
            .collect();
        // Duplicate release of the first filler (id 1): identical
        // parameters, fresh id appended after every original. The kernel's
        // id tie-break releases the original first, so the watchdog sees
        // the copy as a duplicate, not as a first sighting.
        let first_filler = trap.jobs.get(JobId(1));
        tuples.push((
            first_filler.release.as_f64(),
            first_filler.deadline.as_f64(),
            first_filler.workload,
            first_filler.value,
        ));
        let jobs = JobSet::from_tuples(&tuples)?;
        let clean_value: f64 = trap.jobs.iter().skip(1).map(|j| j.value).sum();
        Ok(CorruptRound {
            jobs,
            capacity: trap.cap_stay_high,
            corrupt_ids: vec![JobId(0), JobId(m as u64 + 1)],
            clean_value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsched_capacity::CapacityProfile;
    use cloudsched_core::JobId;

    fn params() -> TrapParams {
        TrapParams {
            k: 7.0,
            delta: 5.0,
            window: 1.0,
            fillers: 10,
        }
    }

    #[test]
    fn bait_is_not_admissible_fillers_are() {
        let r = TrapRound::build(params()).unwrap();
        let bait = r.jobs.get(JobId(0));
        assert!(!bait.individually_admissible(1.0));
        for j in r.jobs.iter().skip(1) {
            assert!(
                j.individually_admissible(1.0),
                "{} must be admissible",
                j.id
            );
            // Zero conservative laxity exactly.
            assert!(
                (j.relative_deadline().as_f64() - j.workload).abs() < 1e-12,
                "filler must have zero claxity"
            );
        }
    }

    #[test]
    fn bait_feasible_only_in_stay_high_future() {
        let r = TrapRound::build(params()).unwrap();
        let bait = r.jobs.get(JobId(0));
        let high = r.cap_stay_high.integrate(bait.release, bait.deadline);
        assert!(high >= bait.workload - 1e-9, "bait fits under stay-high");
        let drop = r.cap_drop.integrate(bait.release, bait.deadline);
        assert!(drop < bait.workload, "bait must not fit under drop");
    }

    #[test]
    fn importance_ratio_is_k() {
        let r = TrapRound::build(params()).unwrap();
        assert!((r.jobs.importance_ratio().unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn optima_are_consistent() {
        let r = TrapRound::build(params()).unwrap();
        // Stay-high optimum is the bait's value; drop optimum the filler sum.
        assert!((r.opt_stay_high - 35.0).abs() < 1e-12);
        let filler_total: f64 = r.jobs.iter().skip(1).map(|j| j.value).sum();
        assert!((r.opt_drop - filler_total).abs() < 1e-9);
    }

    #[test]
    fn degenerate_parameters_rejected() {
        for bad in [
            TrapParams { k: 0.5, ..params() },
            TrapParams {
                delta: 1.0,
                ..params()
            },
            TrapParams {
                window: 0.0,
                ..params()
            },
            TrapParams {
                fillers: 0,
                ..params()
            },
        ] {
            assert!(TrapRound::build(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn corrupt_round_marks_exactly_the_corrupt_jobs() {
        let p = params();
        let r = CorruptRound::build(p).unwrap();
        assert_eq!(r.jobs.len(), p.fillers + 2);
        assert_eq!(r.corrupt_ids, vec![JobId(0), JobId(p.fillers as u64 + 1)]);
        // The bait violates Def. 4 against the declared floor…
        assert!(!r.jobs.get(JobId(0)).individually_admissible(1.0));
        // …the duplicate replays filler 1 exactly…
        let (orig, dup) = (
            r.jobs.get(JobId(1)),
            r.jobs.get(JobId(p.fillers as u64 + 1)),
        );
        assert_eq!(orig.release, dup.release);
        assert_eq!(orig.deadline, dup.deadline);
        assert!((orig.workload - dup.workload).abs() < 1e-15);
        assert!((orig.value - dup.value).abs() < 1e-15);
        // …and every clean filler stays admissible.
        for j in r.jobs.iter().skip(1).take(p.fillers) {
            assert!(j.individually_admissible(1.0), "{} must be clean", j.id);
        }
        let filler_total: f64 = (1..=p.fillers)
            .map(|i| r.jobs.get(JobId(i as u64)).value)
            .sum();
        assert!((r.clean_value - filler_total).abs() < 1e-12);
    }

    #[test]
    fn capacity_futures_share_declared_bounds() {
        let r = TrapRound::build(params()).unwrap();
        assert_eq!(r.cap_stay_high.bounds(), (1.0, 5.0));
        assert_eq!(r.cap_drop.bounds(), (1.0, 5.0));
        // Futures agree up to the drop instant.
        let drop_at = 1.0 - 1.0 / 10.0;
        assert_eq!(
            r.cap_drop
                .rate_at(cloudsched_core::Time::new(drop_at - 1e-9)),
            5.0
        );
        assert_eq!(r.cap_drop.rate_at(cloudsched_core::Time::new(drop_at)), 1.0);
    }
}
