//! Exact optimal offline value by branch-and-bound over feasible subsets.
//!
//! The offline problem is NP-hard even with constant capacity (Dertouzos &
//! Mok), so exactness costs exponential time in the worst case. The search
//! explores jobs in descending value order with the classic optimistic bound
//! (current value + everything not yet decided) and an EDF feasibility check
//! at every inclusion; instances up to ~20–25 jobs — the sizes used for
//! measured competitive ratios — solve in milliseconds.

use crate::feasibility::edf_feasible;
use cloudsched_capacity::CapacityProfile;
use cloudsched_core::{Job, JobId, JobSet};

/// The exact optimum: maximum total value over feasible subsets, and one
/// subset achieving it (ids in ascending order).
pub fn optimal_value<P: CapacityProfile>(jobs: &JobSet, capacity: &P) -> (f64, Vec<JobId>) {
    let mut order: Vec<&Job> = jobs.iter().collect();
    // Highest value first gives strong early incumbents.
    order.sort_by(|a, b| b.value.total_cmp(&a.value).then(a.id.cmp(&b.id)));
    // Suffix sums of value for the optimistic bound.
    let mut suffix = vec![0.0; order.len() + 1];
    for i in (0..order.len()).rev() {
        suffix[i] = suffix[i + 1] + order[i].value;
    }
    let mut best_value = 0.0;
    let mut best_set: Vec<JobId> = Vec::new();
    let mut chosen: Vec<Job> = Vec::new();

    // The branch-and-bound state threaded through the recursion.
    #[allow(clippy::too_many_arguments)]
    fn recurse<P: CapacityProfile>(
        order: &[&Job],
        suffix: &[f64],
        capacity: &P,
        idx: usize,
        chosen: &mut Vec<Job>,
        chosen_value: f64,
        best_value: &mut f64,
        best_set: &mut Vec<JobId>,
    ) {
        // lint: allow(L001) — deliberate one-sided pruning slack
        if chosen_value + suffix[idx] <= *best_value + 1e-12 {
            return; // optimistic bound cannot beat the incumbent
        }
        if idx == order.len() {
            if chosen_value > *best_value {
                *best_value = chosen_value;
                *best_set = chosen.iter().map(|j| j.id).collect();
                best_set.sort();
            }
            return;
        }
        let job = order[idx];
        // Branch 1: include (only if still feasible).
        chosen.push(job.clone());
        if edf_feasible(chosen, capacity) {
            recurse(
                order,
                suffix,
                capacity,
                idx + 1,
                chosen,
                chosen_value + job.value,
                best_value,
                best_set,
            );
        }
        chosen.pop();
        // Branch 2: exclude.
        recurse(
            order,
            suffix,
            capacity,
            idx + 1,
            chosen,
            chosen_value,
            best_value,
            best_set,
        );
    }

    recurse(
        &order,
        &suffix,
        capacity,
        0,
        &mut chosen,
        0.0,
        &mut best_value,
        &mut best_set,
    );
    (best_value, best_set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsched_capacity::{Constant, PiecewiseConstant};

    #[test]
    fn empty_set() {
        let jobs = JobSet::new(vec![]).unwrap();
        let (v, s) = optimal_value(&jobs, &Constant::unit());
        assert_eq!(v, 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn feasible_set_takes_everything() {
        let jobs = JobSet::from_tuples(&[
            (0.0, 10.0, 2.0, 3.0),
            (1.0, 9.0, 2.0, 4.0),
            (2.0, 8.0, 2.0, 5.0),
        ])
        .unwrap();
        let (v, s) = optimal_value(&jobs, &Constant::unit());
        assert_eq!(v, 12.0);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn overload_picks_best_subset() {
        // Two conflicting jobs; the valuable one wins.
        let jobs = JobSet::from_tuples(&[(0.0, 2.0, 2.0, 1.0), (0.0, 2.0, 2.0, 9.0)]).unwrap();
        let (v, s) = optimal_value(&jobs, &Constant::unit());
        assert_eq!(v, 9.0);
        assert_eq!(s, vec![JobId(1)]);
    }

    #[test]
    fn knapsack_like_combination_beats_single_big() {
        // One job worth 10 occupying everything vs three jobs worth 4 each
        // that fit together.
        let jobs = JobSet::from_tuples(&[
            (0.0, 3.0, 3.0, 10.0),
            (0.0, 1.0, 1.0, 4.0),
            (1.0, 2.0, 1.0, 4.0),
            (2.0, 3.0, 1.0, 4.0),
        ])
        .unwrap();
        let (v, s) = optimal_value(&jobs, &Constant::unit());
        assert_eq!(v, 12.0);
        assert_eq!(s, vec![JobId(1), JobId(2), JobId(3)]);
    }

    #[test]
    fn varying_capacity_changes_the_answer() {
        let jobs = JobSet::from_tuples(&[
            (0.0, 2.0, 6.0, 10.0), // needs high capacity
            (0.0, 2.0, 2.0, 3.0),
        ])
        .unwrap();
        let low = Constant::unit();
        let (v, s) = optimal_value(&jobs, &low);
        assert_eq!(v, 3.0);
        assert_eq!(s, vec![JobId(1)]);
        let high = PiecewiseConstant::constant(4.0).unwrap();
        let (v, s) = optimal_value(&jobs, &high);
        // Rate 4 on [0,2]: 8 units serve both (6 + 2).
        assert_eq!(v, 13.0);
        assert_eq!(s, vec![JobId(0), JobId(1)]);
    }

    #[test]
    fn optimum_dominates_greedy() {
        let jobs = JobSet::from_tuples(&[
            (0.0, 4.0, 4.0, 10.0),
            (0.0, 2.0, 2.0, 6.0),
            (2.0, 4.0, 2.0, 6.0),
        ])
        .unwrap();
        let cap = Constant::unit();
        let (opt, _) = optimal_value(&jobs, &cap);
        let (g, _) = crate::greedy::greedy_by_value(&jobs, &cap);
        assert!(opt >= g);
        assert_eq!(opt, 12.0); // the two sixes beat the ten
    }

    #[test]
    fn brute_force_agreement_on_random_instance() {
        // Cross-check B&B against exhaustive enumeration for n = 10.
        let tuples: Vec<(f64, f64, f64, f64)> = (0..10)
            .map(|i| {
                let f = i as f64;
                let r = (f * 0.7) % 3.0;
                let p = 0.5 + (f * 0.37) % 1.5;
                let d = r + p + (f * 0.53) % 2.0;
                let v = 1.0 + (f * 1.3) % 5.0;
                (r, d, p, v)
            })
            .collect();
        let jobs = JobSet::from_tuples(&tuples).unwrap();
        let cap = PiecewiseConstant::from_durations(&[(2.0, 1.0), (2.0, 3.0)]).unwrap();
        let (bb, _) = optimal_value(&jobs, &cap);
        // Exhaustive.
        let all: Vec<Job> = jobs.iter().cloned().collect();
        let mut brute: f64 = 0.0;
        for mask in 0u32..(1 << all.len()) {
            let subset: Vec<Job> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, j)| j.clone())
                .collect();
            if edf_feasible(&subset, &cap) {
                brute = brute.max(subset.iter().map(|j| j.value).sum());
            }
        }
        assert!(
            (bb - brute).abs() < 1e-9,
            "branch-and-bound {bb} vs brute force {brute}"
        );
    }
}
