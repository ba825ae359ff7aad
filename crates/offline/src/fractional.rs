//! The fractional (LP) relaxation of the offline problem — a *tight* upper
//! bound on the optimal integral value.
//!
//! Relaxation: each job may be served fractionally, earning `v_i · x_i` for
//! executing `x_i · p_i` of its workload inside `[r_i, d_i]`, subject to the
//! capacity constraints. Under preemption the feasible service vectors form
//! a **polymatroid**, so the LP optimum is reached by the density-greedy
//! rule: process jobs in descending value density and give each the maximum
//! additional service *achievable by rearranging* earlier allocations
//! (amounts of earlier jobs stay fixed; which time cells serve them may
//! change). The rearranging step is a max-flow augmentation on the bipartite
//! job/cell transportation network.
//!
//! The result dominates [`crate::exact::optimal_value`] and runs in
//! polynomial time, so harnesses use it to normalise online values on
//! instances too large for branch-and-bound.

use cloudsched_capacity::CapacityProfile;
use cloudsched_core::{JobSet, Time};
use std::collections::VecDeque;

const EPS: f64 = 1e-9;

/// Maximum value of the fractional relaxation, and the per-job served
/// fractions (indexed by job id).
pub fn fractional_optimal<P: CapacityProfile>(jobs: &JobSet, capacity: &P) -> (f64, Vec<f64>) {
    let n = jobs.len();
    if n == 0 {
        return (0.0, Vec::new());
    }
    // Elementary cells: the partition induced by all releases and deadlines.
    let mut cuts: Vec<f64> = Vec::with_capacity(2 * n);
    for j in jobs.iter() {
        cuts.push(j.release.as_f64());
        cuts.push(j.deadline.as_f64());
    }
    cuts.sort_by(f64::total_cmp);
    cuts.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    let cells: Vec<(f64, f64)> = cuts.windows(2).map(|w| (w[0], w[1])).collect();
    let m = cells.len();
    let mut residual: Vec<f64> = cells
        .iter()
        .map(|&(a, b)| capacity.integrate(Time::new(a), Time::new(b)))
        .collect();

    // Cells overlapping each job's window.
    let window_cells: Vec<Vec<usize>> = jobs
        .iter()
        .map(|j| {
            let (r, d) = (j.release.as_f64(), j.deadline.as_f64());
            cells
                .iter()
                .enumerate()
                .filter(|(_, &(a, b))| b > r + 1e-15 && a < d - 1e-15)
                .map(|(c, _)| c)
                .collect()
        })
        .collect();

    // alloc[i][c]: workload of job i served in cell c (sparse would also do;
    // n and m are both O(jobs), so dense is simplest).
    let mut alloc = vec![vec![0.0f64; m]; n];

    // Density-greedy order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let s = jobs.as_slice();
        s[b].value_density()
            .total_cmp(&s[a].value_density())
            .then(s[a].id.cmp(&s[b].id))
    });

    let mut served = vec![0.0f64; n];
    for &i in &order {
        let mut need = jobs.as_slice()[i].workload;
        while need > EPS {
            // BFS over the residual transportation network starting from the
            // cells of job i's window, alternating cell -> job (positive
            // allocation) -> cell (job's window).
            let Some((target, parent_job, parent_cell)) =
                bfs_augmenting(i, &window_cells, &alloc, &residual)
            else {
                break;
            };
            // Reconstruct path target-cell <- job <- cell <- ... <- job i and
            // find the bottleneck.
            let mut path: Vec<(usize, usize)> = Vec::new(); // (job, cell) hops
            let mut c = target;
            loop {
                let j = parent_job[c].expect("invariant: BFS reached this cell via some job");
                path.push((j, c));
                if j == i {
                    break;
                }
                c = parent_cell[j]
                    .expect("invariant: every non-source job on the path was reached via a cell");
            }
            // path is [(j_k, target), ..., (i, c1)] — bottleneck over the
            // "decrease alloc[j][parent_cell[j]]" edges plus residual+need.
            let mut bottleneck = need.min(residual[target]);
            for &(j, _) in &path {
                if j != i {
                    let pc =
                        parent_cell[j].expect("invariant: non-source path jobs have a parent cell");
                    bottleneck = bottleneck.min(alloc[j][pc]);
                }
            }
            if bottleneck <= EPS {
                break;
            }
            // Apply: along the path, job j moves `bottleneck` units from its
            // parent cell into the cell it reaches; job i absorbs from c1.
            residual[target] -= bottleneck;
            for &(j, c_to) in &path {
                alloc[j][c_to] += bottleneck;
                if j != i {
                    let pc =
                        parent_cell[j].expect("invariant: non-source path jobs have a parent cell");
                    alloc[j][pc] -= bottleneck;
                }
            }
            need -= bottleneck;
        }
        served[i] = jobs.as_slice()[i].workload - need;
    }

    let fractions: Vec<f64> = jobs
        .iter()
        .map(|j| (served[j.id.index()] / j.workload).clamp(0.0, 1.0))
        .collect();
    let total = jobs.iter().map(|j| j.value * fractions[j.id.index()]).sum();
    (total, fractions)
}

/// `(target_cell, parent_job, parent_cell)`, as returned by [`bfs_augmenting`].
type AugmentingPath = (usize, Vec<Option<usize>>, Vec<Option<usize>>);

/// BFS for an augmenting path from job `i` to any cell with residual
/// capacity. Returns `(target_cell, parent_job, parent_cell)` where
/// `parent_job[c]` is the job that reached cell `c` and `parent_cell[j]` is
/// the cell through which job `j` was reached.
fn bfs_augmenting(
    i: usize,
    window_cells: &[Vec<usize>],
    alloc: &[Vec<f64>],
    residual: &[f64],
) -> Option<AugmentingPath> {
    let n = alloc.len();
    let m = residual.len();
    let mut parent_job: Vec<Option<usize>> = vec![None; m];
    let mut parent_cell: Vec<Option<usize>> = vec![None; n];
    let mut seen_job = vec![false; n];
    let mut queue: VecDeque<usize> = VecDeque::new(); // job indices
    seen_job[i] = true;
    queue.push_back(i);
    while let Some(j) = queue.pop_front() {
        for &c in &window_cells[j] {
            if parent_job[c].is_some() {
                continue;
            }
            parent_job[c] = Some(j);
            if residual[c] > EPS {
                return Some((c, parent_job, parent_cell));
            }
            // Continue through jobs currently allocated in this cell.
            for (j2, a) in alloc.iter().enumerate() {
                if !seen_job[j2] && a[c] > EPS {
                    seen_job[j2] = true;
                    parent_cell[j2] = Some(c);
                    queue.push_back(j2);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::optimal_value;
    use cloudsched_capacity::{Constant, PiecewiseConstant};

    #[test]
    fn empty_set() {
        let jobs = JobSet::new(vec![]).unwrap();
        let (v, f) = fractional_optimal(&jobs, &Constant::unit());
        assert_eq!(v, 0.0);
        assert!(f.is_empty());
    }

    #[test]
    fn feasible_set_fully_served() {
        let jobs = JobSet::from_tuples(&[(0.0, 4.0, 2.0, 3.0), (1.0, 6.0, 2.0, 5.0)]).unwrap();
        let (v, f) = fractional_optimal(&jobs, &Constant::unit());
        assert!((v - 8.0).abs() < 1e-9);
        assert!(f.iter().all(|&x| (x - 1.0).abs() < 1e-9));
    }

    #[test]
    fn overload_prefers_denser_job() {
        let jobs = JobSet::from_tuples(&[
            (0.0, 2.0, 2.0, 8.0), // density 4
            (0.0, 2.0, 2.0, 2.0), // density 1
        ])
        .unwrap();
        let (v, f) = fractional_optimal(&jobs, &Constant::unit());
        assert!((v - 8.0).abs() < 1e-9);
        assert!((f[0] - 1.0).abs() < 1e-9);
        assert!(f[1].abs() < 1e-9);
    }

    #[test]
    fn partial_service_counts_fractionally() {
        let jobs = JobSet::from_tuples(&[(0.0, 1.0, 2.0, 10.0)]).unwrap();
        let (v, f) = fractional_optimal(&jobs, &Constant::unit());
        assert!((v - 5.0).abs() < 1e-9);
        assert!((f[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reallocation_rescues_disjoint_window_job() {
        // Dense job B could sit anywhere in [0,2]; sparse job A only in
        // [0,1]. The augmenting step must move B out of A's way: both fit.
        let jobs = JobSet::from_tuples(&[
            (0.0, 1.0, 1.0, 2.0), // A: density 2
            (0.0, 2.0, 1.0, 3.0), // B: density 3, allocated first
        ])
        .unwrap();
        let (v, f) = fractional_optimal(&jobs, &Constant::unit());
        assert!((v - 5.0).abs() < 1e-9, "got {v}, rearrangement failed");
        assert!(f.iter().all(|&x| (x - 1.0).abs() < 1e-9));
    }

    #[test]
    fn chain_reallocation() {
        // Three nested windows forcing a two-hop augmenting path.
        let jobs = JobSet::from_tuples(&[
            (0.0, 1.0, 1.0, 1.0), // [0,1] only, density 1 (allocated last)
            (0.0, 2.0, 1.0, 2.0), // [0,2], density 2
            (0.0, 3.0, 1.0, 3.0), // [0,3], density 3 (allocated first)
        ])
        .unwrap();
        let (v, f) = fractional_optimal(&jobs, &Constant::unit());
        assert!((v - 6.0).abs() < 1e-9, "got {v}");
        assert!(f.iter().all(|&x| (x - 1.0).abs() < 1e-9));
    }

    #[test]
    fn dominates_integral_optimum() {
        for seed in 0..30u64 {
            let f = |x: u64| {
                ((seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(x.wrapping_mul(1442695040888963407)))
                    % 1000) as f64
                    / 1000.0
            };
            let tuples: Vec<(f64, f64, f64, f64)> = (0..9)
                .map(|i| {
                    let r = 5.0 * f(i * 4);
                    let p = 0.2 + 2.0 * f(i * 4 + 1);
                    let d = r + p * (0.4 + 2.0 * f(i * 4 + 2));
                    let v = 0.5 + 6.0 * f(i * 4 + 3);
                    (r, d, p, v)
                })
                .collect();
            let jobs = JobSet::from_tuples(&tuples).unwrap();
            let cap = PiecewiseConstant::from_durations(&[(2.0, 1.0), (2.0, 3.0)]).unwrap();
            let (frac, _) = fractional_optimal(&jobs, &cap);
            let (exact, _) = optimal_value(&jobs, &cap);
            assert!(
                frac + 1e-6 >= exact,
                "seed {seed}: fractional {frac} < integral {exact}"
            );
        }
    }

    #[test]
    fn respects_windows_strictly() {
        let jobs = JobSet::from_tuples(&[(5.0, 6.0, 3.0, 3.0)]).unwrap();
        let (v, f) = fractional_optimal(&jobs, &Constant::unit());
        assert!((f[0] - 1.0 / 3.0).abs() < 1e-9);
        assert!((v - 1.0).abs() < 1e-9);
    }

    #[test]
    fn varying_capacity_cells() {
        let jobs = JobSet::from_tuples(&[(0.0, 2.0, 5.0, 10.0), (1.0, 3.0, 4.0, 4.0)]).unwrap();
        let cap = PiecewiseConstant::from_durations(&[(1.0, 1.0), (2.0, 4.0)]).unwrap();
        let (v, f) = fractional_optimal(&jobs, &cap);
        assert!((v - 14.0).abs() < 1e-9);
        assert!(f.iter().all(|&x| (x - 1.0).abs() < 1e-9));
    }
}
