//! # cloudsched-analysis
//!
//! The paper's theory, executable:
//!
//! * [`bounds`] — the competitive-ratio formulas of Theorems 1 and 3
//!   (`f(k, δ)`, the achievable ratio, the upper bound, the optimal V-Dover
//!   threshold `β*`) and Dover's classical `1/(1+√k)²`;
//! * [`adversary`] — the Theorem 3(3) construction: an input family `I_n`
//!   containing one non-admissible job that drives every online algorithm's
//!   competitive ratio to zero;
//! * [`stats`] — Monte-Carlo aggregation (mean, variance, confidence
//!   intervals) for the experiment harness;
//! * [`table`] — plain CSV/Markdown emitters for reproducing the paper's
//!   Table I and Figure 1 without extra dependencies.

#![warn(missing_docs)]

pub mod adversary;
pub mod bounds;
pub mod stats;
pub mod table;

pub use bounds::{
    dover_optimal_ratio, f_overload, optimal_beta, vdover_achievable_ratio, vdover_upper_bound,
};
pub use stats::Summary;
