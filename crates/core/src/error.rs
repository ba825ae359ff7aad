//! Workspace-wide error type for domain validation.

use std::fmt;

/// Errors raised when constructing or validating domain objects.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A job was constructed with a non-positive workload.
    NonPositiveWorkload {
        /// Offending workload value.
        workload: f64,
    },
    /// A job was constructed with a negative value.
    NegativeValue {
        /// Offending value.
        value: f64,
    },
    /// A job's deadline is not strictly after its release time.
    DeadlineNotAfterRelease {
        /// Release time (seconds).
        release: f64,
        /// Deadline (seconds).
        deadline: f64,
    },
    /// A job's release time is negative.
    NegativeRelease {
        /// Offending release time.
        release: f64,
    },
    /// A job's deadline is not finite.
    NonFiniteDeadline,
    /// A capacity profile was given an out-of-order or empty breakpoint list.
    InvalidCapacityProfile {
        /// Human-readable description of the defect.
        reason: String,
    },
    /// A schedule failed validation.
    InvalidSchedule {
        /// Human-readable description of the defect.
        reason: String,
    },
    /// A referenced job id does not exist in the job set.
    UnknownJob {
        /// The dangling id.
        id: u64,
    },
    /// Two jobs in one job set share an id.
    DuplicateJob {
        /// The duplicated id.
        id: u64,
    },
    /// A scheduler name was not recognised by the factory.
    UnknownScheduler {
        /// The unrecognised name.
        name: String,
    },
    /// A scheduler parameter is outside its admissible domain (e.g. `k < 1`,
    /// `δ < 1`, a non-positive class bound).
    InvalidParameter {
        /// Parameter name (`k`, `delta`, `c_lo`, …).
        name: String,
        /// The offending value.
        value: f64,
        /// Why it is inadmissible.
        reason: String,
    },
    /// The realised capacity dropped below the declared class bound `c_lo`:
    /// the SLA behind Definition 5 / Theorem 3 is broken.
    CapacitySlaViolation {
        /// Simulation instant of the violation.
        at: f64,
        /// Observed rate.
        rate: f64,
        /// Declared lower class bound.
        c_lo: f64,
    },
    /// The capacity oracle stayed dark past its retry budget and was
    /// declared dead.
    OracleDown {
        /// Simulation instant the oracle was declared dead.
        at: f64,
        /// Consecutive failed readings before declaring death.
        retries: u32,
    },
    /// A released job violates individual admissibility (Definition 4:
    /// `d − r ≥ p / c_lo`).
    InadmissibleJob {
        /// The offending job id.
        id: u64,
        /// Its window `d − r`.
        window: f64,
        /// Its minimum completion time `p / c_lo`.
        min_time: f64,
    },
    /// A job with identical parameters was already released (a duplicate in
    /// the input stream, as opposed to [`CoreError::DuplicateJob`]'s
    /// id-level collision at job-set construction).
    DuplicateRelease {
        /// The duplicate's job id.
        id: u64,
        /// The id of the earlier job it duplicates.
        of: u64,
    },
    /// A job's value density exceeds the assumed importance-ratio bound `k`
    /// relative to the smallest density seen so far.
    ValueSpike {
        /// The offending job id.
        id: u64,
        /// Its value density `v / p`.
        density: f64,
        /// The largest density admissible under the assumed `k`.
        limit: f64,
    },
    /// A command-line argument was missing or malformed.
    InvalidArgument {
        /// The flag, including leading dashes (e.g. `--seeds`).
        flag: String,
        /// What was wrong with it.
        reason: String,
    },
    /// A write-ahead journal append or sync failed. It is never retried.
    /// Carries a rendered cause rather than the underlying `io::Error`
    /// (which is neither `Clone` nor `PartialEq`).
    JournalWrite {
        /// Rendered cause of the failure.
        reason: String,
    },
    /// The streaming service's bounded admission queue overflowed under the
    /// `Strict` backpressure policy.
    QueueOverflow {
        /// 0-based arrival sequence number that overflowed the queue.
        seq: u64,
        /// Admitted-but-unresolved jobs at that instant.
        live: usize,
        /// The configured queue capacity.
        cap: usize,
    },
    /// A journal or snapshot record could not be parsed during recovery.
    CorruptJournal {
        /// 1-based line number of the offending record.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NonPositiveWorkload { workload } => {
                write!(f, "job workload must be positive, got {workload}")
            }
            CoreError::NegativeValue { value } => {
                write!(f, "job value must be non-negative, got {value}")
            }
            CoreError::DeadlineNotAfterRelease { release, deadline } => write!(
                f,
                "deadline ({deadline}) must be strictly after release ({release})"
            ),
            CoreError::NegativeRelease { release } => {
                write!(f, "release time must be non-negative, got {release}")
            }
            CoreError::NonFiniteDeadline => write!(f, "deadline must be finite"),
            CoreError::InvalidCapacityProfile { reason } => {
                write!(f, "invalid capacity profile: {reason}")
            }
            CoreError::InvalidSchedule { reason } => write!(f, "invalid schedule: {reason}"),
            CoreError::UnknownJob { id } => write!(f, "unknown job id {id}"),
            CoreError::DuplicateJob { id } => write!(f, "duplicate job id {id}"),
            CoreError::UnknownScheduler { name } => write!(f, "unknown scheduler `{name}`"),
            CoreError::InvalidParameter {
                name,
                value,
                reason,
            } => write!(f, "invalid parameter {name} = {value}: {reason}"),
            CoreError::CapacitySlaViolation { at, rate, c_lo } => write!(
                f,
                "capacity SLA violated at t = {at}: observed rate {rate} < declared c_lo {c_lo}"
            ),
            CoreError::OracleDown { at, retries } => write!(
                f,
                "capacity oracle declared dead at t = {at} after {retries} failed readings"
            ),
            CoreError::InadmissibleJob {
                id,
                window,
                min_time,
            } => write!(
                f,
                "job {id} is not individually admissible: window {window} < p/c_lo = {min_time}"
            ),
            CoreError::DuplicateRelease { id, of } => {
                write!(f, "job {id} duplicates the parameters of job {of}")
            }
            CoreError::ValueSpike { id, density, limit } => write!(
                f,
                "job {id} value density {density} exceeds the importance-ratio limit {limit}"
            ),
            CoreError::InvalidArgument { flag, reason } => {
                write!(f, "argument {flag}: {reason}")
            }
            CoreError::QueueOverflow { seq, live, cap } => write!(
                f,
                "admission queue overflow at arrival {seq}: {live} live jobs, capacity {cap}"
            ),
            CoreError::JournalWrite { reason } => write!(f, "journal write failed: {reason}"),
            CoreError::CorruptJournal { line, reason } => {
                write!(f, "corrupt journal record at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_offending_values() {
        let e = CoreError::NonPositiveWorkload { workload: -1.0 };
        assert!(e.to_string().contains("-1"));
        let e = CoreError::DeadlineNotAfterRelease {
            release: 2.0,
            deadline: 1.0,
        };
        assert!(e.to_string().contains('2') && e.to_string().contains('1'));
        let e = CoreError::UnknownJob { id: 42 };
        assert!(e.to_string().contains("42"));
    }

    #[test]
    fn fault_variants_render_their_context() {
        let e = CoreError::CapacitySlaViolation {
            at: 3.5,
            rate: 0.4,
            c_lo: 1.0,
        };
        let s = e.to_string();
        assert!(s.contains("3.5") && s.contains("0.4") && s.contains("SLA"));
        let e = CoreError::OracleDown {
            at: 2.0,
            retries: 3,
        };
        assert!(e.to_string().contains("3 failed"));
        let e = CoreError::InadmissibleJob {
            id: 5,
            window: 1.0,
            min_time: 2.0,
        };
        assert!(e.to_string().contains("job 5"));
        let e = CoreError::DuplicateRelease { id: 9, of: 4 };
        assert!(e.to_string().contains('9') && e.to_string().contains('4'));
        let e = CoreError::ValueSpike {
            id: 1,
            density: 99.0,
            limit: 7.0,
        };
        assert!(e.to_string().contains("99"));
        let e = CoreError::UnknownScheduler {
            name: "bogus".into(),
        };
        assert!(e.to_string().contains("bogus"));
        let e = CoreError::InvalidArgument {
            flag: "--seeds".into(),
            reason: "not a number".into(),
        };
        assert!(e.to_string().contains("--seeds"));
        let e = CoreError::JournalWrite {
            reason: "disk full".into(),
        };
        assert_eq!(e.to_string(), "journal write failed: disk full");
        let e = CoreError::CorruptJournal {
            line: 17,
            reason: "bad svc record".into(),
        };
        assert!(e.to_string().contains("line 17"));
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(CoreError::NonFiniteDeadline);
        assert!(e.to_string().contains("finite"));
    }
}
