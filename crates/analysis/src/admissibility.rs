//! Instance triage by the fluid load bound. The Definition 4 checks live
//! on the types they check (`Job::individually_admissible`,
//! `Instance::all_individually_admissible`) and in `sim::audit`.

use cloudsched_capacity::Instance;

/// Coarse load triage of an instance. `CertifiedFit` is only a *necessary*
/// underload condition (total workload fits the fluid capacity of the span);
/// the sufficient EDF-based feasibility test lives in `cloudsched-offline`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadTriage {
    /// Total workload exceeds what the processor can serve over the span:
    /// certainly overloaded.
    CertifiedOverload,
    /// Workload fits the fluid bound; may or may not be schedulable.
    PossiblyUnderloaded,
}

/// Triage an instance by the fluid workload bound.
pub fn triage(instance: &Instance) -> LoadTriage {
    if instance.workload_fits_span() {
        LoadTriage::PossiblyUnderloaded
    } else {
        LoadTriage::CertifiedOverload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsched_capacity::PiecewiseConstant;
    use cloudsched_core::JobSet;

    #[test]
    fn triage_detects_certain_overload() {
        let cap = PiecewiseConstant::constant(1.0).unwrap();
        // Span [0,1], capacity 1, workload 5: certified overload.
        let heavy = JobSet::from_tuples(&[(0.0, 1.0, 5.0, 1.0)]).unwrap();
        assert_eq!(
            triage(&Instance::new(heavy, cap.clone())),
            LoadTriage::CertifiedOverload
        );
        let light = JobSet::from_tuples(&[(0.0, 2.0, 1.0, 1.0)]).unwrap();
        assert_eq!(
            triage(&Instance::new(light, cap)),
            LoadTriage::PossiblyUnderloaded
        );
    }
}
