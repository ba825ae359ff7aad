//! Integration coverage for the shared ready-queue structures of
//! `cloudsched-sched` — in particular the latest-deadline end of
//! [`DeadlineQueue`], whose set-style `insert` return value now backs
//! `debug_assert!` guards at every scheduler call site.

use cloudsched_core::{JobId, Time};
use cloudsched_sched::ready::{DeadlineMap, DeadlineQueue, RankedQueue};

fn t(x: f64) -> Time {
    Time::new(x)
}

#[test]
fn latest_and_pop_latest_prefer_lowest_id_on_deadline_ties() {
    let mut q = DeadlineQueue::new();
    q.insert(t(2.0), JobId(0));
    q.insert(t(9.0), JobId(5));
    q.insert(t(9.0), JobId(3));
    q.insert(t(9.0), JobId(8));
    // The latest-deadline group is {3, 5, 8} at d = 9; the documented
    // tie-break rule picks the lowest id, and the peek agrees with the pop.
    assert_eq!(q.latest(), Some((t(9.0), JobId(3))));
    assert_eq!(q.pop_latest(), Some((t(9.0), JobId(3))));
    assert_eq!(q.pop_latest(), Some((t(9.0), JobId(5))));
    assert_eq!(q.pop_latest(), Some((t(9.0), JobId(8))));
    assert_eq!(q.pop_latest(), Some((t(2.0), JobId(0))));
    assert_eq!(q.pop_latest(), None);
    assert_eq!(q.latest(), None);
}

#[test]
fn latest_is_consistent_with_earliest_under_mixed_operations() {
    let mut q = DeadlineQueue::new();
    for (d, i) in [(4.0, 7), (1.0, 2), (4.0, 1), (6.0, 9)] {
        assert!(q.insert(t(d), JobId(i)));
    }
    assert_eq!(q.earliest(), Some((t(1.0), JobId(2))));
    assert_eq!(q.latest(), Some((t(6.0), JobId(9))));
    assert!(q.remove(t(6.0), JobId(9)));
    // With d = 6 gone the latest group is the d = 4 tie: lowest id wins.
    assert_eq!(q.latest(), Some((t(4.0), JobId(1))));
    assert_eq!(q.pop_latest(), Some((t(4.0), JobId(1))));
    assert_eq!(q.pop_earliest(), Some((t(1.0), JobId(2))));
    assert_eq!(q.len(), 1);
}

#[test]
fn duplicate_inserts_are_rejected_across_all_structures() {
    // The schedulers' `debug_assert!(fresh, ...)` guards rely on the insert
    // return value being a reliable duplicate detector.
    let mut q = DeadlineQueue::new();
    assert!(q.insert(t(3.0), JobId(4)));
    assert!(!q.insert(t(3.0), JobId(4)));
    assert_eq!(q.len(), 1, "duplicate insert must not grow the queue");

    let mut m: DeadlineMap<u32> = DeadlineMap::new();
    assert!(m.insert(t(3.0), JobId(4), 11));
    assert!(!m.insert(t(3.0), JobId(4), 22));
    assert_eq!(
        m.remove(t(3.0), JobId(4)),
        Some(11),
        "rejected duplicate must keep the original payload"
    );

    let mut r = RankedQueue::new();
    assert!(r.insert(5.0, JobId(4)));
    assert!(!r.insert(5.0, JobId(4)));
    assert_eq!(r.len(), 1);
}
