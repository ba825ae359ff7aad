//! The Dover family: Koren–Shasha's overload scheduler and the paper's
//! V-Dover variant share one engine, [`DoverFamily`], differing only in
//!
//! 1. the **capacity estimate** used for laxity computations — Dover assumes
//!    a constant rate `ĉ` (it was designed for constant capacity; §IV of the
//!    paper evaluates it with several `ĉ` values), V-Dover uses the class
//!    bound `c_lo` (*conservative laxity*, Definition 5);
//! 2. the **value threshold** `β` of the zero-laxity handler — Dover's
//!    optimal constant-capacity threshold is `1 + √k`, V-Dover's is
//!    `β* = 1 + √(k / f(k,δ))` (Theorem 3);
//! 3. the **supplement queue** — V-Dover parks jobs that lose the
//!    zero-conservative-laxity arbitration in `Qsupp` and revives them when
//!    the processor drains (the realised capacity may exceed `c_lo`, so they
//!    may still make their deadlines); Dover abandons them, which is correct
//!    under constant capacity where a zero-laxity loser can never finish.
//!
//! The engine implements the paper's procedures A–D verbatim: the three
//! queues `Qedf` / `Qother` / `Qsupp`, the `cSlack` ledger with its
//! `(T, t_insert, cSlack_insert)` tuples, and the three interrupt handlers.

use crate::ready::{DeadlineMap, DeadlineQueue, RankedQueue};
use cloudsched_core::{approx_ge, CoreError, JobId, Time};
use cloudsched_obs::{DecisionAction, QueueKind, TraceEvent};
use cloudsched_sim::{Decision, Scheduler, SimContext};

/// Byte-stable rendering of an `f64` for snapshot blobs: the IEEE-754 bit
/// pattern in fixed-width hex. Round-trips every value exactly, including
/// the `+∞` that `cslack` holds while no regular job is committed.
fn f64_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn parse_f64_hex(s: &str) -> Result<f64, CoreError> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| corrupt(format!("bad f64 bits `{s}`")))
}

fn parse_u64(s: &str) -> Result<u64, CoreError> {
    s.parse().map_err(|_| corrupt(format!("bad integer `{s}`")))
}

/// Splits one `,`-separated blob part into entries of exactly `n`
/// `:`-separated fields.
fn entries<'t>(part: &str, text: &'t str, n: usize) -> Result<Vec<Vec<&'t str>>, CoreError> {
    text.split(',')
        .filter(|s| !s.is_empty())
        .map(|item| {
            let f: Vec<&str> = item.split(':').collect();
            if f.len() == n {
                Ok(f)
            } else {
                Err(corrupt(format!("bad {part} entry `{item}`")))
            }
        })
        .collect()
}

fn corrupt(reason: String) -> CoreError {
    // Scheduler blobs are embedded in a journal snapshot record; the
    // recovery driver rewrites `line` with the record's position.
    CoreError::CorruptJournal { line: 0, reason }
}

/// Which constant future-capacity assumption drives laxity computations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacityEstimate {
    /// The declared class lower bound `c_lo` — V-Dover's conservative
    /// estimate (always safe: real capacity is never lower).
    ClassLow,
    /// A fixed rate `ĉ` — the estimate the paper hands to Dover in §IV.
    Fixed(f64),
}

impl CapacityEstimate {
    fn rate(self, ctx: &SimContext<'_>) -> f64 {
        match self {
            CapacityEstimate::ClassLow => ctx.c_lo(),
            CapacityEstimate::Fixed(c) => c,
        }
    }
}

/// Order in which parked supplement jobs are revived.
///
/// Every order resolves ties deterministically in favour of the **lowest**
/// [`JobId`] (the shared tie-break rule of [`crate::ready`]): two parked
/// jobs with equal deadlines — or equal values under
/// [`SupplementOrder::HighestValue`] — revive in id order regardless of
/// when they were parked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupplementOrder {
    /// Latest deadline first — the paper's choice (most time left to finish).
    LatestDeadline,
    /// Earliest deadline first (EDF-style ablation).
    EarliestDeadline,
    /// Highest value first (greedy ablation).
    HighestValue,
}

/// Full configuration of a [`DoverFamily`] scheduler.
#[derive(Debug, Clone)]
pub struct FamilyConfig {
    /// Display name for reports.
    pub name: String,
    /// Laxity capacity assumption.
    pub estimate: CapacityEstimate,
    /// Zero-laxity arbitration threshold `β > 1`.
    pub beta: f64,
    /// Keep zero-laxity losers in a supplement queue (V-Dover) instead of
    /// abandoning them (Dover).
    pub supplement: bool,
    /// Revival order of the supplement queue.
    pub supplement_order: SupplementOrder,
}

/// Processor status flag of procedure A: `reg`, `supp` or `idle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flag {
    Idle,
    Reg,
    Supp,
}

/// Per-entry bookkeeping of `Qedf`: what a recently EDF-preempted regular
/// job needs to restore `cSlack` (procedure C lines 2–3, 14–15). The job id
/// and deadline live in the [`DeadlineMap`] key.
#[derive(Debug, Clone, Copy)]
struct EdfMeta {
    t_insert: Time,
    cslack_insert: f64,
}

/// The shared Dover/V-Dover engine. Construct through [`Dover`] or
/// [`crate::VDover`] for the two published algorithms, or directly from a
/// [`FamilyConfig`] for ablations.
#[derive(Debug, Clone)]
pub struct DoverFamily {
    cfg: FamilyConfig,
    /// Recently EDF-scheduled regular jobs, earliest deadline first, with
    /// their `cSlack` restoration tuples as payload. Indexed: front pops,
    /// arbitrary removals and membership are `O(log n)` (the sorted-`Vec`
    /// predecessor paid `O(n)` per front pop / removal inside the event
    /// loop, i.e. `O(n²)` per run).
    qedf: DeadlineMap<EdfMeta>,
    /// Other regular jobs, earliest deadline first.
    qother: DeadlineQueue,
    /// Supplement jobs (only populated when `cfg.supplement`), ranked by
    /// the configured revival order so every pop is `O(log n)` instead of
    /// the predecessor's full scan.
    qsupp: RankedQueue,
    /// Slack available for new work under the capacity estimate (seconds;
    /// may be `+∞` while no regular job is committed).
    cslack: f64,
    flag: Flag,
    /// The job this scheduler last dispatched and has not seen leave the
    /// processor: the running job whenever one runs.
    running: Option<JobId>,
    /// Per-job timer generation: stale zero-laxity timers are ignored.
    /// Every path that drops a job from the scheduler's custody bumps it,
    /// so a pending timer of a job the scheduler no longer holds is stale.
    generation: Vec<u64>,
    /// Generations restored from a snapshot for job slots `generation`
    /// does not reach yet, sorted by job. Each moves into `generation`
    /// when the table grows over its slot, so a blob naming a huge job id
    /// cannot force a huge allocation.
    restored: Vec<(JobId, u64)>,
}

impl DoverFamily {
    /// Builds a scheduler from an explicit configuration.
    ///
    /// # Panics
    /// If `beta <= 1` or a fixed estimate is non-positive.
    pub fn from_config(cfg: FamilyConfig) -> Self {
        assert!(cfg.beta > 1.0, "β must exceed 1, got {}", cfg.beta);
        if let CapacityEstimate::Fixed(c) = cfg.estimate {
            assert!(c > 0.0, "capacity estimate must be positive, got {c}");
        }
        DoverFamily {
            cfg,
            qedf: DeadlineMap::new(),
            qother: DeadlineQueue::new(),
            qsupp: RankedQueue::new(),
            cslack: f64::INFINITY,
            flag: Flag::Idle,
            running: None,
            generation: Vec::new(),
            restored: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FamilyConfig {
        &self.cfg
    }

    // ---- snapshot codec -------------------------------------------------

    /// Serializes the engine's mutable state (queues, `cSlack`, flag, the
    /// running job, timer generations) into a byte-stable `dover2` blob:
    ///
    /// ```text
    /// dover2|flag|cslack|qedf|qother|qsupp|running
    /// ```
    ///
    /// Each held job — queued or running — carries its timer generation
    /// as its last `:` field. Jobs the scheduler no longer holds are left
    /// out: their generation was bumped when they left, so any timer they
    /// still have pending is stale, and it stays stale against the
    /// generation 0 a restore gives them. The blob is therefore O(held
    /// jobs), not O(jobs ever seen). Every `f64` is rendered as its
    /// IEEE-754 bit pattern, so the round-trip is exact; the configuration
    /// is *not* included — recovery reconstructs it from the journal header
    /// and [`DoverFamily::restore_blob`] only fills in the mutable state.
    pub fn snapshot_blob(&self) -> String {
        let flag = match self.flag {
            Flag::Idle => 'I',
            Flag::Reg => 'R',
            Flag::Supp => 'S',
        };
        let qedf: Vec<String> = self
            .qedf
            .iter()
            .map(|(d, j, m)| {
                format!(
                    "{}:{}:{}:{}:{}",
                    f64_hex(d.as_f64()),
                    j.0,
                    f64_hex(m.t_insert.as_f64()),
                    f64_hex(m.cslack_insert),
                    self.gen(j)
                )
            })
            .collect();
        let qother: Vec<String> = self
            .qother
            .iter()
            .map(|(d, j)| format!("{}:{}:{}", f64_hex(d.as_f64()), j.0, self.gen(j)))
            .collect();
        let qsupp: Vec<String> = self
            .qsupp
            .iter()
            .map(|(r, j)| format!("{}:{}:{}", f64_hex(r), j.0, self.gen(j)))
            .collect();
        let running = self
            .running
            .map_or("-".to_string(), |j| format!("{}:{}", j.0, self.gen(j)));
        format!(
            "dover2|{flag}|{}|{}|{}|{}|{running}",
            f64_hex(self.cslack),
            qedf.join(","),
            qother.join(","),
            qsupp.join(",")
        )
    }

    /// Restores the mutable state captured by [`DoverFamily::snapshot_blob`]
    /// onto this instance (whose configuration must match the one that took
    /// the snapshot). All existing mutable state is replaced.
    ///
    /// # Errors
    /// [`CoreError::CorruptJournal`] for a malformed blob or one of another
    /// format version (`dover1` blobs are named in the error).
    pub fn restore_blob(&mut self, blob: &str) -> Result<(), CoreError> {
        let parts: Vec<&str> = blob.split('|').collect();
        if parts[0] != "dover2" {
            return Err(corrupt(format!(
                "unsupported scheduler blob version `{}`; this build reads `dover2`",
                parts[0]
            )));
        }
        if parts.len() != 7 {
            return Err(corrupt(format!(
                "expected 7-part dover2 scheduler blob, got {} parts",
                parts.len()
            )));
        }
        let flag = match parts[1] {
            "I" => Flag::Idle,
            "R" => Flag::Reg,
            "S" => Flag::Supp,
            other => return Err(corrupt(format!("unknown processor flag `{other}`"))),
        };
        let cslack = parse_f64_hex(parts[2])?;
        // Every entry ends in the job's generation; the job id is field 1
        // of a queue entry and field 0 of the running entry.
        let mut restored = Vec::new();
        let mut held = |job: &str, gen: &str| -> Result<JobId, CoreError> {
            let job = JobId(parse_u64(job)?);
            restored.push((job, parse_u64(gen)?));
            Ok(job)
        };
        let mut qedf = DeadlineMap::new();
        for f in entries("qedf", parts[3], 5)? {
            qedf.insert(
                Time::new(parse_f64_hex(f[0])?),
                held(f[1], f[4])?,
                EdfMeta {
                    t_insert: Time::new(parse_f64_hex(f[2])?),
                    cslack_insert: parse_f64_hex(f[3])?,
                },
            );
        }
        let mut qother = DeadlineQueue::new();
        for f in entries("qother", parts[4], 3)? {
            qother.insert(Time::new(parse_f64_hex(f[0])?), held(f[1], f[2])?);
        }
        let mut qsupp = RankedQueue::new();
        for f in entries("qsupp", parts[5], 3)? {
            qsupp.insert(parse_f64_hex(f[0])?, held(f[1], f[2])?);
        }
        let running = match parts[6] {
            "-" => None,
            text => match entries("running", text, 2)?.as_slice() {
                [f] => Some(held(f[0], f[1])?),
                _ => return Err(corrupt(format!("bad running entry `{text}`"))),
            },
        };
        restored.sort_unstable();
        restored.dedup();
        if let Some(w) = restored.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(corrupt(format!("{} has two generations", w[0].0)));
        }
        self.qedf = qedf;
        self.qother = qother;
        self.qsupp = qsupp;
        self.cslack = cslack;
        self.flag = flag;
        self.running = running;
        self.generation = Vec::new();
        self.restored = restored;
        Ok(())
    }

    // ---- small helpers --------------------------------------------------

    fn rate(&self, ctx: &SimContext<'_>) -> f64 {
        self.cfg.estimate.rate(ctx)
    }

    /// Estimated remaining processing time `t_c(T, ĉ)`.
    fn tc(&self, ctx: &SimContext<'_>, job: JobId) -> f64 {
        ctx.remaining(job) / self.rate(ctx)
    }

    /// Estimated laxity (conservative laxity when the estimate is `c_lo`).
    fn claxity(&self, ctx: &SimContext<'_>, job: JobId) -> f64 {
        (ctx.job(job).deadline - ctx.now()).as_f64() - self.tc(ctx, job)
    }

    fn gen_mut(&mut self, job: JobId) -> &mut u64 {
        let i = job.index();
        if i >= self.generation.len() {
            self.generation.resize(i + 1, 0);
            let covered = self.restored.partition_point(|(j, _)| j.index() <= i);
            for (j, g) in self.restored.drain(..covered) {
                self.generation[j.index()] = g;
            }
        }
        &mut self.generation[i]
    }

    fn gen(&self, job: JobId) -> u64 {
        match self.generation.get(job.index()) {
            Some(&g) => g,
            None => self
                .restored
                .binary_search_by_key(&job, |&(j, _)| j)
                .map_or(0, |k| self.restored[k].1),
        }
    }

    /// Invalidates any pending zero-laxity timer of `job`.
    fn bump(&mut self, job: JobId) {
        *self.gen_mut(job) += 1;
    }

    /// Instrumentation (Definition 5): a freshly-released, individually-
    /// admissible job dispatched at its release instant must have
    /// non-negative conservative laxity — at release the two quantities
    /// coincide, so a violation means the kernel clock or the slack
    /// bookkeeping drifted.
    fn debug_assert_dispatch_laxity(&self, ctx: &SimContext<'_>, job: JobId) {
        if cfg!(debug_assertions) {
            let j = ctx.job(job);
            let rate = self.cfg.estimate.rate(ctx);
            if rate > 0.0 && j.individually_admissible(rate) && ctx.now().approx_eq(j.release) {
                debug_assert!(
                    ctx.laxity_with_rate(job, rate).as_f64() >= -1e-9,
                    "dispatched {job} with negative conservative laxity at release"
                );
            }
        }
    }

    /// Inserts `job` into `Qother` and arms its zero-laxity interrupt at
    /// `d − p_r/ĉ` (clamped to now if already non-positive).
    fn insert_qother(&mut self, ctx: &mut SimContext<'_>, job: JobId) {
        let d = ctx.job(job).deadline;
        let t0 = Time::new(d.as_f64() - self.tc(ctx, job));
        let fresh = self.qother.insert(d, job);
        debug_assert!(fresh, "{job} double-admitted to Qother");
        self.bump(job);
        let token = self.gen(job);
        ctx.set_timer(t0, job, token);
        if ctx.tracing_enabled() {
            ctx.trace(TraceEvent::QueueDepth {
                t: ctx.now(),
                queue: QueueKind::Other,
                depth: self.qother.len(),
            });
        }
        if ctx.provenance_enabled() {
            // Rejected-for-now: the job lost its arbitration and waits in
            // Qother for its zero-laxity interrupt. Laxity is stamped under
            // the scheduler's own capacity estimate — the number the
            // decision actually used.
            let flip = self.claxity(ctx, job) <= 0.0; // lint: allow(L001) — flip is defined by exact sign, not tolerance
            ctx.trace_decision(
                DecisionAction::Reject,
                job,
                self.rate(ctx),
                self.qother.len(),
                flip,
            );
        }
    }

    /// The supplement-queue rank of `job` under the configured revival
    /// order. Ranks derive from immutable job attributes, so the same rank
    /// is recomputable at insert, remove and pop time.
    fn supplement_rank(&self, ctx: &SimContext<'_>, job: JobId) -> f64 {
        match self.cfg.supplement_order {
            SupplementOrder::LatestDeadline | SupplementOrder::EarliestDeadline => {
                ctx.job(job).deadline.as_f64()
            }
            SupplementOrder::HighestValue => ctx.job(job).value,
        }
    }

    /// Parks `job` in the supplement queue, stamping the enqueue.
    fn park_supplement(&mut self, ctx: &mut SimContext<'_>, job: JobId) {
        let fresh = self.qsupp.insert(self.supplement_rank(ctx, job), job);
        debug_assert!(fresh, "{job} double-parked in Qsupp");
        if ctx.tracing_enabled() {
            ctx.trace(TraceEvent::SupplementEnqueue {
                t: ctx.now(),
                job,
                depth: self.qsupp.len(),
            });
        }
        if ctx.provenance_enabled() {
            let flip = self.claxity(ctx, job) <= 0.0; // lint: allow(L001) — flip is defined by exact sign, not tolerance
            ctx.trace_decision(
                DecisionAction::Park,
                job,
                self.rate(ctx),
                self.qsupp.len(),
                flip,
            );
        }
    }

    fn qedf_value(&self, ctx: &SimContext<'_>) -> f64 {
        // (deadline, id)-ascending iteration — the exact order the sorted
        // Vec predecessor summed in, so the float total is bit-identical.
        self.qedf.iter().map(|(_, j, _)| ctx.job(j).value).sum()
    }

    /// Removes `job` from whichever queue holds it (deadline misses and
    /// tolerance-path completions of queued jobs).
    fn remove_everywhere(&mut self, ctx: &SimContext<'_>, job: JobId) {
        let d = ctx.job(job).deadline;
        self.qother.remove(d, job);
        self.qedf.remove(d, job);
        self.qsupp.remove(self.supplement_rank(ctx, job), job);
        if self.running == Some(job) {
            self.running = None;
        }
        self.bump(job);
    }

    /// Records which job a handler's decision leaves on the processor.
    fn track(&mut self, decision: Decision) -> Decision {
        match decision {
            Decision::Run(job) => self.running = Some(job),
            Decision::Idle => self.running = None,
            Decision::Continue => {}
        }
        decision
    }

    /// Pops the next supplement job according to the configured order
    /// (lowest id on rank ties, the documented [`SupplementOrder`] rule).
    fn pop_supplement(&mut self, _ctx: &SimContext<'_>) -> Option<JobId> {
        match self.cfg.supplement_order {
            SupplementOrder::LatestDeadline | SupplementOrder::HighestValue => self.qsupp.pop_max(),
            SupplementOrder::EarliestDeadline => self.qsupp.pop_min(),
        }
    }

    // ---- procedure C: job completion or failure handler -----------------

    fn handler_c(&mut self, ctx: &mut SimContext<'_>) -> Decision {
        let now = ctx.now();
        // Lines C.1–C.9: both queues non-empty — arbitrate between the head
        // of Qother and the head of Qedf under the restored slack.
        if !self.qedf.is_empty() && !self.qother.is_empty() {
            let (d_e, e_job, meta) = self
                .qedf
                .first()
                .map(|(d, j, m)| (d, j, *m))
                .expect("invariant: qedf checked non-empty above");
            let cs = meta.cslack_insert - (now - meta.t_insert).as_f64();
            let (d_o, o) = self
                .qother
                .earliest()
                .expect("invariant: qother checked non-empty above");
            if d_o < d_e && approx_ge(cs, self.tc(ctx, o)) {
                self.qother.pop_earliest();
                self.bump(o);
                self.cslack = (cs - self.tc(ctx, o)).min(self.claxity(ctx, o));
                self.flag = Flag::Reg;
                return Decision::Run(o);
            }
            self.qedf.pop_first();
            self.cslack = cs;
            self.flag = Flag::Reg;
            return Decision::Run(e_job);
        }
        // Lines C.10–C.12: only Qother.
        if let Some((_, o)) = self.qother.pop_earliest() {
            self.bump(o);
            self.cslack = self.claxity(ctx, o);
            self.flag = Flag::Reg;
            return Decision::Run(o);
        }
        // Lines C.13–C.15: only Qedf.
        if let Some((_, e_job, meta)) = self.qedf.pop_first() {
            self.cslack = meta.cslack_insert - (now - meta.t_insert).as_f64();
            self.flag = Flag::Reg;
            return Decision::Run(e_job);
        }
        // Lines C.16–C.22: no regular work — revive a supplement job or idle.
        self.cslack = f64::INFINITY;
        if let Some(s) = self.pop_supplement(ctx) {
            if ctx.tracing_enabled() {
                ctx.trace(TraceEvent::SupplementRescue {
                    t: now,
                    job: s,
                    depth: self.qsupp.len(),
                });
            }
            if ctx.provenance_enabled() {
                let flip = self.claxity(ctx, s) <= 0.0; // lint: allow(L001) — flip is defined by exact sign, not tolerance
                ctx.trace_decision(
                    DecisionAction::Rescue,
                    s,
                    self.rate(ctx),
                    self.qsupp.len(),
                    flip,
                );
            }
            self.flag = Flag::Supp;
            return Decision::Run(s);
        }
        self.flag = Flag::Idle;
        Decision::Idle
    }

    // ---- procedure B: job release handler -------------------------------

    fn release(&mut self, ctx: &mut SimContext<'_>, arr: JobId) -> Decision {
        self.bump(arr); // fresh generation for a fresh job
        match (self.flag, ctx.running()) {
            // Lines B.1–B.4: idle processor — run the arrival.
            (Flag::Idle, _) | (_, None) => {
                self.cslack = self.claxity(ctx, arr);
                self.flag = Flag::Reg;
                self.debug_assert_dispatch_laxity(ctx, arr);
                Decision::Run(arr)
            }
            // Lines B.5–B.12: regular job running — EDF arbitration with
            // overload protection through cSlack.
            (Flag::Reg, Some(cur)) => {
                let d_arr = ctx.job(arr).deadline;
                let d_cur = ctx.job(cur).deadline;
                if d_arr < d_cur && approx_ge(self.cslack, self.tc(ctx, arr)) {
                    let fresh = self.qedf.insert(
                        d_cur,
                        cur,
                        EdfMeta {
                            t_insert: ctx.now(),
                            cslack_insert: self.cslack,
                        },
                    );
                    debug_assert!(fresh, "{cur} double-admitted to Qedf");
                    if ctx.tracing_enabled() {
                        ctx.trace(TraceEvent::QueueDepth {
                            t: ctx.now(),
                            queue: QueueKind::Edf,
                            depth: self.qedf.len(),
                        });
                    }
                    self.cslack = (self.cslack - self.tc(ctx, arr)).min(self.claxity(ctx, arr));
                    self.debug_assert_dispatch_laxity(ctx, arr);
                    Decision::Run(arr)
                } else {
                    self.insert_qother(ctx, arr);
                    Decision::Continue
                }
            }
            // Lines B.13–B.15: supplement running — regular work preempts it
            // unconditionally.
            (Flag::Supp, Some(cur)) => {
                if self.cfg.supplement {
                    self.park_supplement(ctx, cur);
                    self.bump(cur);
                }
                self.cslack = self.claxity(ctx, arr);
                self.flag = Flag::Reg;
                self.debug_assert_dispatch_laxity(ctx, arr);
                Decision::Run(arr)
            }
        }
    }

    // ---- procedure D: zero (conservative) laxity handler -----------------

    fn zero_laxity(&mut self, ctx: &mut SimContext<'_>, job: JobId, token: u64) -> Decision {
        if token != self.gen(job) {
            return Decision::Continue; // stale timer
        }
        let d = ctx.job(job).deadline;
        if !self.qother.contains(d, job) {
            return Decision::Continue; // defensive: only Qother jobs arbitrate
        }
        // The estimated laxity of `job` flips sign at this instant: this is
        // the paper's zero-(conservative-)laxity interrupt actually firing.
        if ctx.tracing_enabled() {
            ctx.trace(TraceEvent::ClaxityZero { t: ctx.now(), job });
        }
        self.qother.remove(d, job);
        self.bump(job);
        // Line D.1: compare the urgent job's value against β times the value
        // it would displace (the running regular job plus all of Qedf).
        let mut protected = self.qedf_value(ctx);
        if self.flag == Flag::Reg {
            if let Some(cur) = ctx.running() {
                protected += ctx.job(cur).value;
            }
        }
        if ctx.job(job).value > self.cfg.beta * protected {
            // Lines D.2–D.5: displace everything and run the urgent job.
            if let Some(cur) = ctx.running() {
                match self.flag {
                    Flag::Reg => self.insert_qother(ctx, cur),
                    Flag::Supp => {
                        if self.cfg.supplement {
                            self.park_supplement(ctx, cur);
                            self.bump(cur);
                        }
                    }
                    Flag::Idle => {}
                }
            }
            // Drain in (deadline, id) order — the order the sorted Vec
            // predecessor displaced in, so timer arming order is preserved.
            for (_, displaced, _) in self.qedf.drain() {
                self.insert_qother(ctx, displaced);
            }
            self.cslack = 0.0;
            self.flag = Flag::Reg;
            Decision::Run(job)
        } else {
            // Line D.7: not valuable enough — park (V-Dover) or abandon
            // (Dover: under constant capacity a zero-laxity loser can never
            // finish, so the engine books it as explicitly given up).
            if self.cfg.supplement {
                self.park_supplement(ctx, job);
            } else {
                ctx.abandon(job);
            }
            Decision::Continue
        }
    }
}

impl Scheduler for DoverFamily {
    fn name(&self) -> String {
        self.cfg.name.clone()
    }

    fn on_release(&mut self, ctx: &mut SimContext<'_>, arr: JobId) -> Decision {
        let decision = self.release(ctx, arr);
        self.track(decision)
    }

    fn on_completion(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        self.remove_everywhere(ctx, job);
        let decision = if ctx.running().is_none() {
            self.handler_c(ctx)
        } else {
            Decision::Continue
        };
        self.track(decision)
    }

    fn on_deadline_miss(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        self.remove_everywhere(ctx, job);
        let decision = if ctx.running().is_none() {
            self.handler_c(ctx)
        } else {
            Decision::Continue
        };
        self.track(decision)
    }

    fn on_timer(&mut self, ctx: &mut SimContext<'_>, job: JobId, token: u64) -> Decision {
        let decision = self.zero_laxity(ctx, job, token);
        self.track(decision)
    }

    fn snapshot_state(&self) -> Option<String> {
        Some(self.snapshot_blob())
    }

    fn restore_state(&mut self, state: &str) -> Result<(), CoreError> {
        self.restore_blob(state)
    }
}

/// Koren & Shasha's Dover with a capacity estimate `ĉ`, exactly as evaluated
/// in the paper's §IV: laxity computed from `ĉ`, threshold `β = 1 + √k`,
/// zero-laxity losers abandoned (no supplement queue).
#[derive(Debug, Clone)]
pub struct Dover(DoverFamily);

impl Dover {
    /// Dover for importance-ratio bound `k`, computing laxity with `ĉ`.
    pub fn new(k: f64, c_estimate: f64) -> Self {
        let beta = cloudsched_analysis::bounds::dover_beta(k);
        Dover::with_beta(beta, c_estimate)
    }

    /// Dover with an explicit threshold `β` and capacity estimate `ĉ`.
    pub fn with_beta(beta: f64, c_estimate: f64) -> Self {
        Dover(DoverFamily::from_config(FamilyConfig {
            name: format!("Dover(c={c_estimate})"),
            estimate: CapacityEstimate::Fixed(c_estimate),
            beta,
            supplement: false,
            supplement_order: SupplementOrder::LatestDeadline,
        }))
    }

    /// Access to the underlying engine (for ablation inspection).
    pub fn family(&self) -> &DoverFamily {
        &self.0
    }
}

impl Scheduler for Dover {
    fn name(&self) -> String {
        self.0.name()
    }
    fn on_release(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        self.0.on_release(ctx, job)
    }
    fn on_completion(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        self.0.on_completion(ctx, job)
    }
    fn on_deadline_miss(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        self.0.on_deadline_miss(ctx, job)
    }
    fn on_timer(&mut self, ctx: &mut SimContext<'_>, job: JobId, token: u64) -> Decision {
        self.0.on_timer(ctx, job, token)
    }
    fn snapshot_state(&self) -> Option<String> {
        self.0.snapshot_state()
    }
    fn restore_state(&mut self, state: &str) -> Result<(), CoreError> {
        self.0.restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsched_capacity::{Constant, PiecewiseConstant};
    use cloudsched_core::{approx_eq, JobSet};
    use cloudsched_sim::{audit::audit_report, simulate, RunOptions};

    #[test]
    fn underloaded_behaves_like_edf() {
        let jobs = JobSet::from_tuples(&[
            (0.0, 9.0, 1.0, 1.0),
            (0.0, 3.0, 1.0, 1.0),
            (0.0, 6.0, 1.0, 1.0),
        ])
        .unwrap();
        let cap = Constant::unit();
        let r = simulate(&jobs, &cap, &mut Dover::new(4.0, 1.0), RunOptions::full());
        assert_eq!(r.completed, 3);
        let order: Vec<JobId> = r.schedule.unwrap().slices().iter().map(|s| s.job).collect();
        assert_eq!(order, vec![JobId(1), JobId(2), JobId(0)]);
    }

    #[test]
    fn urgent_valuable_job_preempts_through_zero_laxity() {
        // Job 0 runs (long, low value, cSlack only 1). Job 1 arrives with
        // zero laxity and huge value: EDF admission fails (tc=4 > cSlack=1),
        // so its zero-laxity interrupt fires immediately and the value
        // comparison of procedure D displaces job 0.
        let jobs = JobSet::from_tuples(&[
            (0.0, 11.0, 10.0, 1.0),
            (1.0, 5.0, 4.0, 100.0), // laxity (5-1) - 4 = 0 at release
        ])
        .unwrap();
        let cap = Constant::unit();
        let r = simulate(&jobs, &cap, &mut Dover::new(100.0, 1.0), RunOptions::full());
        assert!(
            r.outcome.get(JobId(1)).is_completed(),
            "urgent job must win"
        );
        assert!(approx_eq(r.value, 100.0 + 1.0) || approx_eq(r.value, 100.0));
        audit_report(&jobs, &cap, &r).unwrap();
    }

    #[test]
    fn cheap_urgent_job_is_abandoned() {
        // Same shape but the urgent job is worthless: Dover lets it die and
        // finishes the running job.
        let jobs = JobSet::from_tuples(&[
            (0.0, 13.0, 10.0, 100.0), // cSlack = 3 < tc of the arrival
            (1.0, 5.0, 4.0, 1.0),
        ])
        .unwrap();
        let cap = Constant::unit();
        let r = simulate(&jobs, &cap, &mut Dover::new(100.0, 1.0), RunOptions::full());
        assert!(r.outcome.get(JobId(0)).is_completed());
        assert!(!r.outcome.get(JobId(1)).is_completed());
        // The loser was explicitly abandoned (procedure D, no supplement
        // queue), never executed — and the report books it as an
        // abandonment, not a passive expiry.
        assert_eq!(r.abandoned, 1);
        assert_eq!(r.expired, 0);
        assert!(approx_eq(r.abandoned_value, 1.0));
        assert_eq!(r.schedule.unwrap().slices_of(JobId(1)).count(), 0);
    }

    #[test]
    fn edf_preemption_guarded_by_cslack() {
        // Running job 0 has claxity 10-0-8 = 2 at t=0 (cSlack=2).
        // Job 1 (d=6 < 10, tc=1 <= 2): EDF-preempts, goes fine.
        // Job 2 (d=5 < 10 but tc=4 > remaining slack): must NOT preempt.
        let jobs = JobSet::from_tuples(&[
            (0.0, 10.0, 8.0, 1.0),
            (0.5, 6.0, 1.0, 1.0),
            (0.6, 5.0, 4.0, 1.0),
        ])
        .unwrap();
        let cap = Constant::unit();
        let r = simulate(&jobs, &cap, &mut Dover::new(7.0, 1.0), RunOptions::full());
        // Job 1 preempts job 0; job 2 is refused (would overload) and,
        // being worthless relative to the protected set, dies.
        assert!(r.outcome.get(JobId(0)).is_completed(), "protected job 0");
        assert!(r.outcome.get(JobId(1)).is_completed(), "EDF-admitted job 1");
        assert!(!r.outcome.get(JobId(2)).is_completed());
        audit_report(&jobs, &cap, &r).unwrap();
    }

    #[test]
    fn dover_with_underestimate_wastes_high_capacity() {
        // Capacity is 4 but Dover thinks 1: it abandons a job that is
        // actually completable. (This is the V-Dover motivation.)
        let jobs = JobSet::from_tuples(&[
            (0.0, 4.0, 4.0, 10.0), // at ĉ=1 claxity 0; actually easy at c=4
            (0.0, 4.0, 4.1, 9.0),
        ])
        .unwrap();
        let cap = PiecewiseConstant::constant(4.0)
            .unwrap()
            .with_declared_bounds(1.0, 4.0)
            .unwrap();
        let r = simulate(&jobs, &cap, &mut Dover::new(2.0, 1.0), RunOptions::full());
        // Both jobs could complete at rate 4 (workloads 4+4.1 < 16 available
        // before the common deadline). Dover's pessimism abandons one.
        assert!(r.completed < 2, "Dover(ĉ=1) should fail to exploit c=4");
    }

    #[test]
    #[should_panic(expected = "β must exceed 1")]
    fn beta_must_exceed_one() {
        DoverFamily::from_config(FamilyConfig {
            name: "bad".into(),
            estimate: CapacityEstimate::ClassLow,
            beta: 1.0,
            supplement: true,
            supplement_order: SupplementOrder::LatestDeadline,
        });
    }

    #[test]
    fn handler_c_arbitrates_qedf_against_qother() {
        // Builds the exact situation of procedure C lines 1–9: at a
        // completion, both Qedf and Qother are non-empty. The run below
        // exercises BOTH outcomes: first the Qedf head wins (the Qother head
        // has a later deadline), later the Qother head wins (earlier deadline
        // than the Qedf head and enough restored slack).
        let jobs = JobSet::from_tuples(&[
            (0.0, 20.0, 6.0, 1.0), // J0: first on the processor
            (1.0, 5.0, 2.0, 1.0),  // J1: EDF-preempts J0 -> J0 to Qedf
            (2.0, 4.0, 0.5, 1.0),  // J2: EDF-preempts J1 -> J1 to Qedf
            (2.1, 18.0, 2.0, 1.0), // J3: later deadline -> Qother
        ])
        .unwrap();
        let cap = Constant::unit();
        let r = simulate(&jobs, &cap, &mut Dover::new(4.0, 1.0), RunOptions::full());
        // Everything completes; in particular J3 must be admitted from
        // Qother *between* the two Qedf resumptions (C.5–C.7), and J0 must
        // resume last with its restored cSlack (C.13–C.15).
        assert_eq!(r.completed, 4, "outcome: {:?}", r.outcome);
        let order: Vec<JobId> = r
            .schedule
            .as_ref()
            .unwrap()
            .slices()
            .iter()
            .map(|s| s.job)
            .collect();
        assert_eq!(
            order,
            vec![JobId(0), JobId(1), JobId(2), JobId(1), JobId(3), JobId(0)],
            "expected C-handler arbitration order"
        );
        audit_report(&jobs, &cap, &r).unwrap();
    }

    #[test]
    fn config_accessors() {
        let d = Dover::new(4.0, 2.5);
        assert_eq!(d.name(), "Dover(c=2.5)");
        assert!(approx_eq(d.family().config().beta, 3.0));
        assert!(!d.family().config().supplement);
    }

    #[test]
    fn snapshot_blob_round_trips_mid_run_state() {
        let cfg = FamilyConfig {
            name: "snap".into(),
            estimate: CapacityEstimate::ClassLow,
            beta: 2.0,
            supplement: true,
            supplement_order: SupplementOrder::LatestDeadline,
        };
        let mut a = DoverFamily::from_config(cfg.clone());
        // Hand-build a mid-run state covering every serialized field,
        // including the +∞ cslack a committed-free processor holds.
        a.qedf.insert(
            Time::new(5.0),
            JobId(2),
            EdfMeta {
                t_insert: Time::new(1.25),
                cslack_insert: 2.5,
            },
        );
        a.qedf.insert(
            Time::new(5.0),
            JobId(7),
            EdfMeta {
                t_insert: Time::new(0.5),
                cslack_insert: f64::INFINITY,
            },
        );
        a.qother.insert(Time::new(7.0), JobId(3));
        a.qsupp.insert(4.0, JobId(1));
        a.qsupp.insert(4.0, JobId(0));
        a.cslack = 0.1 + 0.2; // a value with no short decimal rendering
        a.flag = Flag::Reg;
        a.running = Some(JobId(5));
        // Job 6 left custody long ago: its generation is not carried.
        a.generation = vec![0, 3, 1, 2, 0, 4, 9, 8];
        let blob = a.snapshot_blob();
        assert!(!blob.contains(":9"), "unheld generations stay out: {blob}");
        let mut b = DoverFamily::from_config(cfg);
        b.restore_blob(&blob).unwrap();
        assert_eq!(b.snapshot_blob(), blob, "round-trip must be exact");
        assert_eq!(b.cslack.to_bits(), a.cslack.to_bits());
        assert_eq!(b.flag, Flag::Reg);
        assert_eq!(b.running, Some(JobId(5)));
        for held in [0, 1, 2, 3, 5, 7] {
            assert_eq!(b.gen(JobId(held)), a.gen(JobId(held)), "job {held}");
        }
        assert_eq!(b.gen(JobId(6)), 0);
        assert_eq!(b.qedf.len(), 2);
        assert_eq!(b.qother.len(), 1);
        assert_eq!(b.qsupp.len(), 2);
        // Fresh state serializes and restores too (empty sections).
        let fresh = Dover::new(4.0, 1.0);
        let blob = fresh.snapshot_state().expect("dover supports snapshots");
        let mut back = Dover::new(4.0, 1.0);
        back.restore_state(&blob).unwrap();
        assert_eq!(back.snapshot_state().unwrap(), blob);
        // Garbage is rejected, not misparsed.
        assert!(b.restore_blob("nonsense").is_err());
        assert!(b.restore_blob("dover2|X|0||||-").is_err());
        assert!(b.restore_blob("dover2|I|0|||1:2|-").is_err());
        assert!(b.restore_blob("dover2|I|0||||4").is_err());
        assert!(
            b.restore_blob("dover2|I|0|||1:2:3|2:4").is_err(),
            "two generations"
        );
        // A huge job id restores without sizing the generation table to it.
        b.restore_blob("dover2|I|0||||18446744073709551614:5")
            .unwrap();
        assert_eq!(b.gen(JobId(u64::MAX - 1)), 5);
        assert!(b.generation.is_empty());
        // The previous format is refused by name, not misparsed.
        match b.restore_blob("dover1|I|7ff0000000000000||||0,1") {
            Err(CoreError::CorruptJournal { reason, .. }) => {
                assert!(reason.contains("`dover1`"), "{reason}")
            }
            other => panic!("expected a version rejection, got {other:?}"),
        }
    }
}
