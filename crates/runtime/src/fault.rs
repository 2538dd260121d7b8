//! Deterministic fault injection for the threaded pipeline runtime.
//!
//! The paper's runtime assumes every stage survives the whole serving run.
//! Production pipelines do not get that luxury: workers die, inter-stage
//! messages are lost or delayed, allocations fail. This module provides a
//! *seeded, reproducible* way to inject exactly those failures so the
//! driver's recovery path (see `driver.rs`) can be exercised — and proven
//! bit-identical to the fault-free run — under test.
//!
//! A [`FaultPlan`] is a declarative list of [`FaultKind`]s, parseable from
//! a compact spec string (`kill:1@3,delay:0@2+20,kvfail:4x2`) or generated
//! from a seed. At runtime the plan is armed into a [`FaultInjector`] — a
//! cheap `Arc<Mutex<_>>` handle shared by the driver and every worker.
//! Each fault fires at most the declared number of times; every firing is
//! appended to a log the driver drains into the audit counters and the
//! pipeline trace, so no injected fault is ever invisible post-mortem.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// One injectable failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Stage `stage` (≥ 1; the driver stage is not killable) exits
    /// without warning when batch `at_batch`'s metadata reaches it.
    KillWorker {
        /// Pipeline stage index of the victim worker.
        stage: usize,
        /// Batch id that triggers the death.
        at_batch: u64,
    },
    /// The activation message leaving `from_stage` for batch `at_batch`
    /// is silently dropped (the metadata still arrives downstream).
    DropActivation {
        /// Sending stage index.
        from_stage: usize,
        /// Batch id whose activations are lost.
        at_batch: u64,
    },
    /// The activation message leaving `from_stage` for batch `at_batch`
    /// is delayed by `delay_ms` before delivery.
    DelayActivation {
        /// Sending stage index.
        from_stage: usize,
        /// Batch id whose activations are held back.
        at_batch: u64,
        /// Added latency in milliseconds.
        delay_ms: u64,
    },
    /// The next `times` KV reservations for sequence `seq` fail at
    /// admission time (the driver retries, then rejects the request).
    FailKvAlloc {
        /// Victim sequence id.
        seq: u64,
        /// How many consecutive attempts fail before allocation succeeds.
        times: u32,
    },
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::KillWorker { stage, at_batch } => {
                write!(f, "kill:{stage}@{at_batch}")
            }
            FaultKind::DropActivation { from_stage, at_batch } => {
                write!(f, "drop:{from_stage}@{at_batch}")
            }
            FaultKind::DelayActivation { from_stage, at_batch, delay_ms } => {
                write!(f, "delay:{from_stage}@{at_batch}+{delay_ms}")
            }
            FaultKind::FailKvAlloc { seq, times } => write!(f, "kvfail:{seq}x{times}"),
        }
    }
}

/// A malformed fault-plan spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError(pub String);

impl std::fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault plan: {}", self.0)
    }
}

impl std::error::Error for FaultParseError {}

/// A reproducible set of faults to inject into one serving run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The faults, in declaration order.
    pub faults: Vec<FaultKind>,
}

impl FaultPlan {
    /// The no-fault plan (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parse a comma-separated spec:
    ///
    /// * `kill:STAGE@BATCH` — kill worker `STAGE` (≥ 1) at batch `BATCH`,
    /// * `drop:STAGE@BATCH` — drop the activations stage `STAGE` sends
    ///   for batch `BATCH`,
    /// * `delay:STAGE@BATCH+MS` — delay those activations by `MS` ms,
    /// * `kvfail:SEQxTIMES` — fail sequence `SEQ`'s next `TIMES` KV
    ///   reservations.
    ///
    /// The empty string parses to the no-fault plan.
    pub fn parse(spec: &str) -> Result<Self, FaultParseError> {
        let mut faults = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let Some((kind, rest)) = part.split_once(':') else {
                return Err(FaultParseError(format!("{part:?}: expected KIND:ARGS")));
            };
            let at = |s: &str| -> Result<(usize, u64), FaultParseError> {
                let Some((stage, batch)) = s.split_once('@') else {
                    return Err(FaultParseError(format!("{part:?}: expected STAGE@BATCH")));
                };
                let stage = stage
                    .parse()
                    .map_err(|_| FaultParseError(format!("{part:?}: bad stage {stage:?}")))?;
                let batch = batch
                    .parse()
                    .map_err(|_| FaultParseError(format!("{part:?}: bad batch {batch:?}")))?;
                Ok((stage, batch))
            };
            match kind {
                "kill" => {
                    let (stage, at_batch) = at(rest)?;
                    if stage == 0 {
                        return Err(FaultParseError(format!(
                            "{part:?}: stage 0 is the driver and cannot be killed"
                        )));
                    }
                    faults.push(FaultKind::KillWorker { stage, at_batch });
                }
                "drop" => {
                    let (from_stage, at_batch) = at(rest)?;
                    faults.push(FaultKind::DropActivation { from_stage, at_batch });
                }
                "delay" => {
                    let Some((head, ms)) = rest.split_once('+') else {
                        return Err(FaultParseError(format!(
                            "{part:?}: expected STAGE@BATCH+MS"
                        )));
                    };
                    let (from_stage, at_batch) = at(head)?;
                    let delay_ms = ms
                        .parse()
                        .map_err(|_| FaultParseError(format!("{part:?}: bad delay {ms:?}")))?;
                    faults.push(FaultKind::DelayActivation { from_stage, at_batch, delay_ms });
                }
                "kvfail" => {
                    let Some((seq, times)) = rest.split_once('x') else {
                        return Err(FaultParseError(format!("{part:?}: expected SEQxTIMES")));
                    };
                    let seq = seq
                        .parse()
                        .map_err(|_| FaultParseError(format!("{part:?}: bad seq {seq:?}")))?;
                    let times = times
                        .parse()
                        .map_err(|_| FaultParseError(format!("{part:?}: bad count {times:?}")))?;
                    if times == 0 {
                        return Err(FaultParseError(format!("{part:?}: zero-shot kvfail")));
                    }
                    faults.push(FaultKind::FailKvAlloc { seq, times });
                }
                other => {
                    return Err(FaultParseError(format!(
                        "unknown fault kind {other:?} (kill, drop, delay, kvfail)"
                    )))
                }
            }
        }
        Ok(Self { faults })
    }

    /// A seeded pseudo-random plan of 1–3 faults over a pipeline of
    /// `stages` stages, batches `0..max_batch` and sequences `0..max_seq`.
    /// The same seed always yields the same plan, and every generated
    /// fault is recoverable (KV failures stay within the driver's default
    /// retry budget), so a chaos matrix over seeds proves bit-identical
    /// recovery rather than structured rejection.
    pub fn seeded(seed: u64, stages: usize, max_batch: u64, max_seq: u64) -> Self {
        let mut state = seed;
        let mut next = move || -> u64 {
            // splitmix64: tiny, dependency-free, well distributed.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut faults = Vec::new();
        if stages < 2 {
            // Only KV faults make sense on a single-stage pipeline.
            faults.push(FaultKind::FailKvAlloc {
                seq: next() % max_seq.max(1),
                times: 1 + (next() % 2) as u32,
            });
            return Self { faults };
        }
        let n = 1 + (next() % 3) as usize;
        for _ in 0..n {
            let at_batch = next() % max_batch.max(1);
            match next() % 4 {
                0 => faults.push(FaultKind::KillWorker {
                    stage: 1 + (next() as usize % (stages - 1)),
                    at_batch,
                }),
                1 => faults.push(FaultKind::DropActivation {
                    from_stage: next() as usize % (stages - 1),
                    at_batch,
                }),
                2 => faults.push(FaultKind::DelayActivation {
                    from_stage: next() as usize % (stages - 1),
                    at_batch,
                    delay_ms: 1 + next() % 20,
                }),
                _ => faults.push(FaultKind::FailKvAlloc {
                    seq: next() % max_seq.max(1),
                    times: 1 + (next() % 2) as u32,
                }),
            }
        }
        Self { faults }
    }
}

impl std::str::FromStr for FaultPlan {
    type Err = FaultParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

/// What the injector decided about one outbound activation message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationFate {
    /// Send normally.
    Deliver,
    /// Never send it (the downstream stage desynchronises and the driver
    /// recovers by timeout or cascade).
    Drop,
    /// Sleep this long, then send.
    Delay(Duration),
}

#[derive(Debug, Default)]
struct InjectorState {
    /// One-shot kill switches keyed by (stage, batch).
    kills: BTreeMap<(usize, u64), ()>,
    /// One-shot activation fates keyed by (from_stage, batch).
    fates: BTreeMap<(usize, u64), ActivationFate>,
    /// Remaining KV-allocation failures per sequence.
    kv: BTreeMap<u64, u32>,
    /// Faults that fired but the driver has not yet folded into the audit
    /// counters / trace.
    pending: Vec<String>,
    /// Every fault that ever fired, in firing order (for tests).
    fired: Vec<String>,
}

/// Shared handle the driver and workers consult at well-defined points.
///
/// All methods take one short lock; none blocks, sends or receives while
/// holding it (lock-discipline clean). A fault-free injector is a single
/// `is_empty` flag check per call site.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    state: Arc<Mutex<InjectorState>>,
    /// Fast path: a plan with no faults never needs the lock.
    armed: bool,
}

impl FaultInjector {
    /// Arm a plan. An empty plan produces an inert injector.
    pub fn new(plan: &FaultPlan) -> Self {
        let mut st = InjectorState::default();
        for f in &plan.faults {
            match *f {
                FaultKind::KillWorker { stage, at_batch } => {
                    st.kills.insert((stage, at_batch), ());
                }
                FaultKind::DropActivation { from_stage, at_batch } => {
                    st.fates.insert((from_stage, at_batch), ActivationFate::Drop);
                }
                FaultKind::DelayActivation { from_stage, at_batch, delay_ms } => {
                    st.fates.insert(
                        (from_stage, at_batch),
                        ActivationFate::Delay(Duration::from_millis(delay_ms)),
                    );
                }
                FaultKind::FailKvAlloc { seq, times } => {
                    st.kv.insert(seq, times);
                }
            }
        }
        Self { armed: !plan.is_empty(), state: Arc::new(Mutex::new(st)) }
    }

    fn with<T>(&self, f: impl FnOnce(&mut InjectorState) -> T) -> T {
        // A panicking holder must not disarm fault bookkeeping mid-test.
        let mut guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }

    /// Whether the worker receiving `batch`'s metadata at `stage` should
    /// die now. Consumed on fire.
    pub fn should_kill(&self, stage: usize, batch: u64) -> bool {
        if !self.armed {
            return false;
        }
        self.with(|st| {
            if st.kills.remove(&(stage, batch)).is_some() {
                let desc = format!("kill worker stage {stage} at batch {batch}");
                st.pending.push(desc.clone());
                st.fired.push(desc);
                true
            } else {
                false
            }
        })
    }

    /// What to do with the activations `from_stage` is about to send for
    /// `batch`. Consumed on fire (a later identical batch id delivers).
    pub fn activation_fate(&self, from_stage: usize, batch: u64) -> ActivationFate {
        if !self.armed {
            return ActivationFate::Deliver;
        }
        self.with(|st| match st.fates.remove(&(from_stage, batch)) {
            Some(fate) => {
                let desc = match fate {
                    ActivationFate::Drop => {
                        format!("drop activations from stage {from_stage} for batch {batch}")
                    }
                    ActivationFate::Delay(d) => format!(
                        "delay activations from stage {from_stage} for batch {batch} by {} ms",
                        d.as_millis()
                    ),
                    ActivationFate::Deliver => String::new(),
                };
                if !desc.is_empty() {
                    st.pending.push(desc.clone());
                    st.fired.push(desc);
                }
                fate
            }
            None => ActivationFate::Deliver,
        })
    }

    /// Whether the KV reservation the driver is about to make for `seq`
    /// should fail. Each call that returns `true` consumes one of the
    /// fault's remaining charges.
    pub fn kv_alloc_should_fail(&self, seq: u64) -> bool {
        if !self.armed {
            return false;
        }
        self.with(|st| {
            let Some(left) = st.kv.get_mut(&seq) else { return false };
            if *left == 0 {
                return false;
            }
            *left -= 1;
            if *left == 0 {
                st.kv.remove(&seq);
            }
            let desc = format!("fail KV allocation for seq {seq}");
            st.pending.push(desc.clone());
            st.fired.push(desc);
            true
        })
    }

    /// Forget any remaining KV failures for `seq` (the driver rejected
    /// the request; the fault must not leak onto a reused id).
    pub fn clear_kv_fault(&self, seq: u64) {
        if !self.armed {
            return;
        }
        self.with(|st| {
            st.kv.remove(&seq);
        })
    }

    /// Drain descriptions of faults that fired since the last call. The
    /// driver folds these into the audit counters and pipeline trace.
    pub fn take_fired(&self) -> Vec<String> {
        if !self.armed {
            return Vec::new();
        }
        self.with(|st| std::mem::take(&mut st.pending))
    }

    /// Every fault that ever fired, in firing order.
    pub fn fired_log(&self) -> Vec<String> {
        self.with(|st| st.fired.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_kind() {
        let plan = FaultPlan::parse("kill:1@3, drop:0@5,delay:2@4+20,kvfail:7x3").unwrap();
        assert_eq!(
            plan.faults,
            vec![
                FaultKind::KillWorker { stage: 1, at_batch: 3 },
                FaultKind::DropActivation { from_stage: 0, at_batch: 5 },
                FaultKind::DelayActivation { from_stage: 2, at_batch: 4, delay_ms: 20 },
                FaultKind::FailKvAlloc { seq: 7, times: 3 },
            ]
        );
        let rendered: Vec<String> = plan.faults.iter().map(|f| f.to_string()).collect();
        assert_eq!(rendered.join(","), "kill:1@3,drop:0@5,delay:2@4+20,kvfail:7x3");
        let reparsed: FaultPlan = rendered.join(",").parse().unwrap();
        assert_eq!(reparsed, plan);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in ["kill:0@1", "kill:1", "boom:1@2", "delay:1@2", "kvfail:3", "kvfail:3x0", "x"] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ,  ").unwrap().is_empty());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_valid() {
        for seed in 0..64 {
            let a = FaultPlan::seeded(seed, 3, 8, 4);
            let b = FaultPlan::seeded(seed, 3, 8, 4);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!(!a.is_empty());
            for f in &a.faults {
                match *f {
                    FaultKind::KillWorker { stage, .. } => assert!((1..3).contains(&stage)),
                    FaultKind::DropActivation { from_stage, .. }
                    | FaultKind::DelayActivation { from_stage, .. } => assert!(from_stage < 2),
                    FaultKind::FailKvAlloc { seq, times } => {
                        assert!(seq < 4);
                        assert!((1..=2).contains(&times), "must stay within retry budget");
                    }
                }
            }
        }
        // Single-stage plans degrade to KV faults only.
        for f in &FaultPlan::seeded(9, 1, 8, 4).faults {
            assert!(matches!(f, FaultKind::FailKvAlloc { .. }));
        }
    }

    #[test]
    fn kill_and_fate_fire_exactly_once() {
        let inj = FaultInjector::new(&FaultPlan::parse("kill:1@3,drop:0@2").unwrap());
        assert!(!inj.should_kill(1, 2));
        assert!(!inj.should_kill(2, 3));
        assert!(inj.should_kill(1, 3));
        assert!(!inj.should_kill(1, 3), "one-shot");
        assert_eq!(inj.activation_fate(0, 1), ActivationFate::Deliver);
        assert_eq!(inj.activation_fate(0, 2), ActivationFate::Drop);
        assert_eq!(inj.activation_fate(0, 2), ActivationFate::Deliver, "one-shot");
        let fired = inj.fired_log();
        assert_eq!(fired.len(), 2);
        assert_eq!(inj.take_fired().len(), 2);
        assert!(inj.take_fired().is_empty(), "pending drained");
        assert_eq!(inj.fired_log().len(), 2, "cumulative log survives draining");
    }

    #[test]
    fn kv_failures_decrement_and_clear() {
        let inj = FaultInjector::new(&FaultPlan::parse("kvfail:7x2").unwrap());
        assert!(inj.kv_alloc_should_fail(7));
        assert!(inj.kv_alloc_should_fail(7));
        assert!(!inj.kv_alloc_should_fail(7), "charges exhausted");
        assert!(!inj.kv_alloc_should_fail(8));
        let inj = FaultInjector::new(&FaultPlan::parse("kvfail:7x5").unwrap());
        assert!(inj.kv_alloc_should_fail(7));
        inj.clear_kv_fault(7);
        assert!(!inj.kv_alloc_should_fail(7), "cleared on rejection");
    }

    #[test]
    fn inert_injector_never_fires() {
        let inj = FaultInjector::default();
        assert!(!inj.should_kill(1, 0));
        assert_eq!(inj.activation_fate(0, 0), ActivationFate::Deliver);
        assert!(!inj.kv_alloc_should_fail(0));
        assert!(inj.take_fired().is_empty());
    }

    /// Picks below 256 are raw bytes; the rest index `fragments`, so the
    /// input is arbitrary but often close to the grammar.
    fn splice(picks: &[u16], fragments: &[&str]) -> String {
        let mut out = Vec::new();
        for &p in picks {
            match usize::from(p).checked_sub(256) {
                None => out.push(p as u8),
                Some(i) => out.extend_from_slice(fragments[i % fragments.len()].as_bytes()),
            }
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(4000))]
        /// Any spec parses or fails with a structured error, never a
        /// panic, and every accepted plan renders back to itself.
        #[test]
        fn parse_never_panics_and_accepted_plans_round_trip(
            picks in proptest::collection::vec(0u16..512, 0..48),
        ) {
            let frags = [
                "kill:1@3", "drop:0@5", "delay:2@4+20", "kvfail:7x3", "kill:", "drop:", "delay:",
                "kvfail:", "@", "+", "x", ",", ",", " ", ":", "0", "1", "18446744073709551615",
                "18446744073709551616", "-1",
            ];
            let spec = splice(&picks, &frags);
            if let Ok(plan) = FaultPlan::parse(&spec) {
                let rendered: Vec<String> = plan.faults.iter().map(|f| f.to_string()).collect();
                let reparsed = FaultPlan::parse(&rendered.join(","));
                proptest::prop_assert_eq!(reparsed, Ok(plan), "{:?}", spec);
            }
        }
    }
}
