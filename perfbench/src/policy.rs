//! A timing wrapper around the scheduling policy under test.
//!
//! The wrapper forwards `plan`, `name` and `budget_caps` unchanged, so the
//! invariant auditor checks the same budgets and the plans are the same
//! plans; it only records how long each `plan` call took and what the
//! policy saw and proposed.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use gllm_core::{BatchPlan, SchedulePolicy, ScheduleView, Tokens};

/// One `plan` call as the wrapper saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanRecord {
    /// Call start, nanoseconds since the wrapper's epoch.
    pub start_ns: u64,
    /// Call duration, nanoseconds.
    pub dur_ns: u64,
    /// Prefill tokens proposed.
    pub prefill_tokens: usize,
    /// Decode sequences proposed.
    pub decode_seqs: usize,
    /// Sequences waiting for prefill in the view.
    pub waiting_seqs: usize,
    /// The view's KV free rate.
    pub kv_free_rate: f64,
}

impl PlanRecord {
    /// Tokens the proposed batch carries (prefill plus one per decode).
    pub fn batch_tokens(&self) -> usize {
        self.prefill_tokens + self.decode_seqs
    }
}

/// What the wrapper has recorded so far.
#[derive(Default)]
struct Log {
    plans: Vec<PlanRecord>,
    /// Prefill chunk sizes proposed (the transformer's prefill shapes).
    chunks: Vec<usize>,
}

/// Forwards to `inner`, timing and recording every `plan` call.
pub struct TimedPolicy {
    inner: Box<dyn SchedulePolicy>,
    epoch: Instant,
    log: Mutex<Log>,
}

impl TimedPolicy {
    /// Wrap `inner`; record times relative to `epoch`.
    pub fn new(inner: Box<dyn SchedulePolicy>, epoch: Instant) -> Arc<Self> {
        let log = Log {
            plans: Vec::with_capacity(1 << 16),
            chunks: Vec::new(),
        };
        Arc::new(Self {
            inner,
            epoch,
            log: Mutex::new(log),
        })
    }

    fn log(&self) -> std::sync::MutexGuard<'_, Log> {
        self.log
            .lock()
            .expect("plan log poisoned by a panicking scheduler")
    }

    /// Every recorded call, in call order.
    pub fn records(&self) -> Vec<PlanRecord> {
        self.log().plans.clone()
    }

    /// Every proposed prefill chunk size, in call order.
    pub fn chunk_sizes(&self) -> Vec<usize> {
        self.log().chunks.clone()
    }
}

impl SchedulePolicy for TimedPolicy {
    fn plan(&self, view: &ScheduleView) -> BatchPlan {
        let start = Instant::now();
        let plan = self.inner.plan(view);
        let end = Instant::now();
        let rec = PlanRecord {
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
            prefill_tokens: plan.prefill_tokens().get(),
            decode_seqs: plan.decode.len(),
            waiting_seqs: view.waiting.len(),
            kv_free_rate: view.kv_free_rate,
        };
        let mut log = self.log();
        log.plans.push(rec);
        log.chunks
            .extend(plan.prefill.iter().map(|c| c.tokens.get()));
        drop(log);
        plan
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn budget_caps(&self, view: &ScheduleView) -> Option<(Tokens, usize)> {
        self.inner.budget_caps(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gllm_core::policy::WaitingSeq;
    use gllm_core::TokenThrottle;
    use gllm_runtime::{GenRequest, RuntimeConfig, Server};
    use gllm_transformer::SamplingParams;

    fn view() -> ScheduleView {
        ScheduleView {
            waiting: (0..8)
                .map(|i| WaitingSeq {
                    seq: i,
                    remaining_prefill: Tokens(40),
                    context_before: Tokens(0),
                })
                .collect(),
            decodable: Vec::new(),
            total_decode_seqs: 0,
            kv_free_rate: 0.9,
            kv_free_tokens: Tokens(4096),
            block_size: Tokens(4),
            in_flight_seqs: 0,
            pipeline_depth: 2,
            max_seqs_per_batch: 64,
        }
    }

    /// Plans like Token Throttling but declares caps no plan can meet.
    struct Overpromising(TokenThrottle);

    impl SchedulePolicy for Overpromising {
        fn plan(&self, view: &ScheduleView) -> BatchPlan {
            self.0.plan(view)
        }
        fn name(&self) -> &'static str {
            "overpromising"
        }
        fn budget_caps(&self, _view: &ScheduleView) -> Option<(Tokens, usize)> {
            Some((Tokens(1), 0))
        }
    }

    fn audit_violations(policy: Arc<dyn SchedulePolicy>) -> (usize, u64) {
        let server = Server::start(RuntimeConfig::tiny(2), policy).expect("valid config");
        let reqs = (0..4)
            .map(|i| GenRequest {
                id: i,
                prompt: vec![(i as u32 * 13) % 256 + 1; 6 + i as usize],
                max_new: 4,
                params: SamplingParams::greedy(),
            })
            .collect();
        server.generate_all(reqs).expect("runtime stalled");
        let audit = server
            .shutdown_full()
            .audit
            .expect("audit is on by default");
        (audit.violations.len(), audit.batches_checked)
    }

    #[test]
    fn wrapper_forwards_plan_name_and_budget_caps() {
        let inner = TokenThrottle::default();
        let timed = TimedPolicy::new(Box::new(TokenThrottle::default()), Instant::now());
        let v = view();
        assert_eq!(timed.plan(&v), inner.plan(&v));
        assert_eq!(timed.name(), inner.name());
        assert_eq!(timed.budget_caps(&v), inner.budget_caps(&v));
        assert!(
            timed.budget_caps(&v).is_some(),
            "Token Throttling declares caps"
        );
        let recs = timed.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(
            recs[0].prefill_tokens,
            inner.plan(&v).prefill_tokens().get()
        );
        assert_eq!(recs[0].waiting_seqs, 8);
    }

    #[test]
    fn audit_stays_clean_with_the_wrapper_and_still_sees_its_caps() {
        let timed = TimedPolicy::new(Box::new(TokenThrottle::default()), Instant::now());
        let (violations, checked) = audit_violations(timed.clone());
        assert_eq!(violations, 0);
        assert!(checked > 0);
        assert!(!timed.records().is_empty());
        // The caps reach the auditor through the wrapper: caps the plans
        // break are reported as violations.
        let lying = TimedPolicy::new(
            Box::new(Overpromising(TokenThrottle::default())),
            Instant::now(),
        );
        let (violations, _) = audit_violations(lying);
        assert!(violations > 0, "forwarded caps must be audited");
    }
}
