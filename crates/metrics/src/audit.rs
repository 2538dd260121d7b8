//! Pipeline invariant auditing.
//!
//! The simulator and the threaded runtime share one scheduling contract:
//! KV is allocated block-granularly at schedule time, at most `#PP_depth`
//! micro-batches coexist in the pipeline, committed plans never exceed
//! what the policy budgeted, and prefill admission is FCFS. Violations of
//! any of these are silent accounting bugs — throughput numbers stay
//! plausible while KV leaks or batches overcommit and thrash.
//!
//! [`InvariantAuditor`] shadows the scheduler's state from the same event
//! stream both execution planes already produce (schedule, complete,
//! evict) and cross-checks it against the KV cache manager's observed
//! occupancy on every transition. It checks:
//!
//! 1. **KV accounting** — the manager's used/free block counts equal the
//!    sum of per-sequence allocations at block granularity,
//! 2. **KV overcommit** — a *proposed* plan fits the free blocks it was
//!    planned against (catches token-granular reservations that admission
//!    would silently trim),
//! 3. **Pipeline depth** — never more than `#PP_depth` batches in flight,
//! 4. **Budget conformance** — plans respect the policy's declared
//!    prefill/decode budgets, and admission only ever trims a plan,
//! 5. **FCFS admission** — a sequence never starts prefilling before an
//!    earlier arrival that has not started (and is still live).
//!
//! The auditor is cheap — every transition costs O(plan · log live), and
//! its state (arrival indices, unstarted arrivals, shadow contexts) holds
//! live requests only — so both planes keep it on in every run.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use gllm_core::{BatchPlan, Blocks, Tokens};
use serde::Serialize;

// Shared with the scheduler: blocks a sequence at `context` tokens must
// acquire to append `tokens` more (the page-table invariant of the KV
// manager). Re-exported so existing auditor callers keep compiling.
pub use gllm_core::blocks_to_append;

/// Occupancy observed from the KV cache manager at a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct KvObservation {
    /// Free physical blocks.
    pub free_blocks: Blocks,
    /// Blocks with at least one owner.
    pub used_blocks: Blocks,
}

/// Budget caps a policy declared for one scheduling decision (see
/// `SchedulePolicy::budget_caps`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PlanCaps {
    /// Maximum batched prefill tokens.
    pub prefill_tokens: Tokens,
    /// Maximum decode sequences.
    pub decode_seqs: usize,
}

/// Which contract a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Invariant {
    /// Shadow per-sequence allocations disagree with the KV manager.
    KvAccounting,
    /// A proposed plan did not fit the free blocks it was planned against.
    KvOvercommit,
    /// More than `#PP_depth` micro-batches in flight.
    PipelineDepth,
    /// A plan exceeded the policy's declared budgets, or admission grew it.
    BudgetConformance,
    /// Prefill admission inverted FCFS order.
    FcfsAdmission,
    /// The runtime's own bookkeeping went inconsistent (e.g. a committed
    /// chunk without a KV table or pool entry) and the affected request
    /// was rejected instead of panicking the driver.
    RuntimeIntegrity,
}

/// One detected contract violation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Violation {
    /// Engine time (virtual or wall-clock seconds) of the transition.
    pub t_s: f64,
    /// Micro-batch under audit, if the transition had one.
    pub batch: Option<u64>,
    /// Broken contract.
    pub invariant: Invariant,
    /// Human-readable specifics.
    pub detail: String,
}

/// Point-in-time digest of the auditor's shadow state — attached to stall
/// errors so a wedged runtime reports *why* it stopped scheduling.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AuditSnapshot {
    /// Time of the last audited transition.
    pub t_s: f64,
    /// Micro-batches audited so far.
    pub batches_checked: u64,
    /// Micro-batches currently in flight.
    pub in_flight: usize,
    /// Pipeline depth limit.
    pub depth: usize,
    /// Sequences currently holding KV.
    pub live_kv_seqs: usize,
    /// Blocks the shadow accounting says are allocated.
    pub shadow_used_blocks: Blocks,
    /// Total physical blocks.
    pub total_blocks: Blocks,
    /// Violations recorded so far.
    pub violations: usize,
    /// Injected faults observed so far (kills, drops, delays, KV-alloc
    /// failures — see `gllm-runtime`'s fault module).
    pub faults_injected: u64,
    /// Completed pipeline recoveries (teardown + respawn + requeue).
    pub recoveries: u64,
    /// In-flight micro-batches rolled back and requeued across all
    /// recoveries.
    pub batches_requeued: u64,
    /// Requests terminated with a structured failure event instead of an
    /// output (KV-fault exhaustion, integrity rejection, fail-open).
    pub requests_failed: u64,
}

/// Final audit result of a run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AuditReport {
    /// Every violation, in detection order.
    pub violations: Vec<Violation>,
    /// Micro-batches audited.
    pub batches_checked: u64,
    /// Shadow state at the end of the run.
    pub final_snapshot: AuditSnapshot,
}

impl AuditReport {
    /// True when the run broke no invariant.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic with every violation listed unless the run was clean.
    pub fn assert_clean(&self, plane: &str) {
        assert!(
            self.is_clean(),
            "{plane}: {} invariant violation(s):\n{}",
            self.violations.len(),
            self.violations
                .iter()
                .map(|v| format!("  [{:?}] t={:.6} batch={:?}: {}", v.invariant, v.t_s, v.batch, v.detail))
                .collect::<Vec<_>>()
                .join("\n"),
        );
    }
}

/// One sequence's shadow KV: committed tokens and the blocks they fill
/// (`tokens.to_blocks(block_size)`, recomputed only when a context
/// outgrows its last block).
#[derive(Debug, Clone, Copy, Default)]
struct ShadowKv {
    tokens: Tokens,
    blocks: Blocks,
}

/// Shadow scheduler state cross-checked on every transition.
///
/// Every transition costs O(plan · log live), and the per-request state is
/// bounded by the live requests: a request's entries go when it finishes,
/// is rejected or fails. This relies on the planes' contract that a
/// request is scheduled only between its arrival and its departure, and
/// that ids are never reused: once a request has left, no event names it.
#[derive(Debug, Clone)]
pub struct InvariantAuditor {
    block_size: Tokens,
    total_blocks: Blocks,
    depth: usize,

    in_flight: usize,
    batches_checked: u64,
    last_t: f64,

    faults_injected: u64,
    recoveries: u64,
    batches_requeued: u64,
    requests_failed: u64,

    /// Arrival index of every live request. Ordered maps keep violation
    /// details deterministic across runs (sim-determinism).
    arrival_idx: BTreeMap<u64, usize>,
    next_arrival: usize,
    /// Live requests that have not received their first prefill chunk,
    /// keyed by arrival index: the FCFS check is a range query, empty in a
    /// clean run.
    unstarted: BTreeMap<usize, u64>,
    /// Shadow KV per sequence currently holding cache.
    ctx: BTreeMap<u64, ShadowKv>,
    /// The blocks of every `ctx` entry, summed, kept in step with `ctx`.
    shadow_blocks: Blocks,

    /// The proposed plan's `(seq, tokens)` prefill chunks and, when a
    /// committed decode slot is out of proposal order, its decode seqs,
    /// sorted by seq. Rebuilt per batch; the allocations are reused.
    proposed_prefill: Vec<(u64, Tokens)>,
    proposed_decode: Vec<u64>,

    violations: Vec<Violation>,
}

impl InvariantAuditor {
    /// An auditor over `total_blocks` KV blocks of `block_size` tokens on
    /// a pipeline of `depth` stages.
    pub fn new(total_blocks: Blocks, block_size: Tokens, depth: usize) -> Self {
        Self {
            block_size: block_size.max(Tokens(1)),
            total_blocks,
            depth: depth.max(1),
            in_flight: 0,
            batches_checked: 0,
            last_t: 0.0,
            faults_injected: 0,
            recoveries: 0,
            batches_requeued: 0,
            requests_failed: 0,
            arrival_idx: BTreeMap::new(),
            next_arrival: 0,
            unstarted: BTreeMap::new(),
            ctx: BTreeMap::new(),
            shadow_blocks: Blocks::ZERO,
            proposed_prefill: Vec::new(),
            proposed_decode: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// A request entered the system (records FCFS arrival order).
    pub fn on_arrival(&mut self, seq: u64) {
        if let Entry::Vacant(e) = self.arrival_idx.entry(seq) {
            let i = self.next_arrival;
            self.next_arrival += 1;
            e.insert(i);
            self.unstarted.insert(i, seq);
        }
    }

    /// A request was rejected before admission (oversized, empty, …): it
    /// leaves the FCFS universe.
    pub fn on_abort(&mut self, seq: u64) {
        self.forget(seq);
    }

    /// A sequence's KV was evicted (recompute preemption): it returns to
    /// the waiting queue with an empty context.
    pub fn on_evict(&mut self, seq: u64) {
        self.drop_ctx(seq);
    }

    /// An injected fault fired somewhere in the pipeline (the runtime
    /// drains the injector's firing log into this counter so every fault
    /// is visible in the snapshot, even ones that needed no recovery).
    pub fn on_fault(&mut self, t_s: f64) {
        self.last_t = t_s;
        self.faults_injected += 1;
    }

    /// The driver tore the pipeline down, rolled back `lost_batches`
    /// in-flight micro-batches for requeueing, and respawned the stages.
    /// The rolled-back batches leave the in-flight count: their
    /// completions will never arrive.
    pub fn on_recovery(&mut self, t_s: f64, lost_batches: usize) {
        self.last_t = t_s;
        self.recoveries += 1;
        self.batches_requeued += lost_batches as u64;
        self.in_flight = self.in_flight.saturating_sub(lost_batches);
    }

    /// A live request was terminated with a structured failure event
    /// (bounded retries exhausted, or fail-open after too many
    /// recoveries). Like an abort, it leaves the FCFS universe and its
    /// shadow KV is forgotten.
    pub fn on_request_failed(&mut self, t_s: f64, seq: u64) {
        self.last_t = t_s;
        self.requests_failed += 1;
        self.forget(seq);
        self.drop_ctx(seq);
    }

    /// The runtime detected an internal bookkeeping inconsistency and
    /// rejected the request instead of panicking. Recorded as a
    /// [`Invariant::RuntimeIntegrity`] violation.
    pub fn on_integrity_failure(&mut self, t_s: f64, batch: Option<u64>, detail: String) {
        self.violate(t_s, batch, Invariant::RuntimeIntegrity, detail);
    }

    /// Audit one scheduling decision: `proposed` is the policy's raw plan,
    /// `committed` what admission actually placed, `before`/`after` the KV
    /// occupancy around admission, `caps` the policy's declared budgets.
    #[allow(clippy::too_many_arguments)]
    pub fn on_schedule(
        &mut self,
        t_s: f64,
        batch: u64,
        proposed: &BatchPlan,
        committed: &BatchPlan,
        caps: Option<PlanCaps>,
        before: KvObservation,
        after: KvObservation,
    ) {
        self.last_t = t_s;
        self.batches_checked += 1;

        // (3) Pipeline depth.
        if self.in_flight >= self.depth {
            self.violate(
                t_s,
                Some(batch),
                Invariant::PipelineDepth,
                format!("scheduled with {} batches already in flight (depth {})", self.in_flight, self.depth),
            );
        }
        self.in_flight += 1;

        self.check_overcommit(t_s, batch, proposed, before);
        self.check_conformance(t_s, batch, proposed, committed, caps);
        self.check_fcfs(t_s, batch, committed);

        // (1) Apply the committed plan to the shadow allocations, then the
        // manager must agree block-for-block.
        for c in &committed.prefill {
            let cur = self.grow(c.seq, c.tokens);
            if cur != c.context_before {
                self.violate(
                    t_s,
                    Some(batch),
                    Invariant::KvAccounting,
                    format!("seq {} prefill chunk claims context {} but shadow holds {}", c.seq, c.context_before, cur),
                );
            }
        }
        for d in &committed.decode {
            let cur = self.grow(d.seq, Tokens(1));
            if cur != d.context_before {
                self.violate(
                    t_s,
                    Some(batch),
                    Invariant::KvAccounting,
                    format!("seq {} decode slot claims context {} but shadow holds {}", d.seq, d.context_before, cur),
                );
            }
        }
        self.check_kv(t_s, Some(batch), after);
    }

    /// Audit one batch completion. `finished` lists sequences whose KV the
    /// engine freed; `after` is the occupancy after those frees.
    pub fn on_complete(&mut self, t_s: f64, batch: u64, finished: &[u64], after: KvObservation) {
        self.last_t = t_s;
        if self.in_flight == 0 {
            self.violate(
                t_s,
                Some(batch),
                Invariant::PipelineDepth,
                "batch completed with nothing in flight".to_string(),
            );
        } else {
            self.in_flight -= 1;
        }
        for &id in finished {
            self.forget(id);
            if !self.drop_ctx(id) {
                self.violate(
                    t_s,
                    Some(batch),
                    Invariant::KvAccounting,
                    format!("finished seq {id} held no shadow KV"),
                );
            }
        }
        self.check_kv(t_s, Some(batch), after);
    }

    /// Drop a request that left the system from the FCFS state.
    fn forget(&mut self, seq: u64) {
        if let Some(i) = self.arrival_idx.remove(&seq) {
            self.unstarted.remove(&i);
        }
    }

    /// Append `tokens` to `seq`'s shadow KV; returns the context it held.
    fn grow(&mut self, seq: u64, tokens: Tokens) -> Tokens {
        let bs = self.block_size;
        let kv = self.ctx.entry(seq).or_default();
        let before = kv.tokens;
        kv.tokens = before + tokens;
        if kv.tokens > kv.blocks.to_tokens(bs) {
            let blocks = kv.tokens.to_blocks(bs);
            self.shadow_blocks += blocks - kv.blocks;
            kv.blocks = blocks;
        }
        before
    }

    /// Forget a sequence's shadow KV; false when it held none.
    fn drop_ctx(&mut self, seq: u64) -> bool {
        match self.ctx.remove(&seq) {
            Some(kv) => {
                self.shadow_blocks -= kv.blocks;
                true
            }
            None => false,
        }
    }

    /// (2) The proposed plan must fit the free blocks it was planned
    /// against. Decode growth may legitimately exceed free space (that is
    /// what recompute preemption is for) — but then the policy must not
    /// propose prefill on top.
    fn check_overcommit(&mut self, t_s: f64, batch: u64, proposed: &BatchPlan, before: KvObservation) {
        let bs = self.block_size;
        let mut left = before.free_blocks;
        let mut decode_exhausted = false;
        for d in &proposed.decode {
            let need = blocks_to_append(d.context_before, Tokens(1), bs);
            if need > left {
                decode_exhausted = true;
                left = Blocks::ZERO;
            } else {
                left -= need;
            }
        }
        if decode_exhausted {
            // Preemption will make room for the decodes; new prefill blocks
            // on top would be indefensible. Chunks that fit entirely in the
            // slack of their sequence's own partial last block allocate
            // nothing, so they stay legal.
            for c in &proposed.prefill {
                let need = blocks_to_append(c.context_before, c.tokens, bs);
                if !need.is_zero() {
                    self.violate(
                        t_s,
                        Some(batch),
                        Invariant::KvOvercommit,
                        format!(
                            "chunk for seq {} needs {} fresh block(s) while decode growth \
                             alone exceeds {} free blocks",
                            c.seq, need, before.free_blocks
                        ),
                    );
                    return;
                }
            }
            return;
        }
        for c in &proposed.prefill {
            let need = blocks_to_append(c.context_before, c.tokens, bs);
            if need > left {
                self.violate(
                    t_s,
                    Some(batch),
                    Invariant::KvOvercommit,
                    format!(
                        "proposed plan overcommits KV: chunk for seq {} needs {} blocks with {} left \
                         ({} free before the batch, block size {})",
                        c.seq, need, left, before.free_blocks, bs
                    ),
                );
                return;
            }
            left -= need;
        }
    }

    /// (4) Admission only trims; the policy's declared budgets bound the
    /// proposal. Committed entries are looked up in the proposal sorted by
    /// seq, so violations keep the committed plan's order.
    fn check_conformance(
        &mut self,
        t_s: f64,
        batch: u64,
        proposed: &BatchPlan,
        committed: &BatchPlan,
        caps: Option<PlanCaps>,
    ) {
        if let Some(caps) = caps {
            let p = proposed.prefill_tokens();
            if p > caps.prefill_tokens {
                self.violate(
                    t_s,
                    Some(batch),
                    Invariant::BudgetConformance,
                    format!("proposed {} prefill tokens over the policy's budget {}", p, caps.prefill_tokens),
                );
            }
            if proposed.decode.len() > caps.decode_seqs {
                self.violate(
                    t_s,
                    Some(batch),
                    Invariant::BudgetConformance,
                    format!("proposed {} decode seqs over the policy's budget {}", proposed.decode.len(), caps.decode_seqs),
                );
            }
        }
        // A stable sort keeps a repeated seq's chunks in proposal order, so
        // the first match is the one a linear scan would find.
        self.proposed_prefill.clear();
        self.proposed_prefill.extend(proposed.prefill.iter().map(|p| (p.seq, p.tokens)));
        self.proposed_prefill.sort_by_key(|&(seq, _)| seq);
        for c in &committed.prefill {
            let i = self.proposed_prefill.partition_point(|&(seq, _)| seq < c.seq);
            let planned = self.proposed_prefill.get(i).filter(|&&(seq, _)| seq == c.seq).map(|&(_, t)| t);
            match planned {
                Some(p) if c.tokens <= p => {}
                Some(p) => self.violate(
                    t_s,
                    Some(batch),
                    Invariant::BudgetConformance,
                    format!("admission grew seq {}'s chunk from {} to {} tokens", c.seq, p, c.tokens),
                ),
                None => self.violate(
                    t_s,
                    Some(batch),
                    Invariant::BudgetConformance,
                    format!("admission invented a prefill chunk for seq {}", c.seq),
                ),
            }
        }
        // Admission drops decode slots but keeps their order, so one
        // forward pass over the proposal places every slot of a clean plan.
        // The first slot it cannot place switches the rest to a binary
        // search over the proposal's seqs, sorted once.
        let mut next = Some(0);
        for d in &committed.decode {
            let proposed_slot = match next {
                Some(from) => match proposed.decode[from..].iter().position(|p| p.seq == d.seq) {
                    Some(k) => {
                        next = Some(from + k + 1);
                        true
                    }
                    None => {
                        next = None;
                        self.proposed_decode.clear();
                        self.proposed_decode.extend(proposed.decode.iter().map(|p| p.seq));
                        self.proposed_decode.sort_unstable();
                        self.proposed_decode.binary_search(&d.seq).is_ok()
                    }
                },
                None => self.proposed_decode.binary_search(&d.seq).is_ok(),
            };
            if !proposed_slot {
                self.violate(
                    t_s,
                    Some(batch),
                    Invariant::BudgetConformance,
                    format!("admission invented a decode slot for seq {}", d.seq),
                );
            }
        }
    }

    /// (5) FCFS: chunks within a plan follow arrival order, and a sequence
    /// never starts while an earlier arrival waits unstarted.
    fn check_fcfs(&mut self, t_s: f64, batch: u64, committed: &BatchPlan) {
        let mut prev_idx: Option<usize> = None;
        for c in &committed.prefill {
            let Some(&idx) = self.arrival_idx.get(&c.seq) else { continue };
            if let Some(p) = prev_idx {
                if idx < p {
                    self.violate(
                        t_s,
                        Some(batch),
                        Invariant::FcfsAdmission,
                        format!("prefill chunks out of arrival order (seq {} after a later arrival)", c.seq),
                    );
                }
            }
            prev_idx = Some(idx);
            // First-ever chunk: every earlier live arrival must have started.
            if self.unstarted.remove(&idx).is_some() && self.unstarted.range(..idx).next().is_some() {
                let mut skipped: Vec<u64> = self.unstarted.range(..idx).map(|(_, &id)| id).collect();
                skipped.sort_unstable();
                self.violate(
                    t_s,
                    Some(batch),
                    Invariant::FcfsAdmission,
                    format!("seq {} started before earlier unstarted arrivals {:?}", c.seq, skipped),
                );
            }
        }
    }

    /// (1) Shadow allocations vs. observed occupancy, block-granular.
    fn check_kv(&mut self, t_s: f64, batch: Option<u64>, obs: KvObservation) {
        let shadow_used = self.shadow_blocks;
        if shadow_used != obs.used_blocks || self.total_blocks.checked_sub(shadow_used) != Some(obs.free_blocks) {
            self.violate(
                t_s,
                batch,
                Invariant::KvAccounting,
                format!(
                    "shadow accounting says {}/{} blocks used, manager reports {} used / {} free",
                    shadow_used, self.total_blocks, obs.used_blocks, obs.free_blocks
                ),
            );
        }
    }

    fn violate(&mut self, t_s: f64, batch: Option<u64>, invariant: Invariant, detail: String) {
        self.violations.push(Violation { t_s, batch, invariant, detail });
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True while no invariant has been broken.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Current shadow-state digest.
    pub fn snapshot(&self) -> AuditSnapshot {
        AuditSnapshot {
            t_s: self.last_t,
            batches_checked: self.batches_checked,
            in_flight: self.in_flight,
            depth: self.depth,
            live_kv_seqs: self.ctx.len(),
            shadow_used_blocks: self.shadow_blocks,
            total_blocks: self.total_blocks,
            violations: self.violations.len(),
            faults_injected: self.faults_injected,
            recoveries: self.recoveries,
            batches_requeued: self.batches_requeued,
            requests_failed: self.requests_failed,
        }
    }

    /// Consume the auditor into the final report. When the engine drained
    /// cleanly, also verifies nothing leaked: no live shadow allocations
    /// and nothing in flight.
    pub fn into_report(self, drained: bool) -> AuditReport {
        let mut this = self;
        if drained {
            if !this.ctx.is_empty() {
                let leaked: Vec<u64> = this.ctx.keys().copied().collect();
                let t = this.last_t;
                this.violate(
                    t,
                    None,
                    Invariant::KvAccounting,
                    format!("drained run left shadow KV for seqs {leaked:?}"),
                );
            }
            if this.in_flight != 0 {
                let (t, n) = (this.last_t, this.in_flight);
                this.violate(
                    t,
                    None,
                    Invariant::PipelineDepth,
                    format!("drained run left {n} batches in flight"),
                );
            }
        }
        let final_snapshot = this.snapshot();
        AuditReport {
            violations: this.violations,
            batches_checked: this.batches_checked,
            final_snapshot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gllm_core::{BatchPlan, DecodeSlot, PrefillChunk};
    use std::collections::BTreeSet;

    fn chunk(seq: u64, tokens: usize, context_before: usize, completes: bool) -> PrefillChunk {
        PrefillChunk {
            seq,
            tokens: Tokens(tokens),
            context_before: Tokens(context_before),
            completes_prompt: completes,
        }
    }

    fn slot(seq: u64, context_before: usize) -> DecodeSlot {
        DecodeSlot { seq, context_before: Tokens(context_before) }
    }

    fn obs(free: usize, used: usize) -> KvObservation {
        KvObservation { free_blocks: Blocks(free), used_blocks: Blocks(used) }
    }

    fn auditor(total_blocks: usize, block_size: usize, depth: usize) -> InvariantAuditor {
        InvariantAuditor::new(Blocks(total_blocks), Tokens(block_size), depth)
    }

    #[test]
    fn blocks_to_append_rounds_like_the_page_table() {
        let bs = Tokens(16);
        assert_eq!(blocks_to_append(Tokens(0), Tokens(1), bs), Blocks(1));
        assert_eq!(blocks_to_append(Tokens(0), Tokens(16), bs), Blocks(1));
        assert_eq!(blocks_to_append(Tokens(0), Tokens(17), bs), Blocks(2));
        assert_eq!(blocks_to_append(Tokens(15), Tokens(1), bs), Blocks(0));
        assert_eq!(blocks_to_append(Tokens(16), Tokens(1), bs), Blocks(1));
        assert_eq!(blocks_to_append(Tokens(20), Tokens(12), bs), Blocks(0));
        assert_eq!(blocks_to_append(Tokens(20), Tokens(13), bs), Blocks(1));
    }

    #[test]
    fn clean_schedule_and_complete_pass() {
        let mut a = auditor(8, 16, 2);
        a.on_arrival(1);
        let plan = BatchPlan { prefill: vec![chunk(1, 20, 0, true)], decode: vec![] };
        a.on_schedule(0.0, 0, &plan, &plan, None, obs(8, 0), obs(6, 2));
        let decode = BatchPlan { prefill: vec![], decode: vec![slot(1, 20)] };
        a.on_complete(0.1, 0, &[], obs(6, 2));
        a.on_schedule(0.2, 1, &decode, &decode, None, obs(6, 2), obs(6, 2));
        a.on_complete(0.3, 1, &[1], obs(8, 0));
        assert!(a.is_clean(), "{:?}", a.violations());
        assert!(a.into_report(true).is_clean());
    }

    #[test]
    fn token_granular_decode_reserve_trips_overcommit() {
        // The pre-fix TokenThrottle bug: 4 decodes at full blocks need 4
        // new blocks, but the policy reserved 4 *tokens* and carved a
        // 63-token prefill into 5 free blocks.
        let mut a = auditor(24, 16, 4);
        for s in 0..5 {
            a.on_arrival(s);
        }
        let proposed = BatchPlan {
            prefill: vec![chunk(4, 63, 0, false)],
            decode: (0..4).map(|s| slot(s, 64)).collect(),
        };
        // Admission trimmed the chunk to what actually fits — the proposal
        // is still wrong.
        let committed = BatchPlan {
            prefill: vec![chunk(4, 16, 0, false)],
            decode: (0..4).map(|s| slot(s, 64)).collect(),
        };
        for s in 0..4 {
            // Shadow contexts: 4 decodes already hold 64 tokens each.
            a.grow(s, Tokens(64));
            a.unstarted.remove(&a.arrival_idx[&s]);
        }
        a.on_schedule(1.0, 0, &proposed, &committed, None, obs(5, 19), obs(0, 24));
        assert!(
            a.violations().iter().any(|v| v.invariant == Invariant::KvOvercommit),
            "{:?}",
            a.violations()
        );
    }

    #[test]
    fn depth_overflow_is_reported() {
        let mut a = auditor(64, 16, 1);
        a.on_arrival(1);
        a.on_arrival(2);
        let p1 = BatchPlan { prefill: vec![chunk(1, 8, 0, true)], decode: vec![] };
        let p2 = BatchPlan { prefill: vec![chunk(2, 8, 0, true)], decode: vec![] };
        a.on_schedule(0.0, 0, &p1, &p1, None, obs(64, 0), obs(63, 1));
        a.on_schedule(0.1, 1, &p2, &p2, None, obs(63, 1), obs(62, 2));
        assert!(a.violations().iter().any(|v| v.invariant == Invariant::PipelineDepth));
    }

    #[test]
    fn budget_conformance_catches_over_budget_and_grown_plans() {
        let mut a = auditor(64, 16, 4);
        a.on_arrival(1);
        let proposed = BatchPlan { prefill: vec![chunk(1, 100, 0, false)], decode: vec![] };
        let committed = proposed.clone();
        a.on_schedule(
            0.0,
            0,
            &proposed,
            &committed,
            Some(PlanCaps { prefill_tokens: Tokens(50), decode_seqs: 0 }),
            obs(64, 0),
            obs(57, 7),
        );
        assert!(a.violations().iter().any(|v| v.invariant == Invariant::BudgetConformance));

        let mut b = auditor(64, 16, 4);
        b.on_arrival(1);
        let grown = BatchPlan { prefill: vec![chunk(1, 120, 0, false)], decode: vec![] };
        b.on_schedule(0.0, 0, &proposed, &grown, None, obs(64, 0), obs(56, 8));
        assert!(b.violations().iter().any(|v| v.invariant == Invariant::BudgetConformance));
    }

    #[test]
    fn fcfs_inversion_is_reported() {
        let mut a = auditor(64, 16, 4);
        a.on_arrival(1); // earlier arrival, never started
        a.on_arrival(2);
        let plan = BatchPlan { prefill: vec![chunk(2, 8, 0, true)], decode: vec![] };
        a.on_schedule(0.0, 0, &plan, &plan, None, obs(64, 0), obs(63, 1));
        assert!(a.violations().iter().any(|v| v.invariant == Invariant::FcfsAdmission));
    }

    #[test]
    fn fcfs_allows_restart_after_preemption_and_aborted_heads() {
        let mut a = auditor(64, 16, 4);
        a.on_arrival(1);
        a.on_arrival(2);
        a.on_arrival(3);
        a.on_abort(1); // head rejected: seq 2 may start
        let p2 = BatchPlan { prefill: vec![chunk(2, 8, 0, false)], decode: vec![] };
        a.on_schedule(0.0, 0, &p2, &p2, None, obs(64, 0), obs(63, 1));
        a.on_complete(0.1, 0, &[], obs(63, 1));
        // Seq 2 is preempted; seq 3 may still start because 2 *started*.
        a.on_evict(2);
        let p3 = BatchPlan { prefill: vec![chunk(3, 8, 0, false)], decode: vec![] };
        a.on_schedule(0.2, 1, &p3, &p3, None, obs(64, 0), obs(63, 1));
        assert!(a.is_clean(), "{:?}", a.violations());
    }

    #[test]
    fn kv_mismatch_is_reported() {
        let mut a = auditor(8, 16, 2);
        a.on_arrival(1);
        let plan = BatchPlan { prefill: vec![chunk(1, 20, 0, true)], decode: vec![] };
        // 20 tokens = 2 blocks, but the "manager" claims only 1 is used.
        a.on_schedule(0.0, 0, &plan, &plan, None, obs(8, 0), obs(7, 1));
        assert!(a.violations().iter().any(|v| v.invariant == Invariant::KvAccounting));
    }

    #[test]
    fn recovery_requeues_in_flight_batches_and_counts() {
        let mut a = auditor(64, 16, 4);
        a.on_arrival(1);
        a.on_arrival(2);
        let p1 = BatchPlan { prefill: vec![chunk(1, 8, 0, true)], decode: vec![] };
        let p2 = BatchPlan { prefill: vec![chunk(2, 8, 0, true)], decode: vec![] };
        a.on_schedule(0.0, 0, &p1, &p1, None, obs(64, 0), obs(63, 1));
        a.on_schedule(0.1, 1, &p2, &p2, None, obs(63, 1), obs(62, 2));
        // The pipeline dies with both batches in flight: the driver evicts
        // all KV, rolls both back and respawns.
        a.on_fault(0.2);
        a.on_evict(1);
        a.on_evict(2);
        a.on_recovery(0.2, 2);
        let s = a.snapshot();
        assert_eq!(s.in_flight, 0, "requeued batches leave the in-flight count");
        assert_eq!(s.faults_injected, 1);
        assert_eq!(s.recoveries, 1);
        assert_eq!(s.batches_requeued, 2);
        assert_eq!(s.live_kv_seqs, 0);
        // The recomputed schedule passes the KV cross-check from zero.
        a.on_schedule(0.3, 2, &p1, &p1, None, obs(64, 0), obs(63, 1));
        a.on_complete(0.4, 2, &[1], obs(64, 0));
        assert!(a.is_clean(), "{:?}", a.violations());
        let report = a.into_report(false);
        assert_eq!(report.final_snapshot.recoveries, 1);
        assert_eq!(report.final_snapshot.batches_requeued, 2);
    }

    #[test]
    fn failed_request_leaves_fcfs_and_counts() {
        let mut a = auditor(64, 16, 4);
        a.on_arrival(1);
        a.on_arrival(2);
        a.on_request_failed(0.1, 1);
        assert_eq!(a.snapshot().requests_failed, 1);
        // Seq 2 may now start even though the failed seq 1 never did.
        let p2 = BatchPlan { prefill: vec![chunk(2, 8, 0, true)], decode: vec![] };
        a.on_schedule(0.2, 0, &p2, &p2, None, obs(64, 0), obs(63, 1));
        assert!(a.is_clean(), "{:?}", a.violations());
    }

    #[test]
    fn integrity_failure_is_a_violation() {
        let mut a = auditor(64, 16, 4);
        a.on_integrity_failure(0.5, Some(3), "committed chunk without KV table".to_string());
        assert!(!a.is_clean());
        let v = &a.violations()[0];
        assert_eq!(v.invariant, Invariant::RuntimeIntegrity);
        assert_eq!(v.batch, Some(3));
    }

    #[test]
    fn drained_run_with_leftover_kv_is_a_leak() {
        let mut a = auditor(8, 16, 2);
        a.on_arrival(1);
        let plan = BatchPlan { prefill: vec![chunk(1, 20, 0, true)], decode: vec![] };
        a.on_schedule(0.0, 0, &plan, &plan, None, obs(8, 0), obs(6, 2));
        a.on_complete(0.1, 0, &[], obs(6, 2));
        let report = a.into_report(true);
        assert!(!report.is_clean());
        assert!(report.violations.iter().any(|v| v.detail.contains("leak") || v.detail.contains("left shadow KV")));
    }

    #[test]
    fn finished_requests_leave_no_per_request_state() {
        // Arrive → prefill → decode → finish, plus rejected and failed
        // requests: once all have left, nothing per-request remains.
        const N: u64 = 200;
        let mut a = auditor(64, 16, 4);
        let mut batch = 0;
        for s in 0..N {
            a.on_arrival(s);
            match s % 10 {
                3 => a.on_abort(s),
                7 => a.on_request_failed(s as f64, s),
                _ => {
                    let t = s as f64;
                    let p = BatchPlan { prefill: vec![chunk(s, 20, 0, true)], decode: vec![] };
                    a.on_schedule(t, batch, &p, &p, None, obs(64, 0), obs(62, 2));
                    a.on_complete(t, batch, &[], obs(62, 2));
                    let d = BatchPlan { prefill: vec![], decode: vec![slot(s, 20)] };
                    a.on_schedule(t, batch + 1, &d, &d, None, obs(62, 2), obs(62, 2));
                    a.on_complete(t, batch + 1, &[s], obs(64, 0));
                    batch += 2;
                }
            }
        }
        assert!(a.is_clean(), "{:?}", a.violations());
        assert!(a.arrival_idx.is_empty(), "{:?}", a.arrival_idx);
        assert!(a.unstarted.is_empty(), "{:?}", a.unstarted);
        assert!(a.ctx.is_empty(), "{:?}", a.ctx);
        assert_eq!(a.shadow_blocks, Blocks::ZERO);
        assert_eq!(a.next_arrival, N as usize);
    }

    /// Today's scanning checks, kept as the oracle the incremental
    /// auditor must agree with: FCFS scans every arrival ever seen, KV
    /// re-sums every live context, conformance scans the proposal once
    /// per committed entry, and per-request state is never dropped.
    mod oracle {
        use super::super::*;
        use std::collections::BTreeSet;

        pub struct ScanningAuditor {
            block_size: Tokens,
            total_blocks: Blocks,
            depth: usize,
            in_flight: usize,
            last_t: f64,
            arrival_idx: BTreeMap<u64, usize>,
            next_arrival: usize,
            started: BTreeSet<u64>,
            gone: BTreeSet<u64>,
            ctx: BTreeMap<u64, Tokens>,
            violations: Vec<Violation>,
        }

        impl ScanningAuditor {
            pub fn new(total_blocks: Blocks, block_size: Tokens, depth: usize) -> Self {
                Self {
                    block_size: block_size.max(Tokens(1)),
                    total_blocks,
                    depth: depth.max(1),
                    in_flight: 0,
                    last_t: 0.0,
                    arrival_idx: BTreeMap::new(),
                    next_arrival: 0,
                    started: BTreeSet::new(),
                    gone: BTreeSet::new(),
                    ctx: BTreeMap::new(),
                    violations: Vec::new(),
                }
            }

            pub fn on_arrival(&mut self, seq: u64) {
                self.arrival_idx.entry(seq).or_insert_with(|| {
                    let i = self.next_arrival;
                    self.next_arrival += 1;
                    i
                });
            }

            pub fn on_abort(&mut self, seq: u64) {
                self.gone.insert(seq);
            }

            pub fn on_evict(&mut self, seq: u64) {
                self.ctx.remove(&seq);
            }

            pub fn on_fault(&mut self, t_s: f64) {
                self.last_t = t_s;
            }

            pub fn on_recovery(&mut self, t_s: f64, lost_batches: usize) {
                self.last_t = t_s;
                self.in_flight = self.in_flight.saturating_sub(lost_batches);
            }

            pub fn on_request_failed(&mut self, t_s: f64, seq: u64) {
                self.last_t = t_s;
                self.gone.insert(seq);
                self.ctx.remove(&seq);
            }

            pub fn on_integrity_failure(&mut self, t_s: f64, batch: Option<u64>, detail: String) {
                self.violate(t_s, batch, Invariant::RuntimeIntegrity, detail);
            }

            #[allow(clippy::too_many_arguments)]
            pub fn on_schedule(
                &mut self,
                t_s: f64,
                batch: u64,
                proposed: &BatchPlan,
                committed: &BatchPlan,
                caps: Option<PlanCaps>,
                before: KvObservation,
                after: KvObservation,
            ) {
                self.last_t = t_s;
                if self.in_flight >= self.depth {
                    self.violate(
                        t_s,
                        Some(batch),
                        Invariant::PipelineDepth,
                        format!("scheduled with {} batches already in flight (depth {})", self.in_flight, self.depth),
                    );
                }
                self.in_flight += 1;
                self.check_overcommit(t_s, batch, proposed, before);
                self.check_conformance(t_s, batch, proposed, committed, caps);
                self.check_fcfs(t_s, batch, committed);
                for c in &committed.prefill {
                    let cur = self.ctx.get(&c.seq).copied().unwrap_or(Tokens::ZERO);
                    if cur != c.context_before {
                        self.violate(
                            t_s,
                            Some(batch),
                            Invariant::KvAccounting,
                            format!("seq {} prefill chunk claims context {} but shadow holds {}", c.seq, c.context_before, cur),
                        );
                    }
                    self.ctx.insert(c.seq, cur + c.tokens);
                    self.started.insert(c.seq);
                }
                for d in &committed.decode {
                    let cur = self.ctx.get(&d.seq).copied().unwrap_or(Tokens::ZERO);
                    if cur != d.context_before {
                        self.violate(
                            t_s,
                            Some(batch),
                            Invariant::KvAccounting,
                            format!("seq {} decode slot claims context {} but shadow holds {}", d.seq, d.context_before, cur),
                        );
                    }
                    self.ctx.insert(d.seq, cur + Tokens(1));
                }
                self.check_kv(t_s, Some(batch), after);
            }

            pub fn on_complete(&mut self, t_s: f64, batch: u64, finished: &[u64], after: KvObservation) {
                self.last_t = t_s;
                if self.in_flight == 0 {
                    self.violate(
                        t_s,
                        Some(batch),
                        Invariant::PipelineDepth,
                        "batch completed with nothing in flight".to_string(),
                    );
                } else {
                    self.in_flight -= 1;
                }
                for &id in finished {
                    self.gone.insert(id);
                    if self.ctx.remove(&id).is_none() {
                        self.violate(
                            t_s,
                            Some(batch),
                            Invariant::KvAccounting,
                            format!("finished seq {id} held no shadow KV"),
                        );
                    }
                }
                self.check_kv(t_s, Some(batch), after);
            }

            fn check_overcommit(&mut self, t_s: f64, batch: u64, proposed: &BatchPlan, before: KvObservation) {
                let bs = self.block_size;
                let mut left = before.free_blocks;
                let mut decode_exhausted = false;
                for d in &proposed.decode {
                    let need = blocks_to_append(d.context_before, Tokens(1), bs);
                    if need > left {
                        decode_exhausted = true;
                        left = Blocks::ZERO;
                    } else {
                        left -= need;
                    }
                }
                if decode_exhausted {
                    for c in &proposed.prefill {
                        let need = blocks_to_append(c.context_before, c.tokens, bs);
                        if !need.is_zero() {
                            self.violate(
                                t_s,
                                Some(batch),
                                Invariant::KvOvercommit,
                                format!(
                                    "chunk for seq {} needs {} fresh block(s) while decode growth \
                                     alone exceeds {} free blocks",
                                    c.seq, need, before.free_blocks
                                ),
                            );
                            return;
                        }
                    }
                    return;
                }
                for c in &proposed.prefill {
                    let need = blocks_to_append(c.context_before, c.tokens, bs);
                    if need > left {
                        self.violate(
                            t_s,
                            Some(batch),
                            Invariant::KvOvercommit,
                            format!(
                                "proposed plan overcommits KV: chunk for seq {} needs {} blocks with {} left \
                                 ({} free before the batch, block size {})",
                                c.seq, need, left, before.free_blocks, bs
                            ),
                        );
                        return;
                    }
                    left -= need;
                }
            }

            fn check_conformance(
                &mut self,
                t_s: f64,
                batch: u64,
                proposed: &BatchPlan,
                committed: &BatchPlan,
                caps: Option<PlanCaps>,
            ) {
                if let Some(caps) = caps {
                    let p = proposed.prefill_tokens();
                    if p > caps.prefill_tokens {
                        self.violate(
                            t_s,
                            Some(batch),
                            Invariant::BudgetConformance,
                            format!("proposed {} prefill tokens over the policy's budget {}", p, caps.prefill_tokens),
                        );
                    }
                    if proposed.decode.len() > caps.decode_seqs {
                        self.violate(
                            t_s,
                            Some(batch),
                            Invariant::BudgetConformance,
                            format!(
                                "proposed {} decode seqs over the policy's budget {}",
                                proposed.decode.len(),
                                caps.decode_seqs
                            ),
                        );
                    }
                }
                for c in &committed.prefill {
                    match proposed.prefill.iter().find(|p| p.seq == c.seq) {
                        Some(p) if c.tokens <= p.tokens => {}
                        Some(p) => self.violate(
                            t_s,
                            Some(batch),
                            Invariant::BudgetConformance,
                            format!("admission grew seq {}'s chunk from {} to {} tokens", c.seq, p.tokens, c.tokens),
                        ),
                        None => self.violate(
                            t_s,
                            Some(batch),
                            Invariant::BudgetConformance,
                            format!("admission invented a prefill chunk for seq {}", c.seq),
                        ),
                    }
                }
                for d in &committed.decode {
                    if !proposed.decode.iter().any(|p| p.seq == d.seq) {
                        self.violate(
                            t_s,
                            Some(batch),
                            Invariant::BudgetConformance,
                            format!("admission invented a decode slot for seq {}", d.seq),
                        );
                    }
                }
            }

            fn check_fcfs(&mut self, t_s: f64, batch: u64, committed: &BatchPlan) {
                let mut prev_idx: Option<usize> = None;
                for c in &committed.prefill {
                    let Some(&idx) = self.arrival_idx.get(&c.seq) else { continue };
                    if let Some(p) = prev_idx {
                        if idx < p {
                            self.violate(
                                t_s,
                                Some(batch),
                                Invariant::FcfsAdmission,
                                format!("prefill chunks out of arrival order (seq {} after a later arrival)", c.seq),
                            );
                        }
                    }
                    prev_idx = Some(idx);
                    if !self.started.contains(&c.seq) {
                        let skipped: Vec<u64> = self
                            .arrival_idx
                            .iter()
                            .filter(|(id, &i)| i < idx && !self.started.contains(id) && !self.gone.contains(id))
                            .map(|(&id, _)| id)
                            .collect();
                        if !skipped.is_empty() {
                            self.violate(
                                t_s,
                                Some(batch),
                                Invariant::FcfsAdmission,
                                format!("seq {} started before earlier unstarted arrivals {:?}", c.seq, skipped),
                            );
                        }
                        self.started.insert(c.seq);
                    }
                }
            }

            fn check_kv(&mut self, t_s: f64, batch: Option<u64>, obs: KvObservation) {
                let shadow_used = self.shadow_used();
                if shadow_used != obs.used_blocks || self.total_blocks - shadow_used != obs.free_blocks {
                    self.violate(
                        t_s,
                        batch,
                        Invariant::KvAccounting,
                        format!(
                            "shadow accounting says {}/{} blocks used, manager reports {} used / {} free",
                            shadow_used, self.total_blocks, obs.used_blocks, obs.free_blocks
                        ),
                    );
                }
            }

            fn violate(&mut self, t_s: f64, batch: Option<u64>, invariant: Invariant, detail: String) {
                self.violations.push(Violation { t_s, batch, invariant, detail });
            }

            pub fn shadow_used(&self) -> Blocks {
                self.ctx.values().map(|&c| c.to_blocks(self.block_size)).sum()
            }

            pub fn live_kv_seqs(&self) -> usize {
                self.ctx.len()
            }

            pub fn into_violations(mut self, drained: bool) -> Vec<Violation> {
                if drained {
                    if !self.ctx.is_empty() {
                        let leaked: Vec<u64> = self.ctx.keys().copied().collect();
                        let t = self.last_t;
                        self.violate(
                            t,
                            None,
                            Invariant::KvAccounting,
                            format!("drained run left shadow KV for seqs {leaked:?}"),
                        );
                    }
                    if self.in_flight != 0 {
                        let (t, n) = (self.last_t, self.in_flight);
                        self.violate(t, None, Invariant::PipelineDepth, format!("drained run left {n} batches in flight"));
                    }
                }
                self.violations
            }
        }
    }

    /// One auditor transition, replayable on either implementation.
    #[derive(Debug, Clone)]
    enum Event {
        Arrival(u64),
        Abort(u64),
        Evict(u64),
        Fault(f64),
        Recovery(f64, usize),
        Failed(f64, u64),
        Integrity(f64, u64),
        Schedule {
            t: f64,
            batch: u64,
            proposed: BatchPlan,
            committed: BatchPlan,
            caps: Option<PlanCaps>,
            before: KvObservation,
            after: KvObservation,
        },
        Complete {
            t: f64,
            batch: u64,
            finished: Vec<u64>,
            after: KvObservation,
        },
    }

    macro_rules! replay {
        ($auditor:expr, $events:expr) => {
            for e in $events {
                match e.clone() {
                    Event::Arrival(s) => $auditor.on_arrival(s),
                    Event::Abort(s) => $auditor.on_abort(s),
                    Event::Evict(s) => $auditor.on_evict(s),
                    Event::Fault(t) => $auditor.on_fault(t),
                    Event::Recovery(t, lost) => $auditor.on_recovery(t, lost),
                    Event::Failed(t, s) => $auditor.on_request_failed(t, s),
                    Event::Integrity(t, b) => $auditor.on_integrity_failure(t, Some(b), "integrity".into()),
                    Event::Schedule { t, batch, proposed, committed, caps, before, after } => {
                        $auditor.on_schedule(t, batch, &proposed, &committed, caps, before, after)
                    }
                    Event::Complete { t, batch, finished, after } => {
                        $auditor.on_complete(t, batch, &finished, after)
                    }
                }
            }
        };
    }

    const GEN_BLOCK: usize = 16;
    // Large enough that shadow allocations never exceed the pool, which
    // the oracle's unchecked subtraction requires.
    const GEN_TOTAL: usize = 1 << 14;

    /// A seeded stream that honours the planes' id contract (ids are never
    /// reused once a request has left) but otherwise misbehaves: duplicate
    /// arrivals, aborts of ids that never arrive, shuffled, trimmed,
    /// invented, grown and over-budget plans, stale contexts, wrong KV
    /// observations, completions with nothing in flight, evictions,
    /// failures and recoveries.
    struct EventGen {
        rng: proptest::test_runner::TestRng,
        t: f64,
        next_id: u64,
        next_batch: u64,
        /// Live request ids, in arrival order.
        live: Vec<u64>,
        /// The "KV manager": committed tokens per sequence.
        kv: BTreeMap<u64, usize>,
        in_flight: usize,
        events: Vec<Event>,
    }

    impl EventGen {
        fn new(seed: u64) -> Self {
            Self {
                rng: proptest::test_runner::TestRng::from_name(&format!("audit-events-{seed}")),
                t: 0.0,
                next_id: 0,
                next_batch: 0,
                live: Vec::new(),
                kv: BTreeMap::new(),
                in_flight: 0,
                events: Vec::new(),
            }
        }

        fn one_in(&mut self, n: u64) -> bool {
            self.rng.below(n) == 0
        }

        fn pick_live(&mut self) -> Option<u64> {
            (!self.live.is_empty()).then(|| self.live[self.rng.below(self.live.len() as u64) as usize])
        }

        fn leave(&mut self, seq: u64) {
            self.live.retain(|&s| s != seq);
        }

        fn obs(&mut self) -> KvObservation {
            let mut used: usize = self.kv.values().map(|c| c.div_ceil(GEN_BLOCK)).sum();
            if self.one_in(25) {
                used += 1;
            }
            obs(GEN_TOTAL - used, used)
        }

        fn context_of(&mut self, seq: u64) -> Tokens {
            let c = self.kv.get(&seq).copied().unwrap_or(0);
            Tokens(if self.one_in(20) { c + 1 + self.rng.below(4) as usize } else { c })
        }

        fn schedule(&mut self) {
            let mut picks = Vec::new();
            if !self.live.is_empty() {
                for _ in 0..self.rng.below(4) {
                    picks.push(self.rng.below(self.live.len() as u64) as usize);
                }
            }
            // Arrival order, unless the plan is deliberately inverted.
            picks.sort_unstable();
            if self.one_in(6) {
                picks.reverse();
            }
            let mut proposed = BatchPlan::default();
            for i in picks {
                let seq = self.live[i];
                let tokens = 1 + self.rng.below(40) as usize;
                let context_before = self.context_of(seq);
                let completes = self.one_in(3);
                proposed.prefill.push(chunk(seq, tokens, context_before.get(), completes));
            }
            for _ in 0..self.rng.below(5) {
                if let Some(seq) = self.pick_live() {
                    let context_before = self.context_of(seq);
                    proposed.decode.push(slot(seq, context_before.get()));
                }
            }
            let mut committed = BatchPlan::default();
            for c in &proposed.prefill {
                if self.one_in(4) {
                    continue;
                }
                let mut c = *c;
                if self.one_in(4) {
                    c.tokens = Tokens(1 + self.rng.below(c.tokens.get() as u64) as usize);
                } else if self.one_in(12) {
                    c.tokens += Tokens(1 + self.rng.below(8) as usize);
                }
                committed.prefill.push(c);
            }
            for d in &proposed.decode {
                if !self.one_in(5) {
                    committed.decode.push(*d);
                }
            }
            if self.one_in(8) {
                committed.decode.reverse();
            }
            if self.one_in(12) {
                if let Some(seq) = self.pick_live() {
                    let context_before = self.context_of(seq);
                    committed.prefill.push(chunk(seq, 1 + self.rng.below(16) as usize, context_before.get(), false));
                }
            }
            if self.one_in(12) {
                if let Some(seq) = self.pick_live() {
                    let context_before = self.context_of(seq);
                    committed.decode.push(slot(seq, context_before.get()));
                }
            }
            let caps = (!self.one_in(3)).then(|| PlanCaps {
                prefill_tokens: Tokens((proposed.prefill_tokens().get() + self.rng.below(20) as usize).saturating_sub(8)),
                decode_seqs: (proposed.decode.len() + self.rng.below(4) as usize).saturating_sub(1),
            });
            let before = if self.one_in(4) {
                let free = self.rng.below(6) as usize;
                obs(free, GEN_TOTAL - free)
            } else {
                self.obs()
            };
            for c in &committed.prefill {
                *self.kv.entry(c.seq).or_insert(0) += c.tokens.get();
            }
            for d in &committed.decode {
                *self.kv.entry(d.seq).or_insert(0) += 1;
            }
            let after = self.obs();
            let batch = self.next_batch;
            self.next_batch += 1;
            self.in_flight += 1;
            self.events.push(Event::Schedule { t: self.t, batch, proposed, committed, caps, before, after });
        }

        fn complete(&mut self) {
            let batch = self.next_batch.saturating_sub(1 + self.in_flight as u64);
            self.in_flight = self.in_flight.saturating_sub(1);
            let mut finished = Vec::new();
            for _ in 0..self.rng.below(3) {
                let Some(seq) = self.pick_live() else { break };
                // Usually a sequence that holds KV; sometimes one that does not.
                if (self.kv.contains_key(&seq) || self.one_in(4)) && !finished.contains(&seq) {
                    finished.push(seq);
                    self.kv.remove(&seq);
                    self.leave(seq);
                }
            }
            let after = self.obs();
            self.events.push(Event::Complete { t: self.t, batch, finished, after });
        }

        fn step(&mut self) {
            self.t += 0.01;
            match self.rng.below(16) {
                0..=2 => {
                    let seq = self.next_id;
                    self.next_id += 1;
                    self.live.push(seq);
                    self.events.push(Event::Arrival(seq));
                }
                3 => {
                    if let Some(seq) = self.pick_live() {
                        self.events.push(Event::Arrival(seq));
                    }
                }
                4 => {
                    if self.one_in(2) {
                        // Rejected before it ever arrived; the id is never used again.
                        let seq = self.next_id;
                        self.next_id += 1;
                        self.events.push(Event::Abort(seq));
                    } else if let Some(seq) = self.pick_live() {
                        self.leave(seq);
                        self.events.push(Event::Abort(seq));
                    }
                }
                5..=8 => self.schedule(),
                9..=11 => self.complete(),
                12 => {
                    if let Some(seq) = self.pick_live() {
                        self.kv.remove(&seq);
                        self.events.push(Event::Evict(seq));
                    }
                }
                13 => {
                    if let Some(seq) = self.pick_live() {
                        self.kv.remove(&seq);
                        self.leave(seq);
                        self.events.push(Event::Failed(self.t, seq));
                    }
                }
                14 => {
                    self.events.push(Event::Fault(self.t));
                    if self.one_in(2) {
                        let live: Vec<u64> = self.kv.keys().copied().collect();
                        for seq in live {
                            self.kv.remove(&seq);
                            self.events.push(Event::Evict(seq));
                        }
                        let lost = self.rng.below(self.in_flight as u64 + 2) as usize;
                        self.in_flight = self.in_flight.saturating_sub(lost);
                        self.events.push(Event::Recovery(self.t, lost));
                    }
                }
                _ => {
                    if self.one_in(4) {
                        self.events.push(Event::Integrity(self.t, self.next_batch));
                    } else {
                        self.schedule();
                    }
                }
            }
        }
    }

    /// A seeded event stream and whether the run drained.
    fn event_stream(seed: u64) -> (Vec<Event>, bool) {
        let mut g = EventGen::new(seed);
        let n = 20 + g.rng.below(300);
        for _ in 0..n {
            g.step();
        }
        let drained = g.one_in(2);
        (g.events, drained)
    }

    /// Sequence ids a violation names: after "seq " and inside `[...]`.
    fn named_seqs(detail: &str) -> BTreeSet<u64> {
        let mut out = BTreeSet::new();
        let number = |s: &str| s.chars().take_while(char::is_ascii_digit).collect::<String>().parse::<u64>().ok();
        for (i, _) in detail.match_indices("seq ") {
            out.extend(number(&detail[i + 4..]));
        }
        for (i, _) in detail.match_indices('[') {
            let list = &detail[i + 1..];
            let list = &list[..list.find(']').unwrap_or(list.len())];
            out.extend(list.split(", ").filter_map(number));
        }
        out
    }

    fn keys(vs: &[Violation]) -> Vec<(Invariant, Option<u64>, BTreeSet<u64>)> {
        vs.iter().map(|v| (v.invariant, v.batch, named_seqs(&v.detail))).collect()
    }

    /// Replay one stream on both auditors and compare.
    fn differential(seed: u64) -> Vec<Violation> {
        let (events, drained) = event_stream(seed);
        let mut fast = auditor(GEN_TOTAL, GEN_BLOCK, 4);
        let mut scan = oracle::ScanningAuditor::new(Blocks(GEN_TOTAL), Tokens(GEN_BLOCK), 4);
        replay!(fast, &events);
        replay!(scan, &events);
        let snap = fast.snapshot();
        assert_eq!(snap.shadow_used_blocks, scan.shadow_used(), "seed {seed}");
        assert_eq!(snap.live_kv_seqs, scan.live_kv_seqs(), "seed {seed}");
        let got = fast.into_report(drained).violations;
        let want = scan.into_violations(drained);
        assert_eq!(keys(&got), keys(&want), "seed {seed}");
        got
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        #[test]
        fn incremental_auditor_matches_scanning_oracle(seed in 0u64..u64::MAX) {
            differential(seed);
        }
    }

    #[test]
    fn differential_streams_exercise_every_invariant() {
        let mut seen = BTreeSet::new();
        for seed in 0..64 {
            for v in differential(seed) {
                seen.insert(format!("{:?}", v.invariant));
            }
        }
        for inv in ["KvAccounting", "KvOvercommit", "PipelineDepth", "BudgetConformance", "FcfsAdmission", "RuntimeIntegrity"] {
            assert!(seen.contains(inv), "no stream tripped {inv}: {seen:?}");
        }
    }
}
