//! Driving the threaded runtime through its public entry points
//! (`Server::start` / `submit` / `next_event`) from one generator thread.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gllm_core::SchedulePolicy;
use gllm_metrics::TraceEventKind;
use gllm_runtime::driver::DriverOutput;
use gllm_runtime::{GenRequest, RuntimeConfig, Server, StreamEvent};
use gllm_transformer::{CausalLM, SamplingParams};

use crate::spans::{Span, SpanLog};
use crate::workload::BenchRequest;

/// How long the drain waits for the next event before declaring the
/// remaining requests stalled.
const STALL: Duration = Duration::from_secs(20);

/// What became of one sent request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// Still open when the run ended (stalled).
    Open,
    /// All requested tokens arrived.
    Done,
    /// The runtime refused it or failed it (or it was never submitted).
    Failed,
}

/// One request's observed stream.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Tokens received.
    pub tokens: Vec<u32>,
    /// First token, seconds from the window start.
    pub first_s: Option<f64>,
    /// Last token, seconds from the window start.
    pub last_s: Option<f64>,
    /// Final state.
    pub status: Status,
}

/// Everything one open-loop window observed.
#[derive(Debug, Clone)]
pub struct WindowResult {
    /// Requests in the window, in send order.
    pub reqs: Vec<BenchRequest>,
    /// Outcome per request (same order).
    pub outcomes: Vec<Outcome>,
    /// Generator lag per request: actual minus scheduled send, seconds.
    pub lag_s: Vec<f64>,
    /// From the window start to the last event, seconds.
    pub makespan_s: f64,
}

impl WindowResult {
    /// TTFT per completed request, from its scheduled send time, ms.
    pub fn ttft_ms(&self) -> Vec<f64> {
        self.done()
            .filter_map(|(r, o)| o.first_s.map(|f| (f - r.send_s) * 1e3))
            .collect()
    }

    /// Time per output token per completed request, ms.
    pub fn tpot_ms(&self) -> Vec<f64> {
        self.done()
            .filter(|(_, o)| o.tokens.len() >= 2)
            .filter_map(|(_, o)| Some((o.last_s? - o.first_s?) * 1e3 / (o.tokens.len() - 1) as f64))
            .collect()
    }

    /// Requests that did not complete (failed, rejected or stalled).
    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status != Status::Done)
            .count()
    }

    /// Share of sent requests meeting both limits; anything that did not
    /// complete is a miss.
    pub fn slo_attainment(&self, ttft_ms: f64, tpot_ms: f64) -> f64 {
        slo_attainment(&self.reqs, &self.outcomes, ttft_ms, tpot_ms)
    }

    /// Prompt plus output tokens of completed requests.
    pub fn tokens(&self) -> usize {
        self.done()
            .map(|(r, o)| r.prompt.len() + o.tokens.len())
            .sum()
    }

    /// [`WindowResult::tokens`] over the makespan.
    pub fn total_tok_per_s(&self) -> f64 {
        self.tokens() as f64 / self.makespan_s.max(f64::MIN_POSITIVE)
    }

    fn done(&self) -> impl Iterator<Item = (&BenchRequest, &Outcome)> {
        self.reqs
            .iter()
            .zip(&self.outcomes)
            .filter(|(_, o)| o.status == Status::Done)
    }
}

/// Share of `reqs` that completed within both limits.
pub fn slo_attainment(
    reqs: &[BenchRequest],
    outcomes: &[Outcome],
    ttft_ms: f64,
    tpot_ms: f64,
) -> f64 {
    if reqs.is_empty() {
        return 0.0;
    }
    let met = reqs
        .iter()
        .zip(outcomes)
        .filter(|(r, o)| {
            let (Status::Done, Some(first), Some(last)) = (&o.status, o.first_s, o.last_s) else {
                return false;
            };
            let tpot = if o.tokens.len() >= 2 {
                (last - first) * 1e3 / (o.tokens.len() - 1) as f64
            } else {
                0.0
            };
            (first - r.send_s) * 1e3 <= ttft_ms && tpot <= tpot_ms
        })
        .count();
    met as f64 / reqs.len() as f64
}

/// The runtime configuration both runtime workloads serve with:
/// `gllm serve`'s default (tiny model, Token Throttling) at `kv_blocks`.
pub fn runtime_config(stages: usize, kv_blocks: usize) -> RuntimeConfig {
    RuntimeConfig {
        kv_blocks,
        ..RuntimeConfig::tiny(stages)
    }
}

/// The request a stream event belongs to.
fn seq_of(ev: &StreamEvent) -> u64 {
    match *ev {
        StreamEvent::Token { seq, .. }
        | StreamEvent::Rejected { seq }
        | StreamEvent::Failed { seq } => seq,
    }
}

fn gen_request(id: u64, r: &BenchRequest) -> GenRequest {
    GenRequest {
        id,
        prompt: r.prompt.clone(),
        max_new: r.max_new,
        params: SamplingParams::greedy(),
    }
}

/// Start a server and warm it up with `warmup` (ids far above any window's).
pub fn start_warm(
    cfg: RuntimeConfig,
    policy: Arc<dyn SchedulePolicy>,
    warmup: &[BenchRequest],
) -> Server {
    let server = Server::start(cfg, policy).expect("the benchmark's runtime config is valid");
    let reqs = warmup
        .iter()
        .enumerate()
        .map(|(i, r)| gen_request((1 << 40) + i as u64, r))
        .collect();
    server.generate_all(reqs).expect("warm-up stalled");
    server
}

/// Send `reqs` open loop (each at its `send_s`, ids `base_id + index`) from
/// this thread, receive every stream event, and drain. With `spans`, every
/// `submit` and `next_event` call is recorded under a window span.
pub fn run_window(
    server: &Server,
    reqs: &[BenchRequest],
    base_id: u64,
    mut spans: Option<&mut SpanLog>,
) -> WindowResult {
    let mut pending: Vec<Option<GenRequest>> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| Some(gen_request(base_id + i as u64, r)))
        .collect();
    let mut outcomes = vec![
        Outcome {
            tokens: Vec::new(),
            first_s: None,
            last_s: None,
            status: Status::Open
        };
        reqs.len()
    ];
    let mut lag_s = Vec::with_capacity(reqs.len());
    let mut open = 0usize;
    let root = spans
        .as_deref_mut()
        .map(|s| s.open("loadgen.window", None, None, 0));
    let t0 = Instant::now();
    let mut last_event_s = 0.0f64;

    let mut on_event =
        |ev: StreamEvent, outcomes: &mut Vec<Outcome>, open: &mut usize, now: f64| {
            let Some(o) = seq_of(&ev)
                .checked_sub(base_id)
                .and_then(|i| outcomes.get_mut(i as usize))
            else {
                return;
            };
            match ev {
                StreamEvent::Token {
                    token, finished, ..
                } => {
                    o.tokens.push(token);
                    o.first_s.get_or_insert(now);
                    o.last_s = Some(now);
                    if finished {
                        o.status = Status::Done;
                        *open -= 1;
                    }
                }
                StreamEvent::Rejected { .. } | StreamEvent::Failed { .. } => {
                    o.tokens.clear();
                    o.status = Status::Failed;
                    *open -= 1;
                }
            }
            last_event_s = now;
        };

    // One call into the runtime's event stream, timed when tracing.
    let next = |spans: &mut Option<&mut SpanLog>, wait: Duration| -> Option<StreamEvent> {
        match spans.as_deref_mut() {
            None => server.next_event(wait),
            Some(log) => {
                let start_ns = log.now_ns();
                let ev = server.next_event(wait);
                let req = ev.as_ref().map(seq_of);
                let end_ns = log.now_ns();
                log.push(Span {
                    name: "runtime.next_event",
                    start_ns,
                    end_ns,
                    parent: root,
                    req,
                    tid: 0,
                });
                ev
            }
        }
    };

    for (i, r) in reqs.iter().enumerate() {
        loop {
            let now = t0.elapsed().as_secs_f64();
            if now >= r.send_s {
                break;
            }
            if let Some(ev) = next(&mut spans, Duration::from_secs_f64(r.send_s - now)) {
                on_event(ev, &mut outcomes, &mut open, t0.elapsed().as_secs_f64());
            }
        }
        lag_s.push(t0.elapsed().as_secs_f64() - r.send_s);
        let Some(req) = pending[i].take() else {
            continue;
        };
        let id = req.id;
        let start_ns = spans.as_deref().map(SpanLog::now_ns);
        let sent = server.submit(req);
        if let (Some(log), Some(start_ns)) = (spans.as_deref_mut(), start_ns) {
            let end_ns = log.now_ns();
            log.push(Span {
                name: "runtime.submit",
                start_ns,
                end_ns,
                parent: root,
                req: Some(id),
                tid: 0,
            });
        }
        match sent {
            Ok(()) => open += 1,
            Err(_) => outcomes[i].status = Status::Failed,
        }
    }
    while open > 0 {
        match next(&mut spans, STALL) {
            Some(ev) => on_event(ev, &mut outcomes, &mut open, t0.elapsed().as_secs_f64()),
            None => break,
        }
    }
    if let (Some(log), Some(root)) = (spans, root) {
        log.close(root);
    }
    WindowResult {
        reqs: reqs.to_vec(),
        outcomes,
        lag_s,
        makespan_s: last_event_s,
    }
}

/// Greedy reference outputs from a single-stage `CausalLM` with the
/// runtime's weights, for the requests at `idx`.
pub fn reference_outputs(
    cfg: &RuntimeConfig,
    reqs: &[BenchRequest],
    idx: &[usize],
) -> Vec<Vec<u32>> {
    let mut lm = CausalLM::new(
        cfg.model.clone(),
        1,
        cfg.kv_blocks,
        cfg.block_size,
        cfg.seed,
    );
    idx.iter()
        .map(|&i| {
            let r = &reqs[i];
            let out = lm
                .generate(
                    i as u64,
                    &r.prompt,
                    r.max_new,
                    r.prompt.len(),
                    &SamplingParams::greedy(),
                )
                .expect("reference request fits the KV cache");
            lm.release(i as u64).expect("reference sequence is live");
            out
        })
        .collect()
}

/// Output check: every completed request produced exactly `max_new`
/// tokens, and the sampled ones equal the reference. Returns mismatches.
pub fn check_outputs(w: &WindowResult, idx: &[usize], reference: &[Vec<u32>]) -> Vec<String> {
    let mut bad = Vec::new();
    for (i, (r, o)) in w.reqs.iter().zip(&w.outcomes).enumerate() {
        if o.status == Status::Done && o.tokens.len() != r.max_new {
            bad.push(format!(
                "request {i}: {} tokens, wanted {}",
                o.tokens.len(),
                r.max_new
            ));
        }
    }
    for (&i, want) in idx.iter().zip(reference) {
        let o = &w.outcomes[i];
        if o.status == Status::Done && &o.tokens != want {
            bad.push(format!(
                "request {i}: tokens differ from the single-stage reference"
            ));
        }
    }
    bad
}

/// Per-batch facts from the runtime's own pipeline trace.
#[derive(Debug, Clone, Default)]
pub struct BatchFacts {
    /// Schedule → Complete, µs.
    pub rtt_us: Vec<f64>,
    /// Stage-0 compute span, µs.
    pub stage0_us: Vec<f64>,
    /// Prefill tokens per batch.
    pub prefill_tokens: Vec<usize>,
    /// Decode tokens per batch.
    pub decode_tokens: Vec<usize>,
    /// First Schedule to last Complete, seconds (driver clock).
    pub span_s: f64,
    /// Time-averaged batches in flight over `span_s`.
    pub inflight_mean: f64,
}

/// Reduce the driver's trace to the batches with id ≥ `first_batch`.
pub fn batch_facts(out: &DriverOutput, first_batch: u64) -> BatchFacts {
    use std::collections::BTreeMap;
    let mut sched: BTreeMap<u64, (f64, usize, usize)> = BTreeMap::new();
    let mut stage0: BTreeMap<u64, f64> = BTreeMap::new();
    let mut done: BTreeMap<u64, f64> = BTreeMap::new();
    for e in out.trace.events() {
        match &e.kind {
            TraceEventKind::Schedule {
                batch,
                prefill_tokens,
                decode_tokens,
                ..
            } if *batch >= first_batch => {
                sched.insert(*batch, (e.t_s, *prefill_tokens, *decode_tokens));
            }
            TraceEventKind::Stage {
                batch,
                stage: 0,
                end_s,
            } if *batch >= first_batch => {
                stage0.insert(*batch, end_s - e.t_s);
            }
            TraceEventKind::Complete { batch, .. } if *batch >= first_batch => {
                done.insert(*batch, e.t_s);
            }
            _ => {}
        }
    }
    let mut f = BatchFacts::default();
    let mut edges: Vec<(f64, i32)> = Vec::new();
    for (b, &(t, p, d)) in &sched {
        let Some(&end) = done.get(b) else { continue };
        f.rtt_us.push((end - t) * 1e6);
        f.stage0_us
            .push(stage0.get(b).copied().unwrap_or(0.0) * 1e6);
        f.prefill_tokens.push(p);
        f.decode_tokens.push(d);
        edges.push((t, 1));
        edges.push((end, -1));
    }
    edges.sort_by(|a, b| a.0.total_cmp(&b.0));
    if let (Some(first), Some(last)) = (edges.first(), edges.last()) {
        f.span_s = last.0 - first.0;
        let (mut level, mut area, mut prev) = (0i32, 0.0, first.0);
        for (t, d) in &edges {
            area += level as f64 * (t - prev);
            level += d;
            prev = *t;
        }
        f.inflight_mean = area / f.span_s.max(f64::MIN_POSITIVE);
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(send_s: f64) -> BenchRequest {
        BenchRequest {
            id: 0,
            send_s,
            prompt: vec![1, 2, 3],
            max_new: 3,
        }
    }

    fn outcome(status: Status, first_s: f64, last_s: f64) -> Outcome {
        Outcome {
            tokens: vec![9; 3],
            first_s: Some(first_s),
            last_s: Some(last_s),
            status,
        }
    }

    #[test]
    fn slo_counts_failed_and_stalled_requests_as_misses() {
        let reqs = vec![req(0.0), req(1.0), req(2.0), req(3.0)];
        let outcomes = vec![
            outcome(Status::Done, 0.010, 0.012), // TTFT 10 ms, TPOT 1 ms: met
            outcome(Status::Done, 1.200, 1.202), // TTFT 200 ms: missed
            outcome(Status::Failed, 2.010, 2.012), // failed after streaming: missed
            Outcome {
                tokens: Vec::new(),
                first_s: None,
                last_s: None,
                status: Status::Open,
            },
        ];
        assert_eq!(slo_attainment(&reqs, &outcomes, 50.0, 2.0), 0.25);
        let w = WindowResult {
            reqs,
            outcomes,
            lag_s: vec![0.0; 4],
            makespan_s: 3.0,
        };
        assert_eq!(w.failed(), 2);
        assert_eq!(w.ttft_ms().len(), 2, "only completed requests have a TTFT");
    }
}
