//! The repository benchmark: three seeded workloads driven through the
//! public entry points of the threaded runtime and the simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chat_poisson|long_prompt_offline|sim_sweep \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! workload again with a timing wrapper around the scheduler, the
//! runtime's pipeline trace and spans around every runtime call, adds
//! direct timed calls into each layer at the workload's shapes, and
//! reports the per-layer metrics. Human-readable lines come first; the
//! last line of standard output is the JSON result. Any output mismatch
//! exits with code 1.

mod host;
mod layers;
mod policy;
mod report;
mod runtime;
mod sim;
mod spans;
mod stats;
mod workload;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gllm_core::TokenThrottle;
use gllm_runtime::Server;
use gllm_sim::engine::EngineConfig;

use crate::host::CpuTimes;
use crate::layers::TransformerCosts;
use crate::policy::{PlanRecord, TimedPolicy};
use crate::report::Metrics;
use crate::runtime::{
    batch_facts, check_outputs, reference_outputs, run_window, runtime_config, start_warm,
    WindowResult,
};
use crate::spans::{Span, SpanLog};
use crate::stats::median0;
use crate::workload::*;

/// End-to-end metrics every untraced run reports, in `BENCHMARK.json`
/// order. The TTFT and TPOT percentiles are printed on every run but not
/// gated: on `chat_poisson` their run-to-run spread exceeded any bound the
/// benchmark may set, while the SLO attainment over the same limits held.
const END_TO_END: [(&str, &str); 5] = [
    ("slo_attainment", "fraction"),
    ("total_tok_per_s", "tok/s"),
    ("sim_iter_per_s", "iter/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run reports. A layer the workload does
/// not exercise reports 0.
const PER_LAYER: [(&str, &str); 60] = [
    ("core.plan_us_p50", "us"),
    ("core.plan_us_p99", "us"),
    ("core.plans", "count"),
    ("core.batch_tokens_mean", "tok"),
    ("core.batch_tokens_cv", "ratio"),
    ("core.prefill_tokens_mean", "tok"),
    ("core.decode_seqs_mean", "count"),
    ("core.waiting_mean", "count"),
    ("kvcache.used_frac_mean", "fraction"),
    ("kvcache.used_frac_max", "fraction"),
    ("kvcache.preemptions", "count"),
    ("kvcache.append_free_us", "us"),
    ("transformer.prefill_tok_per_s", "tok/s"),
    ("transformer.decode_step_us_b1", "us"),
    ("transformer.decode_step_us_b16", "us"),
    ("transformer.decode_step_us_b64", "us"),
    ("kernels.matvec_ns.64x64", "ns"),
    ("kernels.matvec_ns.32x64", "ns"),
    ("kernels.matvec_ns.128x64", "ns"),
    ("kernels.matvec_ns.64x128", "ns"),
    ("kernels.matvec_ns.256x64", "ns"),
    ("kernels.matvec_flop", "flop"),
    ("kernels.matvec_bytes", "B"),
    ("kernels.matvec_gflop_per_s", "Gflop/s"),
    ("kernels.rmsnorm_ns", "ns"),
    ("kernels.rope_ns", "ns"),
    ("kernels.softmax_ns.64", "ns"),
    ("kernels.softmax_ns.256", "ns"),
    ("kernels.softmax_ns.512", "ns"),
    ("runtime.batches", "count"),
    ("runtime.batches_per_s", "1/s"),
    ("runtime.batch_rtt_us_p50", "us"),
    ("runtime.batch_rtt_us_p99", "us"),
    ("runtime.stage0_busy_frac", "fraction"),
    ("runtime.stage0_us_p50", "us"),
    ("runtime.offstage0_us_p50", "us"),
    ("runtime.inflight_mean", "count"),
    ("runtime.pp_speedup", "x"),
    ("runtime.recoveries", "count"),
    ("runtime.requests_failed", "count"),
    ("sim.iters", "count"),
    ("sim.plan_share", "fraction"),
    ("sim.wall_s.sharegpt_ladder", "s"),
    ("sim.wall_s.azure_ablation", "s"),
    ("frontend.req_per_s_2conn", "req/s"),
    ("frontend.ttft_ms_p50", "ms"),
    ("frontend.connect_us_p50", "us"),
    ("frontend.sse_gap_us_p50", "us"),
    ("frontend.sse_gap_us_p99", "us"),
    ("diag.x1_5.ttft_p50_ms", "ms"),
    ("diag.x1_5.ttft_p90_ms", "ms"),
    ("diag.x1_5.tpot_p50_ms", "ms"),
    ("diag.x1_5.completed_frac", "fraction"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.completed", "count"),
    ("host.cores", "count"),
    ("host.steal_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("reconcile.unaccounted_frac", "fraction"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Requests of the workload replayed as warm-up before the window.
const WARMUP_CHAT: usize = 64;
const WARMUP_LONG: usize = 24;
/// Requests checked against the single-stage reference per window.
const REF_SAMPLE_CHAT: usize = 48;
const REF_SAMPLE_LONG: usize = 24;
/// Bursts per `long_prompt_offline` run: 4 × 250 requests put ten samples
/// beyond the pooled p99.
const MIN_BURSTS: usize = 4;
/// Duration of the HTTP probe in traced runs.
const HTTP_PROBE: Duration = Duration::from_secs(3);
/// Reconciliation tolerance on the unaccounted share of batch time.
const RECONCILE_TOLERANCE: (f64, f64) = (-0.25, 0.5);
/// Plan calls written to a span file; the sim makes ~200k per pass.
const MAX_PLAN_SPANS: usize = 50_000;
/// Where traced runs write their span files (inside the working tree).
const OUT_DIR: &str = ".perfbench-out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds = seconds.unwrap_or(30.0);
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be within [1, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload run hands back for the result line.
struct Run {
    metrics: Metrics,
    attempted: usize,
    failed: usize,
    mismatches: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cpu0 = CpuTimes::now();
    let mut run = match (args.workload.as_str(), args.trace) {
        ("chat_poisson", false) => chat(&args),
        ("chat_poisson", true) => chat_traced(&args),
        ("long_prompt_offline", false) => long(&args),
        ("long_prompt_offline", true) => long_traced(&args),
        ("sim_sweep", false) => sweep(&args),
        ("sim_sweep", true) => sweep_traced(&args),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let steal = CpuTimes::now().steal_frac_since(&cpu0);
    println!(
        "host: {} cores, steal {:.4} of CPU time during the run",
        host::cores(),
        steal
    );
    if args.trace {
        run.metrics.add("host.cores", host::cores() as f64, "count");
        run.metrics.add("host.steal_frac", steal, "fraction");
    } else {
        let failed_frac = run.failed as f64 / run.attempted.max(1) as f64;
        run.metrics.add("failed_frac", failed_frac, "fraction");
    }
    println!("sent {}, failed {}", run.attempted, run.failed);
    for m in &run.mismatches {
        println!("MISMATCH: {m}");
    }
    let names: &[(&str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = ordered(&run.metrics, names, args.trace);
    // People see every measured figure; the result line carries exactly
    // the metrics `BENCHMARK.json` names.
    let shown = if args.trace { &metrics } else { &run.metrics };
    shown.print(&format!(
        "{} seed {} ({})",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "end to end" }
    ));
    let correct = run.mismatches.is_empty();
    println!(
        "{}",
        metrics.result_line(correct, run.attempted.max(1), run.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The metrics of `names`, in that order. With `zero_fill`, a per-layer
/// metric the workload did not produce is 0 (the layer did no work in this
/// workload); otherwise a missing metric is a bug.
fn ordered(m: &Metrics, names: &[(&str, &'static str)], zero_fill: bool) -> Metrics {
    let mut out = Metrics::default();
    for (name, unit) in names {
        let v = m.get(name);
        assert!(v.is_some() || zero_fill, "metric {name} missing");
        out.add(name, v.unwrap_or(0.0), unit);
    }
    out
}

/// Run `make` [`SETUP_REPS`] times, keeping the last result; returns it
/// with the median set-up time.
fn timed_setup<T>(mut make: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        // Only one instance is alive at a time, so peak memory does not
        // depend on how set-ups overlap.
        if let Some(old) = kept.take() {
            discard(old);
        }
        let t = Instant::now();
        kept = Some(make());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        kept.expect("at least one set-up"),
        stats::median(&times).unwrap_or(0.0),
    )
}

fn batches_checked(server: &Server) -> u64 {
    server.audit_snapshot().map_or(0, |s| s.batches_checked)
}

fn add_latency(m: &mut Metrics, ttft: &[f64], tpot: &[f64]) {
    m.add("ttft_p50_ms", median0(ttft), "ms");
    m.add_tail("ttft_p99_ms", ttft, 99.0, "ms");
    m.add("tpot_p50_ms", median0(tpot), "ms");
    m.add_tail("tpot_p90_ms", tpot, 90.0, "ms");
    m.add_tail("tpot_p99_ms", tpot, 99.0, "ms");
}

fn audit_mismatches(out: &gllm_runtime::driver::DriverOutput, what: &str) -> Vec<String> {
    match &out.audit {
        Some(a) if a.is_clean() => Vec::new(),
        Some(a) => vec![format!(
            "{what}: {} audit violation(s), first: {:?}",
            a.violations.len(),
            a.violations[0]
        )],
        None => vec![format!("{what}: audit report missing")],
    }
}

// ---------------------------------------------------------------- chat

fn chat(a: &Args) -> Run {
    let n = chat_request_count(CHAT_RATE, a.seconds);
    let cfg = runtime_config(STAGES, CHAT_KV_BLOCKS);
    let ((reqs, server), setup_s) = timed_setup(
        || {
            let reqs = chat_requests(a.seed, CHAT_RATE, n);
            let server = start_warm(
                cfg.clone(),
                Arc::new(TokenThrottle::default()),
                &reqs[..WARMUP_CHAT],
            );
            (reqs, server)
        },
        |(_, s)| drop(s.shutdown_full()),
    );
    let b0 = batches_checked(&server);
    let w = run_window(&server, &reqs, 0, None);
    let batches = batches_checked(&server) - b0;
    let out = server.shutdown_full();

    let idx = sample_indices(n, REF_SAMPLE_CHAT, a.seed);
    let reference = reference_outputs(&cfg, &reqs, &idx);
    let mut mismatches = check_outputs(&w, &idx, &reference);
    mismatches.extend(audit_mismatches(&out, "chat window"));

    let mut m = Metrics::default();
    add_latency(&mut m, &w.ttft_ms(), &w.tpot_ms());
    m.add(
        "slo_attainment",
        w.slo_attainment(CHAT_SLO_TTFT_MS, CHAT_SLO_TPOT_MS),
        "fraction",
    );
    m.add("total_tok_per_s", w.total_tok_per_s(), "tok/s");
    m.add(
        "sim_iter_per_s",
        batches as f64 / w.makespan_s.max(f64::MIN_POSITIVE),
        "iter/s",
    );
    m.add("setup_s", setup_s, "s");
    m.add("peak_rss_mb", host::peak_rss_mb(), "MiB");
    println!(
        "loadgen: {} sent, generator lag p99 {:.3} ms",
        w.reqs.len(),
        stats::percentile(&w.lag_s, 99.0).unwrap_or(0.0) * 1e3
    );
    Run {
        metrics: m,
        attempted: w.reqs.len(),
        failed: w.failed(),
        mismatches,
    }
}

/// The traced chat run: an untraced half window (the overhead baseline),
/// the same half window traced, the 1.5× diagnostic replay, then the
/// layer calls at the chat shapes and the HTTP probe.
fn chat_traced(a: &Args) -> Run {
    let half = ((CHAT_RATE * a.seconds / 2.0).round() as usize).max(WARMUP_CHAT);
    let reqs = chat_requests(a.seed, CHAT_RATE, half);
    let cfg = runtime_config(STAGES, CHAT_KV_BLOCKS);
    let mut m = Metrics::default();

    let server = start_warm(
        cfg.clone(),
        Arc::new(TokenThrottle::default()),
        &reqs[..WARMUP_CHAT],
    );
    let base = run_window(&server, &reqs, 0, None);
    let mut mismatches = audit_mismatches(&server.shutdown_full(), "untraced window");

    let traced = traced_window(&reqs, &cfg, WARMUP_CHAT);
    mismatches.extend(traced.mismatches.iter().cloned());
    let w = &traced.window;
    m.add(
        "trace.overhead_frac",
        median0(&w.ttft_ms()) / median0(&base.ttft_ms()).max(f64::MIN_POSITIVE) - 1.0,
        "fraction",
    );

    let diag_rate = CHAT_RATE * CHAT_DIAG_FACTOR;
    let diag_reqs = chat_requests(
        a.seed,
        diag_rate,
        (diag_rate * a.seconds / 2.0).round() as usize,
    );
    let server = start_warm(
        cfg.clone(),
        Arc::new(TokenThrottle::default()),
        &diag_reqs[..WARMUP_CHAT],
    );
    let d = run_window(&server, &diag_reqs, 0, None);
    mismatches.extend(audit_mismatches(&server.shutdown_full(), "1.5x window"));
    m.add("diag.x1_5.ttft_p50_ms", median0(&d.ttft_ms()), "ms");
    m.add(
        "diag.x1_5.ttft_p90_ms",
        stats::percentile(&d.ttft_ms(), 90.0).unwrap_or(0.0),
        "ms",
    );
    m.add("diag.x1_5.tpot_p50_ms", median0(&d.tpot_ms()), "ms");
    m.add(
        "diag.x1_5.completed_frac",
        1.0 - d.failed() as f64 / d.reqs.len() as f64,
        "fraction",
    );

    let idx = sample_indices(half, REF_SAMPLE_CHAT, a.seed);
    let reference = reference_outputs(&cfg, &reqs, &idx);
    mismatches.extend(check_outputs(&base, &idx, &reference));
    mismatches.extend(check_outputs(w, &idx, &reference));

    runtime_layer_calls(a, &traced, &reqs, &cfg, &reqs, &mut m);
    Run {
        metrics: m,
        attempted: w.reqs.len(),
        failed: w.failed(),
        mismatches,
    }
}

// ---------------------------------------------------------------- long

fn long(a: &Args) -> Run {
    let cfg = runtime_config(STAGES, LONG_KV_BLOCKS);
    let ((reqs, server), setup_s) = timed_setup(
        || {
            let reqs = long_requests(a.seed);
            let server = start_warm(
                cfg.clone(),
                Arc::new(TokenThrottle::default()),
                &reqs[..WARMUP_LONG],
            );
            (reqs, server)
        },
        |(_, s)| drop(s.shutdown_full()),
    );
    let start = Instant::now();
    let b0 = batches_checked(&server);
    let mut bursts: Vec<WindowResult> = Vec::new();
    loop {
        let base = (bursts.len() as u64) << 32;
        let w = run_window(&server, &reqs, base, None);
        let per_burst = start.elapsed().as_secs_f64() / (bursts.len() + 1) as f64;
        bursts.push(w);
        if bursts.len() >= MIN_BURSTS && start.elapsed().as_secs_f64() + per_burst > a.seconds {
            break;
        }
    }
    let batches = batches_checked(&server) - b0;
    let out = server.shutdown_full();

    let idx = sample_indices(reqs.len(), REF_SAMPLE_LONG, a.seed);
    let reference = reference_outputs(&cfg, &reqs, &idx);
    let mut mismatches = audit_mismatches(&out, "bursts");
    for (k, w) in bursts.iter().enumerate() {
        mismatches.extend(check_outputs(w, &idx, &reference));
        for (i, (o, first)) in w.outcomes.iter().zip(&bursts[0].outcomes).enumerate() {
            if o.tokens != first.tokens {
                mismatches.push(format!(
                    "burst {k} request {i}: output differs from burst 0"
                ));
            }
        }
    }

    let mut m = Metrics::default();
    let pooled =
        |f: fn(&WindowResult) -> Vec<f64>| -> Vec<f64> { bursts.iter().flat_map(f).collect() };
    add_latency(
        &mut m,
        &pooled(WindowResult::ttft_ms),
        &pooled(WindowResult::tpot_ms),
    );
    let slo: Vec<f64> = bursts
        .iter()
        .map(|w| w.slo_attainment(LONG_SLO_TTFT_MS, LONG_SLO_TPOT_MS))
        .collect();
    m.add("slo_attainment", stats::mean(&slo), "fraction");
    // Totals over totals rather than a median of bursts: host speed drifts
    // on a scale of seconds, and the mean over the window averages it out.
    let busy: f64 = bursts.iter().map(|w| w.makespan_s).sum();
    let tokens: usize = bursts.iter().map(WindowResult::tokens).sum();
    m.add(
        "total_tok_per_s",
        tokens as f64 / busy.max(f64::MIN_POSITIVE),
        "tok/s",
    );
    m.add(
        "sim_iter_per_s",
        batches as f64 / busy.max(f64::MIN_POSITIVE),
        "iter/s",
    );
    m.add("setup_s", setup_s, "s");
    m.add("peak_rss_mb", host::peak_rss_mb(), "MiB");
    println!(
        "bursts: {} × {} requests, makespans {:?} s",
        bursts.len(),
        reqs.len(),
        bursts.iter().map(|w| w.makespan_s).collect::<Vec<_>>()
    );
    let failed = bursts.iter().map(WindowResult::failed).sum();
    Run {
        metrics: m,
        attempted: bursts.len() * reqs.len(),
        failed,
        mismatches,
    }
}

/// The traced long run: an untraced burst (overhead baseline and 2-stage
/// throughput), the same burst traced, a 1-stage burst for the pipeline
/// speed-up, then the layer calls at the long shapes and the HTTP probe.
fn long_traced(a: &Args) -> Run {
    let reqs = long_requests(a.seed);
    let cfg = runtime_config(STAGES, LONG_KV_BLOCKS);
    let mut m = Metrics::default();

    let server = start_warm(
        cfg.clone(),
        Arc::new(TokenThrottle::default()),
        &reqs[..WARMUP_LONG],
    );
    let base = run_window(&server, &reqs, 0, None);
    let mut mismatches = audit_mismatches(&server.shutdown_full(), "untraced burst");

    let traced = traced_window(&reqs, &cfg, WARMUP_LONG);
    mismatches.extend(traced.mismatches.iter().cloned());
    let w = &traced.window;
    m.add(
        "trace.overhead_frac",
        w.makespan_s / base.makespan_s.max(f64::MIN_POSITIVE) - 1.0,
        "fraction",
    );

    let one = runtime_config(1, LONG_KV_BLOCKS);
    let server = start_warm(
        one,
        Arc::new(TokenThrottle::default()),
        &reqs[..WARMUP_LONG],
    );
    let single = run_window(&server, &reqs, 0, None);
    mismatches.extend(audit_mismatches(&server.shutdown_full(), "1-stage burst"));
    m.add(
        "runtime.pp_speedup",
        base.total_tok_per_s() / single.total_tok_per_s().max(f64::MIN_POSITIVE),
        "x",
    );

    let idx = sample_indices(reqs.len(), REF_SAMPLE_LONG, a.seed);
    let reference = reference_outputs(&cfg, &reqs, &idx);
    for r in [&base, w, &single] {
        mismatches.extend(check_outputs(r, &idx, &reference));
    }

    let http = chat_requests(a.seed, CHAT_RATE, 64);
    runtime_layer_calls(a, &traced, &reqs, &cfg, &http, &mut m);
    Run {
        metrics: m,
        attempted: w.reqs.len(),
        failed: w.failed(),
        mismatches,
    }
}

// ------------------------------------------------------- traced runtime

/// One traced window and everything recorded around it.
struct Traced {
    window: WindowResult,
    spans: SpanLog,
    plans: Vec<PlanRecord>,
    chunk_sizes: Vec<usize>,
    facts: runtime::BatchFacts,
    audit: Option<gllm_metrics::AuditReport>,
    preemptions: u64,
    pipeline_json: String,
    mismatches: Vec<String>,
}

/// Serve `reqs` once with the policy wrapper, the pipeline trace and spans
/// around every runtime call; warm-up batches are excluded from all of it.
fn traced_window(
    reqs: &[BenchRequest],
    cfg: &gllm_runtime::RuntimeConfig,
    warmup: usize,
) -> Traced {
    let epoch = Instant::now();
    let timed = TimedPolicy::new(Box::new(TokenThrottle::default()), epoch);
    let traced_cfg = gllm_runtime::RuntimeConfig {
        record_trace: true,
        ..cfg.clone()
    };
    let server = start_warm(traced_cfg, timed.clone(), &reqs[..warmup]);
    let first_batch = batches_checked(&server);
    let mut spans = SpanLog::new(epoch);
    let window_start = spans.now_ns();
    let window = run_window(&server, reqs, 0, Some(&mut spans));
    let out = server.shutdown_full();
    let mismatches = audit_mismatches(&out, "traced window");
    let plans: Vec<PlanRecord> = timed
        .records()
        .into_iter()
        .filter(|p| p.start_ns >= window_start)
        .collect();
    push_plan_spans(&mut spans, &plans);
    let facts = batch_facts(&out, first_batch);
    let preemptions = out
        .recorder
        .timelines()
        .iter()
        .filter(|(id, _)| *id < reqs.len() as u64)
        .map(|(_, t)| u64::from(t.preemptions))
        .sum();
    Traced {
        window,
        spans,
        plans,
        chunk_sizes: timed.chunk_sizes(),
        facts,
        audit: out.audit.clone(),
        preemptions,
        pipeline_json: out.trace.to_chrome_trace_string(),
        mismatches,
    }
}

/// Everything a traced runtime run measures after its windows: the layer
/// calls at the workload's shapes (transformer at the median context, KV
/// cycles at its lengths), the kernels, the HTTP probe with `http`
/// requests, the reconciliation and the span files.
fn runtime_layer_calls(
    a: &Args,
    t: &Traced,
    reqs: &[BenchRequest],
    cfg: &gllm_runtime::RuntimeConfig,
    http: &[BenchRequest],
    m: &mut Metrics,
) {
    let contexts: Vec<f64> = reqs
        .iter()
        .map(|r| (r.prompt.len() + r.max_new / 2) as f64)
        .collect();
    let costs = runtime_layers(t, median0(&contexts) as usize, m);
    let lengths: Vec<(usize, usize)> = reqs.iter().map(|r| (r.prompt.len(), r.max_new)).collect();
    layers::kv_append_free(&lengths, cfg.kv_blocks, cfg.block_size, m);
    common_layers(http, m);
    reconcile(t, &costs, m);
    write_spans(a, &t.spans, Some(&t.pipeline_json));
}

/// Scheduler, KV occupancy and runtime metrics of a traced runtime window,
/// plus the transformer calls at its shapes.
fn runtime_layers(t: &Traced, decode_ctx: usize, m: &mut Metrics) -> TransformerCosts {
    plan_metrics(&t.plans, m);
    m.add("kvcache.preemptions", t.preemptions as f64, "count");
    let f = &t.facts;
    m.add("runtime.batches", f.rtt_us.len() as f64, "count");
    m.add(
        "runtime.batches_per_s",
        f.rtt_us.len() as f64 / f.span_s.max(f64::MIN_POSITIVE),
        "1/s",
    );
    m.add("runtime.batch_rtt_us_p50", median0(&f.rtt_us), "us");
    m.add_tail("runtime.batch_rtt_us_p99", &f.rtt_us, 99.0, "us");
    m.add(
        "runtime.stage0_busy_frac",
        f.stage0_us.iter().sum::<f64>() / 1e6 / f.span_s.max(f64::MIN_POSITIVE),
        "fraction",
    );
    m.add("runtime.stage0_us_p50", median0(&f.stage0_us), "us");
    let plan_us: Vec<f64> = t.plans.iter().map(|p| p.dur_ns as f64 / 1e3).collect();
    let plan_p50 = median0(&plan_us);
    let off: Vec<f64> = f
        .rtt_us
        .iter()
        .zip(&f.stage0_us)
        .map(|(r, s)| r - s - plan_p50)
        .collect();
    m.add("runtime.offstage0_us_p50", median0(&off), "us");
    m.add("runtime.inflight_mean", f.inflight_mean, "count");
    if let Some(a) = &t.audit {
        m.add(
            "runtime.recoveries",
            a.final_snapshot.recoveries as f64,
            "count",
        );
        m.add(
            "runtime.requests_failed",
            a.final_snapshot.requests_failed as f64,
            "count",
        );
    }
    let w = &t.window;
    m.add_tail(
        "loadgen.lag_p99_ms",
        &w.lag_s.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
        99.0,
        "ms",
    );
    m.add("loadgen.sent", w.reqs.len() as f64, "count");
    m.add(
        "loadgen.completed",
        (w.reqs.len() - w.failed()) as f64,
        "count",
    );

    // The transformer at the workload's prefill chunk sizes: an evenly
    // spaced sample of the sizes the scheduler proposed.
    let mut sizes = t.chunk_sizes.clone();
    sizes.sort_unstable();
    let sample: Vec<usize> = (0..32)
        .filter_map(|i| sizes.get(i * sizes.len() / 32).copied())
        .collect();
    layers::transformer(&sample, decode_ctx, Duration::from_millis(800), m)
}

/// Core (scheduler) and KV-occupancy metrics from the wrapper's records.
fn plan_metrics(plans: &[PlanRecord], m: &mut Metrics) {
    let plan_us: Vec<f64> = plans.iter().map(|p| p.dur_ns as f64 / 1e3).collect();
    m.add("core.plan_us_p50", median0(&plan_us), "us");
    m.add_tail("core.plan_us_p99", &plan_us, 99.0, "us");
    m.add("core.plans", plans.len() as f64, "count");
    let batches: Vec<&PlanRecord> = plans.iter().filter(|p| p.batch_tokens() > 0).collect();
    let of = |f: fn(&PlanRecord) -> f64| -> Vec<f64> { batches.iter().map(|p| f(p)).collect() };
    let tokens = of(|p| p.batch_tokens() as f64);
    m.add("core.batch_tokens_mean", stats::mean(&tokens), "tok");
    m.add("core.batch_tokens_cv", stats::cv(&tokens), "ratio");
    m.add(
        "core.prefill_tokens_mean",
        stats::mean(&of(|p| p.prefill_tokens as f64)),
        "tok",
    );
    m.add(
        "core.decode_seqs_mean",
        stats::mean(&of(|p| p.decode_seqs as f64)),
        "count",
    );
    m.add(
        "core.waiting_mean",
        stats::mean(&of(|p| p.waiting_seqs as f64)),
        "count",
    );
    let used = of(|p| 1.0 - p.kv_free_rate);
    m.add("kvcache.used_frac_mean", stats::mean(&used), "fraction");
    m.add(
        "kvcache.used_frac_max",
        used.iter().copied().fold(0.0, f64::max),
        "fraction",
    );
}

/// Workload-independent layers: the kernels and the HTTP probe.
fn common_layers(chat_shaped: &[BenchRequest], m: &mut Metrics) {
    layers::kernels(m);
    layers::frontend(chat_shaped, HTTP_PROBE, m);
}

/// End-to-end ≈ sum of layers, per batch: each batch's round trip against
/// the full-model forward time the transformer calls predict for its
/// shape. What is left is hand-off, pipeline queueing and driver
/// bookkeeping, none of which is timed from outside.
fn reconcile(t: &Traced, costs: &TransformerCosts, m: &mut Metrics) {
    let f = &t.facts;
    let observed: f64 = f.rtt_us.iter().sum();
    let predicted: f64 = f
        .prefill_tokens
        .iter()
        .zip(&f.decode_tokens)
        .map(|(&p, &d)| costs.predict_us(p, d))
        .sum();
    let unaccounted = 1.0 - predicted / observed.max(f64::MIN_POSITIVE);
    m.add("reconcile.unaccounted_frac", unaccounted, "fraction");
    let (lo, hi) = RECONCILE_TOLERANCE;
    println!(
        "reconcile: batch round trips {:.3} s, predicted forward {:.3} s, unaccounted {:.3} ({} tolerance [{lo}, {hi}])",
        observed / 1e6,
        predicted / 1e6,
        unaccounted,
        if (lo..=hi).contains(&unaccounted) { "within" } else { "OUTSIDE" }
    );
    for (name, ns, n) in t.spans.self_time_by_name() {
        println!(
            "  self time {name:<22} {:>10.3} ms over {n} spans",
            ns as f64 / 1e6
        );
    }
}

/// The policy's `plan` calls as spans on their own row (capped).
fn push_plan_spans(spans: &mut SpanLog, plans: &[PlanRecord]) {
    for p in plans.iter().take(MAX_PLAN_SPANS) {
        spans.push(Span {
            name: "core.plan",
            start_ns: p.start_ns,
            end_ns: p.start_ns + p.dur_ns,
            parent: None,
            req: None,
            tid: 1,
        });
    }
}

fn write_spans(a: &Args, spans: &SpanLog, pipeline: Option<&str>) {
    let dir = std::path::Path::new(OUT_DIR);
    let stem = format!("{}-seed{}", a.workload, a.seed);
    let res = std::fs::create_dir_all(dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{stem}.spans.json")),
                spans.to_chrome_trace(),
            )
        })
        .and_then(|()| match pipeline {
            Some(p) => std::fs::write(dir.join(format!("{stem}.pipeline.json")), p),
            None => Ok(()),
        });
    match res {
        Ok(()) => println!(
            "spans: {}/{stem}.spans.json ({} spans)",
            OUT_DIR,
            spans.spans().len()
        ),
        Err(e) => println!("spans: not written ({e})"),
    }
}

// ---------------------------------------------------------------- sim

fn sweep(a: &Args) -> Run {
    let cfg = EngineConfig::default();
    let (exps, setup_s) = timed_setup(
        || {
            let exps = sim::experiments(a.seed);
            // Warm-up: the Azure panel (listed last), whose KV pressure
            // reaches the most scheduler and KV code paths.
            let azure = exps
                .iter()
                .position(|e| e.family == sim::FAMILIES[1])
                .unwrap_or(0);
            sim::pass(&exps[azure..], &cfg, false);
            exps
        },
        drop,
    );
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < 3 || start.elapsed().as_secs_f64() < a.seconds {
        passes.push(sim::pass(&exps, &cfg, passes.is_empty()));
    }
    let mut mismatches = Vec::new();
    for (k, p) in passes.iter().enumerate() {
        if p.digest != passes[0].digest {
            mismatches.push(format!("pass {k}: reports differ from pass 0"));
        }
        if p.violations > 0 {
            mismatches.push(format!("pass {k}: {} audit violations", p.violations));
        }
    }
    let p0 = &passes[0];
    let mut m = Metrics::default();
    let (mut ttft, mut tpot, mut met, mut total, mut tokens, mut makespan) =
        (Vec::new(), Vec::new(), 0.0, 0usize, 0usize, 0.0);
    for (e, rec) in exps.iter().zip(&p0.recorders) {
        let tl = rec.timelines();
        // Latency and SLO come from the ShareGPT ladder: the saturated
        // Azure panel's queueing delays swing several-fold with the seed.
        if e.family == sim::FAMILIES[0] {
            ttft.extend(tl.iter().filter_map(|(_, t)| t.ttft()).map(|s| s * 1e3));
            tpot.extend(tl.iter().filter_map(|(_, t)| t.tpot()).map(|s| s * 1e3));
            met += gllm_metrics::ServingReport::slo_attainment(rec, e.slo) * e.trace.len() as f64;
            total += e.trace.len();
        }
        tokens += tl
            .iter()
            .filter(|(_, t)| t.finish_s.is_some())
            .map(|(_, t)| t.prompt_len + t.output_tokens)
            .sum::<usize>();
        makespan += gllm_metrics::ServingReport::from_recorder(rec).makespan_s;
    }
    add_latency(&mut m, &ttft, &tpot);
    m.add("slo_attainment", met / total.max(1) as f64, "fraction");
    m.add(
        "total_tok_per_s",
        tokens as f64 / makespan.max(f64::MIN_POSITIVE),
        "tok/s",
    );
    // Every pass does the same work (checked byte for byte above). The
    // host's speed drifts by up to 40 % over minutes, so each pass is
    // scaled to reference speed by the calibration calls interleaved with
    // its experiments, and the median pass is reported.
    let reference_s = exps.len() as f64 * host::CALIBRATION_REF_S;
    let normalised: Vec<f64> = passes
        .iter()
        .map(|p| p.wall_s * reference_s / p.calibration_s)
        .collect();
    m.add("sim_iter_per_s", p0.iters as f64 / median0(&normalised), "iter/s");
    m.add("setup_s", setup_s, "s");
    m.add("peak_rss_mb", host::peak_rss_mb(), "MiB");
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    println!(
        "sim: {} experiments, {} passes, {} iterations per pass, pass walls {:?} s",
        exps.len(),
        passes.len(),
        p0.iters,
        walls
    );
    println!(
        "sim: {:.0} iter/s at host speed (median pass), host {:.2}x slower than reference",
        p0.iters as f64 / median0(&walls),
        median0(&walls) / median0(&normalised)
    );
    Run {
        metrics: m,
        attempted: p0.simulated,
        failed: p0.aborted,
        mismatches,
    }
}

fn sweep_traced(a: &Args) -> Run {
    let cfg = EngineConfig::default();
    let exps = sim::experiments(a.seed);
    let mut m = Metrics::default();
    let base = sim::pass(&exps, &cfg, false);
    let traced = sim::traced_pass(&exps, &cfg);
    let wall = traced.wall_s;
    let mut mismatches = Vec::new();
    for (k, (line, (bits, iters))) in base.digest.lines().zip(&traced.results).enumerate() {
        let want = format!("|{bits:x}|{iters}|");
        if !line.contains(&want) {
            mismatches.push(format!(
                "experiment {k}: the wrapped policy changed the simulation"
            ));
        }
    }
    let plans: Vec<PlanRecord> = traced.policies.iter().flat_map(|t| t.records()).collect();
    plan_metrics(&plans, &mut m);
    let plan_s = plans.iter().map(|p| p.dur_ns as f64).sum::<f64>() / 1e9;
    m.add("kvcache.preemptions", base.preemptions as f64, "count");
    m.add("sim.iters", base.iters as f64, "count");
    m.add("sim.plan_share", plan_s / wall, "fraction");
    for (fam, w) in sim::FAMILIES.iter().zip(base.family_wall_s) {
        m.add(&format!("sim.wall_s.{fam}"), w, "s");
    }
    m.add("trace.overhead_frac", wall / base.wall_s - 1.0, "fraction");
    // Inside the engine only the policy is reachable from outside; the
    // event loop, cost model and KV bookkeeping are the unaccounted rest.
    m.add(
        "reconcile.unaccounted_frac",
        1.0 - plan_s / wall,
        "fraction",
    );
    m.add("loadgen.sent", base.simulated as f64, "count");
    m.add(
        "loadgen.completed",
        (base.simulated - base.aborted) as f64,
        "count",
    );

    let d = sim::deployment();
    let lengths: Vec<(usize, usize)> = exps[0]
        .trace
        .requests
        .iter()
        .map(|r| (r.prompt_len, r.output_len))
        .collect();
    let kv = gllm_sim::experiment::kv_blocks(&exps[0].system, &d);
    layers::kv_append_free(&lengths, kv, d.block_size, &mut m);
    common_layers(&chat_requests(a.seed, CHAT_RATE, 64), &mut m);

    let mut spans = SpanLog::new(Instant::now());
    push_plan_spans(&mut spans, &plans);
    write_spans(a, &spans, None);
    Run {
        metrics: m,
        attempted: base.simulated,
        failed: base.aborted,
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(doc: &str, section: &str) -> Vec<String> {
        let v: serde_json::Value = serde_json::from_str(doc).expect("BENCHMARK.json is JSON");
        let items = v
            .get(section)
            .and_then(|s| s.as_array())
            .expect("section is an array");
        items
            .iter()
            .map(|i| {
                i.get("name")
                    .and_then(|n| n.as_str())
                    .expect("named entry")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc = include_str!("../../BENCHMARK.json");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in(doc, "end_to_end"), e2e);
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in(doc, "per_layer"), layers);
        let workloads = names_in(doc, "workloads");
        assert_eq!(
            workloads,
            ["chat_poisson", "long_prompt_offline", "sim_sweep"]
        );
    }
}
