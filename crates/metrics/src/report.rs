//! Reduction of timelines to the paper's reported numbers.

use gllm_workload::{mean, percentile};
use serde::{Deserialize, Serialize};

use crate::recorder::MetricsRecorder;

/// A joint TTFT/TPOT service-level objective, as the artifact's
/// `--goodput ttft:1000 tpot:250` (milliseconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Maximum acceptable TTFT, seconds.
    pub ttft_s: f64,
    /// Maximum acceptable TPOT, seconds.
    pub tpot_s: f64,
}

impl SloSpec {
    /// Build from milliseconds (the paper's notation).
    pub fn from_ms(ttft_ms: f64, tpot_ms: f64) -> Self {
        Self { ttft_s: ttft_ms / 1000.0, tpot_s: tpot_ms / 1000.0 }
    }

    /// The paper's Fig. 14a constraint for ShareGPT: TTFT ≤ 2.5 s,
    /// TPOT ≤ 100 ms.
    pub fn sharegpt_100b() -> Self {
        Self::from_ms(2500.0, 100.0)
    }

    /// The paper's Fig. 14b constraint for Azure: TTFT ≤ 4 s, TPOT ≤ 200 ms.
    pub fn azure_100b() -> Self {
        Self::from_ms(4000.0, 200.0)
    }
}

/// Aggregated serving metrics for one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// Requests submitted.
    pub total_requests: usize,
    /// Requests that completed.
    pub finished_requests: usize,
    /// Mean time-to-first-token, seconds.
    pub mean_ttft_s: f64,
    /// 99th-percentile TTFT, seconds.
    pub p99_ttft_s: f64,
    /// Mean time-per-output-token, seconds.
    pub mean_tpot_s: f64,
    /// 99th-percentile TPOT, seconds.
    pub p99_tpot_s: f64,
    /// Mean end-to-end latency, seconds.
    pub mean_e2el_s: f64,
    /// 99th-percentile end-to-end latency, seconds.
    pub p99_e2el_s: f64,
    /// Input + output tokens processed per second (the paper's throughput
    /// metric: total tokens over makespan).
    pub throughput_tok_s: f64,
    /// Output tokens per second only.
    pub output_throughput_tok_s: f64,
    /// Experiment makespan (first arrival to last completion), seconds.
    pub makespan_s: f64,
    /// Total preemptions across requests.
    pub preemptions: u64,
}

impl ServingReport {
    /// Reduce a recorder's timelines. Only finished requests contribute to
    /// latency statistics and throughput, matching the paper's benchmark
    /// script which waits for all responses.
    pub fn from_recorder(rec: &MetricsRecorder) -> Self {
        let timelines = rec.timelines();
        let finished: Vec<_> = timelines
            .iter()
            .filter(|(_, t)| t.finish_s.is_some())
            .map(|(_, t)| *t)
            .collect();

        let ttfts: Vec<f64> = finished.iter().filter_map(|t| t.ttft()).collect();
        let tpots: Vec<f64> = finished.iter().filter_map(|t| t.tpot()).collect();
        let e2els: Vec<f64> = finished.iter().filter_map(|t| t.e2el()).collect();

        // Both endpoints fold over *finished* requests: throughput divides
        // finished tokens by this span, so an early-arriving request that
        // never finished must not stretch it.
        let start = finished
            .iter()
            .map(|t| t.arrival_s)
            .fold(f64::INFINITY, f64::min);
        let end = finished
            .iter()
            .filter_map(|t| t.finish_s)
            .fold(f64::NEG_INFINITY, f64::max);
        let makespan_s = if finished.is_empty() { 0.0 } else { end - start };

        let in_tokens: usize = finished.iter().map(|t| t.prompt_len).sum();
        let out_tokens: usize = finished.iter().map(|t| t.output_tokens).sum();
        let (throughput, out_throughput) = if makespan_s > 0.0 {
            (
                (in_tokens + out_tokens) as f64 / makespan_s,
                out_tokens as f64 / makespan_s,
            )
        } else {
            (0.0, 0.0)
        };

        Self {
            total_requests: timelines.len(),
            finished_requests: finished.len(),
            mean_ttft_s: mean(&ttfts),
            p99_ttft_s: percentile(&ttfts, 99.0),
            mean_tpot_s: mean(&tpots),
            p99_tpot_s: percentile(&tpots, 99.0),
            mean_e2el_s: mean(&e2els),
            p99_e2el_s: percentile(&e2els, 99.0),
            throughput_tok_s: throughput,
            output_throughput_tok_s: out_throughput,
            makespan_s,
            preemptions: timelines.iter().map(|(_, t)| t.preemptions as u64).sum(),
        }
    }

    /// Fraction of finished requests meeting `slo` on both TTFT and TPOT.
    /// Requests with a single output token are judged on TTFT alone.
    pub fn slo_attainment(rec: &MetricsRecorder, slo: SloSpec) -> f64 {
        let finished: Vec<_> = rec
            .timelines()
            .into_iter()
            .filter(|(_, t)| t.finish_s.is_some())
            .collect();
        if finished.is_empty() {
            return 0.0;
        }
        let ok = finished
            .iter()
            .filter(|(_, t)| {
                let ttft_ok = t.ttft().is_some_and(|v| v <= slo.ttft_s);
                let tpot_ok = t.tpot().is_none_or(|v| v <= slo.tpot_s);
                ttft_ok && tpot_ok
            })
            .count();
        ok as f64 / finished.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_run() -> MetricsRecorder {
        let mut r = MetricsRecorder::new();
        // Request 0: TTFT 0.1, 3 tokens ending at 0.5 → TPOT 0.2, E2EL 0.5.
        r.on_arrival(0, 0.0, 100);
        r.on_token(0, 0.1);
        r.on_token(0, 0.3);
        r.on_token(0, 0.5);
        r.on_finish(0, 0.5);
        // Request 1: TTFT 0.4, 2 tokens ending at 1.0 → TPOT 0.5, E2EL 0.9.
        r.on_arrival(1, 0.1, 50);
        r.on_token(1, 0.5);
        r.on_token(1, 1.0);
        r.on_finish(1, 1.0);
        r
    }

    #[test]
    fn report_reduces_latencies() {
        let rep = ServingReport::from_recorder(&simple_run());
        assert_eq!(rep.total_requests, 2);
        assert_eq!(rep.finished_requests, 2);
        assert!((rep.mean_ttft_s - 0.25).abs() < 1e-12);
        assert!((rep.mean_tpot_s - 0.35).abs() < 1e-12);
        assert!((rep.mean_e2el_s - 0.7).abs() < 1e-12);
    }

    #[test]
    fn throughput_counts_input_and_output_tokens_over_makespan() {
        let rep = ServingReport::from_recorder(&simple_run());
        // makespan = 1.0 − 0.0; tokens = 150 input + 5 output.
        assert!((rep.makespan_s - 1.0).abs() < 1e-12);
        assert!((rep.throughput_tok_s - 155.0).abs() < 1e-9);
        assert!((rep.output_throughput_tok_s - 5.0).abs() < 1e-9);
    }

    #[test]
    fn unfinished_requests_excluded_from_latency_stats() {
        let mut r = simple_run();
        r.on_arrival(2, 0.2, 10);
        r.on_token(2, 5.0);
        let rep = ServingReport::from_recorder(&r);
        assert_eq!(rep.total_requests, 3);
        assert_eq!(rep.finished_requests, 2);
        assert!((rep.mean_ttft_s - 0.25).abs() < 1e-12, "straggler leaked in");
    }

    #[test]
    fn makespan_ignores_unfinished_early_arrivals() {
        // Regression: `start` used to fold arrivals over ALL timelines
        // while `end` folded finishes over FINISHED ones, so an unfinished
        // request arriving at t=0 stretched the makespan (and deflated
        // throughput) of work that really spanned 2.0 → 4.0.
        let mut r = MetricsRecorder::new();
        r.on_arrival(0, 0.0, 10); // never finishes
        r.on_token(0, 3.0);
        r.on_arrival(1, 2.0, 40);
        r.on_token(1, 3.5);
        r.on_token(1, 4.0);
        r.on_finish(1, 4.0);
        let rep = ServingReport::from_recorder(&r);
        assert!((rep.makespan_s - 2.0).abs() < 1e-12, "got {}", rep.makespan_s);
        // 40 input + 2 output tokens over the finished span only.
        assert!((rep.throughput_tok_s - 21.0).abs() < 1e-9);
    }

    #[test]
    fn slo_attainment_counts_joint_constraint() {
        let r = simple_run();
        // Request 0 (ttft .1, tpot .2) passes; request 1 (ttft .4, tpot .5)
        // fails TPOT.
        let half = ServingReport::slo_attainment(&r, SloSpec { ttft_s: 0.45, tpot_s: 0.3 });
        assert!((half - 0.5).abs() < 1e-12);
        let all = ServingReport::slo_attainment(&r, SloSpec { ttft_s: 1.0, tpot_s: 1.0 });
        assert_eq!(all, 1.0);
        let none = ServingReport::slo_attainment(&r, SloSpec { ttft_s: 0.05, tpot_s: 1.0 });
        assert_eq!(none, 0.0);
    }

    #[test]
    fn empty_recorder_yields_zeroes() {
        let rep = ServingReport::from_recorder(&MetricsRecorder::new());
        assert_eq!(rep.total_requests, 0);
        assert_eq!(rep.throughput_tok_s, 0.0);
        assert_eq!(
            ServingReport::slo_attainment(&MetricsRecorder::new(), SloSpec::sharegpt_100b()),
            0.0
        );
    }

    #[test]
    fn paper_slo_presets() {
        assert_eq!(SloSpec::sharegpt_100b().ttft_s, 2.5);
        assert_eq!(SloSpec::azure_100b().tpot_s, 0.2);
    }
}
