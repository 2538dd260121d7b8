//! Figure 16: sensitivity of gLLM to its hyper-parameters — `#T`, `#MaxP`,
//! `#MinP` and `KV_thresh` — reporting metrics normalised to the default
//! configuration (`#T=8, #MaxP=2048, #MinP=32, KV_thresh=0.05`).
//!
//! Each parameter is swept in the regime where it binds (as the fig. 15
//! ablation panels also show): `#T` and `#MinP` regulate prefill smoothing
//! and matter under bursty short-prompt traffic (ShareGPT); `#MaxP` caps
//! the prefill rate and `KV_thresh` guards cache headroom, both of which
//! bind when long Azure prompts keep the prefill backlog and the KV cache
//! saturated.

use gllm_bench::output::{f3, Table};
use gllm_bench::{jobs, write_json};
use gllm_core::throttle::ThrottleConfig;
use gllm_core::Tokens;
use gllm_model::{ClusterSpec, ModelConfig};
use gllm_sim::engine::EngineConfig;
use gllm_sim::sweep::{run_experiments, ExperimentJob};
use gllm_sim::{Deployment, RunResult, SystemConfig};
use gllm_workload::{Dataset, Trace};
use serde::Serialize;

#[derive(Serialize)]
struct SensitivityRow {
    parameter: String,
    value: String,
    regime: String,
    ttft_norm: f64,
    tpot_norm: f64,
    e2el_norm: f64,
    throughput_norm: f64,
}

#[derive(Clone, Copy)]
struct Metrics {
    ttft: f64,
    tpot: f64,
    e2el: f64,
    tput: f64,
}

fn metrics(r: &RunResult) -> Metrics {
    Metrics {
        ttft: r.report.mean_ttft_s,
        tpot: r.report.mean_tpot_s,
        e2el: r.report.mean_e2el_s,
        tput: r.report.throughput_tok_s,
    }
}

/// Which workload regime a sweep point runs in.
#[derive(Clone, Copy, PartialEq)]
enum Regime {
    ShareGpt,
    Azure,
}

fn main() {
    let jobs = jobs();
    let deployment = Deployment::new(ModelConfig::qwen2_5_32b(), ClusterSpec::intra_node_l20(4));
    // Bursty short-prompt regime (WT-side parameters bind here).
    let trace_sg = Trace::paper_online(Dataset::ShareGpt, 4.0, 1006);
    // Saturated long-prompt regime (prefill-rate and KV parameters bind).
    let trace_az = Trace::paper_online(Dataset::Azure, 3.0, 1006);
    // Only the aggregate report is consumed — skip the observers.
    let engine_cfg = EngineConfig {
        record_token_trace: false,
        record_utilization: false,
        ..EngineConfig::default()
    };

    // Declare the whole sweep up front, then fan all 20 simulations across
    // the harness at once: (param, value, regime, throttle config).
    let mut points: Vec<(&str, String, Regime, ThrottleConfig)> = vec![
        ("base", "default".into(), Regime::ShareGpt, ThrottleConfig::default()),
        ("base", "default".into(), Regime::Azure, ThrottleConfig::default()),
    ];
    for t in [1usize, 2, 4, 8, 16] {
        points.push((
            "#T",
            t.to_string(),
            Regime::ShareGpt,
            ThrottleConfig { iter_t: t, ..Default::default() },
        ));
    }
    for max_p in [512usize, 1024, 2048, 4096, 8192] {
        points.push((
            "#MaxP",
            max_p.to_string(),
            Regime::Azure,
            ThrottleConfig { max_p: Tokens(max_p), ..Default::default() },
        ));
    }
    for min_p in [8usize, 16, 32, 64] {
        points.push((
            "#MinP",
            min_p.to_string(),
            Regime::ShareGpt,
            ThrottleConfig { min_p: Tokens(min_p), ..Default::default() },
        ));
    }
    for kv_thresh in [0.0f64, 0.05, 0.1, 0.2] {
        points.push((
            "KV_thresh",
            format!("{kv_thresh}"),
            Regime::Azure,
            ThrottleConfig { kv_thresh, ..Default::default() },
        ));
    }

    let systems: Vec<SystemConfig> =
        points.iter().map(|(_, _, _, tc)| SystemConfig::gllm_with(*tc)).collect();
    let job_list: Vec<ExperimentJob> = points
        .iter()
        .zip(&systems)
        .map(|(&(_, _, regime, _), sys)| ExperimentJob {
            trace: if regime == Regime::ShareGpt { &trace_sg } else { &trace_az },
            system: sys,
            deployment: &deployment,
            cfg: &engine_cfg,
            tweak: None,
        })
        .collect();
    let results = run_experiments(&job_list, jobs);

    let base_sg = metrics(&results[0]);
    let base_az = metrics(&results[1]);
    println!("Figure 16 — sensitivity, normalised to the defaults of each regime");
    println!(
        "  sharegpt@4 baseline: TTFT {:.0} ms, TPOT {:.1} ms, E2EL {:.2} s, tput {:.0} tok/s",
        base_sg.ttft * 1e3, base_sg.tpot * 1e3, base_sg.e2el, base_sg.tput
    );
    println!(
        "  azure@3 baseline:    TTFT {:.0} ms, TPOT {:.1} ms, E2EL {:.2} s, tput {:.0} tok/s\n",
        base_az.ttft * 1e3, base_az.tpot * 1e3, base_az.e2el, base_az.tput
    );

    let mut rows: Vec<SensitivityRow> = Vec::new();
    let mut table = Table::new(&["param", "value", "regime", "TTFT", "TPOT", "E2EL", "tput"]);
    let mut record = |param: &str,
                      value: String,
                      regime: &str,
                      m: Metrics,
                      base: Metrics,
                      table: &mut Table| {
        let row = SensitivityRow {
            parameter: param.into(),
            value: value.clone(),
            regime: regime.into(),
            ttft_norm: m.ttft / base.ttft,
            tpot_norm: m.tpot / base.tpot,
            e2el_norm: m.e2el / base.e2el,
            throughput_norm: m.tput / base.tput,
        };
        table.row(vec![
            param.into(),
            value,
            regime.into(),
            f3(row.ttft_norm),
            f3(row.tpot_norm),
            f3(row.e2el_norm),
            f3(row.throughput_norm),
        ]);
        rows.push(row);
    };

    for ((param, value, regime, _), r) in points.iter().zip(&results).skip(2) {
        let (regime_name, base) = match regime {
            Regime::ShareGpt => ("sharegpt@4", base_sg),
            Regime::Azure => ("azure@3", base_az),
        };
        record(param, value.clone(), regime_name, metrics(r), base, &mut table);
    }
    table.print();
    println!("\npaper expectations: larger #T smooths batches (TPOT/E2EL improve, TTFT");
    println!("drifts up); #MaxP=512 costs throughput via prefill-rate starvation;");
    println!("KV_thresh=0 invites preemptions; #MinP is within noise.");
    write_json("fig16_sensitivity", &rows);
}
