//! Extension ablation: mixture-of-experts routing variance (§6).
//!
//! The paper's conclusion: "for MoE models, variability in expert
//! activation introduces additional imbalance". This bench injects a
//! deterministic batch-dependent execution-time variance of magnitude `v`
//! into the cost model and measures how much of Token Throttling's benefit
//! survives: token-balanced micro-batches are no longer time-balanced, so
//! bubbles creep back — quantifying the headroom an expert-aware balancer
//! (the paper's future work) could reclaim.

use gllm_bench::output::{f3, ms, Table};
use gllm_bench::{jobs, write_json};
use gllm_model::{ClusterSpec, CostModel, ModelConfig};
use gllm_sim::engine::EngineConfig;
use gllm_sim::sweep::{run_experiments, ExperimentJob};
use gllm_sim::{Deployment, SystemConfig};
use gllm_workload::{Dataset, Trace};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    system: String,
    imbalance: f64,
    tpot_s: f64,
    e2el_s: f64,
    throughput: f64,
    utilization: f64,
}

/// One perturbation of the cost model, applied before a run.
type CostTweak = Box<dyn Fn(&mut CostModel) + Sync>;

fn main() {
    let deployment = Deployment::new(ModelConfig::qwen2_5_32b(), ClusterSpec::intra_node_l20(4));
    let trace = Trace::paper_online(Dataset::ShareGpt, 5.0, 31);
    // The utilisation column needs busy intervals; the token trace is
    // unused here.
    let cfg = EngineConfig { record_token_trace: false, ..EngineConfig::default() };

    println!("Extension ablation — MoE expert-routing variance (32B-equivalent, 4xL20)\n");
    let systems = [SystemConfig::gllm(), SystemConfig::vllm()];
    let variances = [0.0, 0.1, 0.25, 0.5];
    let tweaks: Vec<CostTweak> = variances
        .iter()
        .map(|&v| Box::new(move |cost: &mut CostModel| cost.expert_imbalance = v) as Box<_>)
        .collect();
    let cells: Vec<(&SystemConfig, f64)> = systems
        .iter()
        .flat_map(|sys| variances.iter().map(move |&v| (sys, v)))
        .collect();
    let (trace, deployment, cfg_ref) = (&trace, &deployment, &cfg);
    let job_list: Vec<ExperimentJob> = systems
        .iter()
        .flat_map(|sys| {
            tweaks.iter().map(move |tw| ExperimentJob {
                trace,
                system: sys,
                deployment,
                cfg: cfg_ref,
                tweak: Some(&**tw),
            })
        })
        .collect();
    let results = run_experiments(&job_list, jobs());
    let mut rows = Vec::new();
    let mut t = Table::new(&["system", "variance", "TPOT (ms)", "E2EL (s)", "tput", "util"]);
    for ((sys, v), r) in cells.iter().zip(&results) {
        t.row(vec![
            sys.name.clone(),
            format!("{v}"),
            ms(r.report.mean_tpot_s),
            f3(r.report.mean_e2el_s),
            f3(r.report.throughput_tok_s),
            f3(r.mean_utilization),
        ]);
        rows.push(Row {
            system: sys.name.clone(),
            imbalance: *v,
            tpot_s: r.report.mean_tpot_s,
            e2el_s: r.report.mean_e2el_s,
            throughput: r.report.throughput_tok_s,
            utilization: r.mean_utilization,
        });
    }
    t.print();
    println!("\nexpected: both systems degrade with variance, but gLLM retains its");
    println!("lead — token balancing still removes the *systematic* imbalance, only");
    println!("the stochastic expert component remains (the paper's future work).");
    write_json("abl_moe_imbalance", &rows);
}
