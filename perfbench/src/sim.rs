//! The `sim_sweep` workload: a fixed list of discrete-event simulations
//! under `EngineConfig::default()` (audit and observers on), as the figure
//! binaries and tests run them.

use std::sync::Arc;
use std::time::Instant;

use gllm_metrics::{MetricsRecorder, SloSpec};
use gllm_model::{ClusterSpec, ModelConfig};
use gllm_sim::engine::{EngineConfig, SimEngine};
use gllm_sim::experiment::{execution_model, kv_blocks};
use gllm_sim::{run_experiment, Deployment, SystemConfig};
use gllm_workload::{Dataset, Trace};

use crate::host;
use crate::policy::TimedPolicy;

/// ShareGPT request rates for the main systems on Qwen2.5-32B / 4×L20.
/// The ladder stops at 3 req/s: from 4 req/s on, vLLM's queueing tails
/// swing by a third from seed to seed, and the saturated regime is the
/// Azure panel's job.
pub const SHAREGPT_RATES: [f64; 3] = [1.0, 2.0, 3.0];
/// Independent traces per ladder rate (the paper's 128 s window each):
/// pooling four halves the seed-to-seed spread of the latency tails, and
/// eight keep the seed from moving `sim_iter_per_s` through the mix of
/// iterations a pass simulates.
pub const LADDER_REPLICAS: u64 = 8;
/// The Fig. 15 Azure panel's rate, where the KV-utilisation throttle binds.
pub const AZURE_RATE: f64 = 3.0;

/// One simulation of the sweep.
pub struct Experiment {
    /// Figure family, used to group wall time.
    pub family: &'static str,
    /// System under test.
    pub system: SystemConfig,
    /// Input trace (seeded).
    pub trace: Trace,
    /// SLO limits for this family (the paper's Fig. 14 limits).
    pub slo: SloSpec,
}

/// The families, in the order their wall times are reported.
pub const FAMILIES: [&str; 2] = ["sharegpt_ladder", "azure_ablation"];

/// The deployment every experiment runs on.
pub fn deployment() -> Deployment {
    Deployment::new(ModelConfig::qwen2_5_32b(), ClusterSpec::intra_node_l20(4))
}

/// The sweep's experiments, traces seeded from `seed`.
pub fn experiments(seed: u64) -> Vec<Experiment> {
    let mut out = Vec::new();
    for (k, &rate) in SHAREGPT_RATES.iter().enumerate() {
        for rep in 0..LADDER_REPLICAS {
            let trace_seed = seed.wrapping_mul(1009).wrapping_add(k as u64 + 16 * rep);
            let trace = Trace::paper_online(Dataset::ShareGpt, rate, trace_seed);
            for system in SystemConfig::paper_main() {
                out.push(Experiment {
                    family: FAMILIES[0],
                    system,
                    trace: trace.clone(),
                    slo: SloSpec::from_ms(4000.0, 160.0),
                });
            }
        }
    }
    let trace = Trace::paper_online(
        Dataset::Azure,
        AZURE_RATE,
        seed.wrapping_mul(1009).wrapping_add(1000),
    );
    for system in SystemConfig::paper_ablation() {
        out.push(Experiment {
            family: FAMILIES[1],
            system,
            trace: trace.clone(),
            slo: SloSpec::from_ms(6400.0, 320.0),
        });
    }
    out
}

/// What one pass over the sweep produced.
pub struct Pass {
    /// Byte-exact digest of every report, for the repeat check.
    pub digest: String,
    /// Scheduler iterations simulated.
    pub iters: usize,
    /// Wall seconds per family, in [`FAMILIES`] order.
    pub family_wall_s: [f64; 2],
    /// Wall seconds of the experiments, calibration excluded.
    pub wall_s: f64,
    /// Wall seconds of the calibration calls, one before each experiment.
    pub calibration_s: f64,
    /// Per-experiment recorders (empty unless kept).
    pub recorders: Vec<MetricsRecorder>,
    /// Requests simulated.
    pub simulated: usize,
    /// Requests aborted or left unfinished.
    pub aborted: usize,
    /// KV preemptions.
    pub preemptions: u64,
    /// Audit violations (run_experiment also refuses unclean runs).
    pub violations: usize,
}

/// Run every experiment through `run_experiment`, each after one timed
/// [`host::calibration_work`] call, keeping the recorders only when
/// `keep_recorders` is set (memory must not grow with the number of passes
/// a run fits in).
pub fn pass(exps: &[Experiment], cfg: &EngineConfig, keep_recorders: bool) -> Pass {
    let d = deployment();
    let mut p = Pass {
        digest: String::new(),
        iters: 0,
        family_wall_s: [0.0; 2],
        wall_s: 0.0,
        calibration_s: 0.0,
        recorders: Vec::new(),
        simulated: 0,
        aborted: 0,
        preemptions: 0,
        violations: 0,
    };
    for e in exps {
        let t = Instant::now();
        host::calibration_work();
        p.calibration_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let r = run_experiment(&e.trace, &e.system, &d, cfg);
        let wall = t.elapsed().as_secs_f64();
        p.wall_s += wall;
        p.family_wall_s[family_index(e.family)] += wall;
        p.iters += r.sched_iterations;
        p.simulated += e.trace.len();
        p.aborted += e.trace.len() - r.report.finished_requests;
        p.preemptions += r.preemptions;
        p.violations += r.audit.as_ref().map_or(0, |a| a.violations.len());
        p.digest.push_str(&format!(
            "{}|{}|{:x}|{}|{}|{}\n",
            e.system.name,
            serde_json::to_string(&r.report).expect("a report serialises"),
            r.end_time_s.to_bits(),
            r.sched_iterations,
            r.preemptions,
            r.aborted
        ));
        if keep_recorders {
            p.recorders.push(r.recorder);
        }
    }
    p
}

fn family_index(family: &str) -> usize {
    FAMILIES
        .iter()
        .position(|f| *f == family)
        .expect("known family")
}

/// What a traced pass produced.
pub struct TracedPass {
    /// Total wall seconds.
    pub wall_s: f64,
    /// Per experiment, `(end_time bits, iterations)`, to compare with the
    /// untraced pass.
    pub results: Vec<(u64, usize)>,
    /// The wrapper around each experiment's policy, with its records.
    pub policies: Vec<Arc<TimedPolicy>>,
}

/// Traced pass: each engine is built exactly as `run_experiment` builds
/// it, but with the policy wrapped.
pub fn traced_pass(exps: &[Experiment], cfg: &EngineConfig) -> TracedPass {
    let d = deployment();
    let mut out = TracedPass {
        wall_s: 0.0,
        results: Vec::new(),
        policies: Vec::new(),
    };
    let start = Instant::now();
    for e in exps {
        let policy = TimedPolicy::new(e.system.policy.build(), start);
        let engine_cfg = EngineConfig {
            enable_cpp: e.system.cpp,
            ..cfg.clone()
        };
        let engine = SimEngine::new(
            &e.trace,
            policy.as_ref(),
            execution_model(&e.system, &d),
            e.system.runtime.clone(),
            kv_blocks(&e.system, &d),
            d.block_size,
            d.max_seqs_per_batch,
            &engine_cfg,
        );
        let r = engine.run();
        out.results
            .push((r.end_time_s.to_bits(), r.sched_iterations));
        out.policies.push(policy);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}
