//! Self-benchmark of the sweep harness and the sim-engine hot path.
//!
//! For each figure family this binary runs the same sweep three ways:
//!
//! 1. **serial** — optimized engine (cost memoization on, per-iteration
//!    observers off), one worker;
//! 2. **parallel** — identical jobs fanned across `--jobs` workers
//!    (default: all cores), asserting the serialized results are
//!    **byte-identical** to the serial run — any divergence exits nonzero;
//! 3. **baseline** — the pre-optimization engine configuration
//!    (memoization off, legacy scheduler data paths, auditor and all
//!    observers on), serial — what every bench paid before this harness
//!    existed.
//!
//! It writes `BENCH_sweep.json` at the repo root recording wall-clock
//! seconds, speedups and simulation rates per figure plus end-to-end
//! totals. `--quick` trims each family to a smoke-test subset for CI.

use std::time::Instant;

use gllm_bench::{has_flag, jobs, sweep_rates_with_cfg};
use gllm_metrics::SloSpec;
use gllm_model::{ClusterSpec, ModelConfig};
use gllm_sim::capacity::max_throughput_with;
use gllm_sim::engine::EngineConfig;
use gllm_sim::sweep::{parallel_map, run_experiments, ExperimentJob};
use gllm_sim::{Deployment, SystemConfig};
use gllm_workload::{Dataset, Trace};
use serde::Serialize;

/// The seed-equivalent engine configuration: no cost memoization, the
/// legacy scheduler data paths, the invariant auditor and every observer
/// recording — exactly what the benches ran before this PR.
fn baseline_cfg() -> EngineConfig {
    EngineConfig {
        memoize_costs: false,
        fast_scheduler: false,
        audit: true,
        record_token_trace: true,
        record_utilization: true,
        ..EngineConfig::default()
    }
}

/// The optimized sweep configuration: fast scheduler paths, memoized
/// costs, observers and the (pure-validation) auditor off. The invariant
/// audit still runs in every figure binary and across the test suite; the
/// harness's job is to time raw sweep throughput.
fn optimized_cfg() -> EngineConfig {
    EngineConfig {
        record_token_trace: false,
        record_utilization: false,
        audit: false,
        ..EngineConfig::default()
    }
}

#[derive(Serialize)]
struct FigureTiming {
    figure: String,
    sims: usize,
    serial_s: f64,
    parallel_s: f64,
    parallel_speedup: f64,
    baseline_serial_s: f64,
    speedup_vs_baseline: f64,
    sims_per_sec: f64,
}

#[derive(Serialize)]
struct BenchSweep {
    jobs: usize,
    cores: usize,
    quick: bool,
    figures: Vec<FigureTiming>,
    total_serial_s: f64,
    total_parallel_s: f64,
    total_baseline_serial_s: f64,
    parallel_speedup: f64,
    /// Headline number: optimized parallel sweep vs the seed-equivalent
    /// serial baseline (unmemoized engine, full recording).
    end_to_end_speedup: f64,
}

/// One figure family: how to run its sweep under a given (cfg, jobs) and
/// how many simulations that is. Returns serialized results for the
/// serial-vs-parallel equality check (baseline results are not compared —
/// recording flags are pure observers but the baseline timing is the
/// point, not its output).
struct Family {
    name: &'static str,
    sims: usize,
    run: SweepFn,
}

/// Runs a family's sweep under `(cfg, jobs)`, returning its serialized
/// results.
type SweepFn = Box<dyn Fn(&EngineConfig, usize) -> Vec<u8>>;

fn rate_family(
    name: &'static str,
    systems: Vec<SystemConfig>,
    deployment: Deployment,
    panels: Vec<(Dataset, Vec<f64>)>,
    seed: u64,
    slo: Option<SloSpec>,
) -> Family {
    let sims = systems.len() * panels.iter().map(|(_, r)| r.len()).sum::<usize>();
    Family {
        name,
        sims,
        run: Box::new(move |cfg, jobs| {
            let mut out = Vec::new();
            for (dataset, rates) in &panels {
                let pts = sweep_rates_with_cfg(
                    &systems, &deployment, *dataset, rates, seed, slo, cfg, jobs,
                );
                out.push(pts);
            }
            serde_json::to_vec(&out).expect("serialise rate sweep")
        }),
    }
}

fn families(quick: bool) -> Vec<Family> {
    let mut fams = Vec::new();

    // Figure 10: intra-node rate sweeps (one panel per model/dataset).
    let fig10_panels = if quick {
        vec![(Dataset::ShareGpt, vec![1.0, 4.0])]
    } else {
        vec![
            (Dataset::ShareGpt, vec![1.0, 2.0, 4.0, 8.0, 12.0]),
            (Dataset::Azure, vec![0.5, 1.0, 2.0, 3.0, 4.0]),
        ]
    };
    fams.push(rate_family(
        "fig10_intra_node",
        SystemConfig::paper_main(),
        Deployment::new(ModelConfig::qwen2_5_14b(), ClusterSpec::intra_node_l20(4)),
        fig10_panels,
        1001,
        None,
    ));

    // Figure 12: cross-node rate sweep.
    let fig12_rates = if quick { vec![0.5, 2.0] } else { vec![0.5, 1.0, 2.0, 4.0, 6.0] };
    fams.push(rate_family(
        "fig12_cross_node",
        SystemConfig::paper_main(),
        Deployment::new(ModelConfig::qwen2_5_32b(), ClusterSpec::cross_node_a100(4)),
        vec![(Dataset::ShareGpt, fig12_rates)],
        1002,
        None,
    ));

    // Figure 14: SLO-attainment sweep.
    let fig14_rates =
        if quick { vec![0.5, 1.0] } else { vec![0.25, 0.5, 0.75, 1.0, 1.25, 1.5] };
    fams.push(rate_family(
        "fig14_slo",
        vec![SystemConfig::gllm(), SystemConfig::vllm()],
        Deployment::new(ModelConfig::llama3_1_100b(), ClusterSpec::cross_node_a800(4)),
        vec![(Dataset::ShareGpt, fig14_rates)],
        1004,
        Some(SloSpec::from_ms(4000.0, 160.0)),
    ));

    // Figure 15-style ablation: all ablation systems on one online trace.
    {
        let deployment =
            Deployment::new(ModelConfig::qwen2_5_32b(), ClusterSpec::intra_node_l20(4));
        let rate = if quick { 3.0 } else { 6.0 };
        let trace = Trace::paper_online(Dataset::ShareGpt, rate, 1005);
        let systems = SystemConfig::paper_ablation();
        let sims = systems.len();
        fams.push(Family {
            name: "fig15_ablation",
            sims,
            run: Box::new(move |cfg, jobs| {
                let job_list: Vec<ExperimentJob> = systems
                    .iter()
                    .map(|s| ExperimentJob {
                        trace: &trace,
                        system: s,
                        deployment: &deployment,
                        cfg,
                        tweak: None,
                    })
                    .collect();
                let results = run_experiments(&job_list, jobs);
                let rows: Vec<(&str, gllm_metrics::ServingReport, u64)> = systems
                    .iter()
                    .zip(&results)
                    .map(|(s, r)| (s.name.as_str(), r.report, r.preemptions))
                    .collect();
                serde_json::to_vec(&rows).expect("serialise ablation")
            }),
        });
    }

    // Figure 13-style capacity grid: max-throughput search per
    // (system, gpu-count) cell.
    {
        let model = ModelConfig::qwen2_5_14b();
        let systems = SystemConfig::paper_main();
        let gpu_counts: Vec<usize> = if quick { vec![2] } else { vec![1, 2, 4] };
        let cells: Vec<(usize, usize)> = (0..systems.len())
            .flat_map(|si| gpu_counts.iter().map(move |&g| (si, g)))
            .collect();
        let sims = cells.len();
        fams.push(Family {
            name: "fig13_scalability",
            sims,
            run: Box::new(move |cfg, jobs| {
                let caps: Vec<(usize, usize, f64)> = parallel_map(&cells, jobs, |_, &(si, g)| {
                    let deployment =
                        Deployment::new(model.clone(), ClusterSpec::intra_node_l20(g));
                    let cap = max_throughput_with(
                        &systems[si],
                        &deployment,
                        Dataset::ShareGpt,
                        1.0,
                        77,
                        cfg,
                    );
                    (si, g, cap.max_throughput_tok_s)
                });
                serde_json::to_vec(&caps).expect("serialise capacity grid")
            }),
        });
    }

    fams
}

fn time<F: FnOnce() -> Vec<u8>>(f: F) -> (f64, Vec<u8>) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let quick = has_flag(&args, "--quick");
    let jobs = jobs();
    let cores = gllm_sim::sweep::default_jobs();
    let parallel_jobs = jobs.max(4);
    let opt = optimized_cfg();
    let base = baseline_cfg();

    println!(
        "perf harness — {} mode, {} cores, parallel runs use {} jobs\n",
        if quick { "quick" } else { "full" },
        cores,
        parallel_jobs
    );

    let mut figures = Vec::new();
    let (mut tot_serial, mut tot_parallel, mut tot_baseline) = (0.0, 0.0, 0.0);
    let mut diverged = false;
    for fam in families(quick) {
        let (serial_s, serial_bytes) = time(|| (fam.run)(&opt, 1));
        let (parallel_s, parallel_bytes) = time(|| (fam.run)(&opt, parallel_jobs));
        if serial_bytes != parallel_bytes {
            eprintln!(
                "DIVERGENCE: {} parallel output differs from serial ({} vs {} bytes)",
                fam.name,
                serial_bytes.len(),
                parallel_bytes.len()
            );
            diverged = true;
        }
        let (baseline_s, _) = time(|| (fam.run)(&base, 1));
        println!(
            "{:<20} {:>3} sims  serial {:>7.3}s  parallel {:>7.3}s  baseline {:>7.3}s  vs-baseline {:>5.2}x",
            fam.name,
            fam.sims,
            serial_s,
            parallel_s,
            baseline_s,
            baseline_s / parallel_s.max(f64::MIN_POSITIVE),
        );
        tot_serial += serial_s;
        tot_parallel += parallel_s;
        tot_baseline += baseline_s;
        figures.push(FigureTiming {
            figure: fam.name.into(),
            sims: fam.sims,
            serial_s,
            parallel_s,
            parallel_speedup: serial_s / parallel_s.max(f64::MIN_POSITIVE),
            baseline_serial_s: baseline_s,
            speedup_vs_baseline: baseline_s / parallel_s.max(f64::MIN_POSITIVE),
            sims_per_sec: fam.sims as f64 / parallel_s.max(f64::MIN_POSITIVE),
        });
    }

    let report = BenchSweep {
        jobs: parallel_jobs,
        cores,
        quick,
        figures,
        total_serial_s: tot_serial,
        total_parallel_s: tot_parallel,
        total_baseline_serial_s: tot_baseline,
        parallel_speedup: tot_serial / tot_parallel.max(f64::MIN_POSITIVE),
        end_to_end_speedup: tot_baseline / tot_parallel.max(f64::MIN_POSITIVE),
    };
    println!(
        "\ntotals: serial {:.2}s, parallel {:.2}s, baseline {:.2}s — \
         parallel speedup {:.2}x, end-to-end vs baseline {:.2}x",
        tot_serial,
        tot_parallel,
        tot_baseline,
        report.parallel_speedup,
        report.end_to_end_speedup
    );

    // BENCH_sweep.json lives at the repo root, next to ROADMAP.md.
    let root = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(m) => std::path::PathBuf::from(m).join("../.."),
        Err(_) => std::path::PathBuf::from("."),
    };
    let path = root.join("BENCH_sweep.json");
    std::fs::write(&path, serde_json::to_string_pretty(&report).expect("serialise timings"))
        .expect("write BENCH_sweep.json");
    eprintln!("[timings written to {}]", path.display());

    if diverged {
        eprintln!("FAIL: parallel sweep diverged from serial");
        return std::process::ExitCode::FAILURE;
    }
    std::process::ExitCode::SUCCESS
}
