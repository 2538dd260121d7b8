//! Golden serving reports: a few seeded `run_experiment`s must reproduce
//! the pinned results bit for bit.
//!
//! Each run is reduced to one FNV-1a hash over its `ServingReport` JSON,
//! `end_time_s.to_bits()`, scheduled iterations and preemptions. Every
//! run has the invariant auditor on (the default), so a change to the
//! auditor that perturbed the simulation — or a scheduler change that
//! slipped past it — shows up here. The pinned values were computed on
//! the commit before the incremental auditor, whose simulation results
//! this test therefore shows to be unchanged.

use gllm_model::{ClusterSpec, ModelConfig};
use gllm_sim::engine::EngineConfig;
use gllm_sim::{run_experiment, Deployment, RunResult, SystemConfig};
use gllm_workload::{Dataset, Trace};

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(r: &RunResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let json = serde_json::to_string(&r.report).expect("report serialises");
    fnv1a(&mut h, json.as_bytes());
    fnv1a(&mut h, &r.end_time_s.to_bits().to_le_bytes());
    fnv1a(&mut h, &(r.sched_iterations as u64).to_le_bytes());
    fnv1a(&mut h, &r.preemptions.to_le_bytes());
    h
}

#[test]
fn seeded_runs_reproduce_pinned_reports() {
    let deployment = Deployment::new(ModelConfig::qwen2_5_32b(), ClusterSpec::intra_node_l20(4));
    let cfg = EngineConfig {
        record_token_trace: false,
        record_utilization: false,
        ..EngineConfig::default()
    };
    let sharegpt = Trace::paper_online(Dataset::ShareGpt, 2.0, 21);
    let azure = Trace::paper_online(Dataset::Azure, 3.0, 1005);
    let runs: [(&str, &Trace, SystemConfig, u64); 4] = [
        ("sharegpt@2 vLLM", &sharegpt, SystemConfig::vllm(), 0x9b1d_49c8_0111_8f24),
        ("sharegpt@2 SGLang", &sharegpt, SystemConfig::sglang(), 0x99c9_637f_7796_151f),
        ("sharegpt@2 gLLM", &sharegpt, SystemConfig::gllm(), 0xd723_9b8e_04f5_3732),
        ("azure@3 gLLM w/o UT", &azure, SystemConfig::gllm_without_ut(), 0xeb35_40e3_d080_2130),
    ];
    let got: Vec<(&str, String)> = runs
        .iter()
        .map(|(name, trace, system, _)| {
            (*name, format!("{:#018x}", digest(&run_experiment(trace, system, &deployment, &cfg))))
        })
        .collect();
    let want: Vec<(&str, String)> =
        runs.iter().map(|(name, _, _, pinned)| (*name, format!("{pinned:#018x}"))).collect();
    assert_eq!(got, want, "seeded serving reports drifted from the pinned digests");
}
