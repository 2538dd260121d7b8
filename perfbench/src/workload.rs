//! Seeded workload generation. Every parameter that defines a workload is
//! pinned here, and `BENCHMARK.json` states the same values (a unit test
//! keeps the two in step).

use gllm_model::ModelConfig;
use gllm_workload::{ArrivalProcess, Dataset, LengthDistribution, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `chat_poisson`: open-loop Poisson arrival rate, requests per second.
///
/// Measured on a 2-vCPU host with this mix: 30 req/s keeps TTFT p50 at
/// 5.5–6.1 ms, 45 req/s gives 8.4–17.1 ms and 60 req/s 15–146 ms, while the
/// same mix as an offline burst reaches ≈4.8k output tok/s. Latency thus
/// destabilises at ≈30 % of burst capacity, a runtime defect the traced
/// run's 1.5× replay keeps visible.
pub const CHAT_RATE: f64 = 30.0;
/// Rate multiplier of the traced run's diagnostic replay.
pub const CHAT_DIAG_FACTOR: f64 = 1.5;
/// ShareGPT-shaped prompt lengths scaled to the tiny model (mean ≈45).
pub const CHAT_PROMPT: LengthDistribution = LengthDistribution::LogNormal {
    mu: 3.5,
    sigma: 0.8,
    min: 4,
    max: 256,
};
/// ShareGPT-shaped output lengths scaled to the tiny model (mean ≈33).
pub const CHAT_OUTPUT: LengthDistribution = LengthDistribution::LogNormal {
    mu: 3.3,
    sigma: 0.6,
    min: 2,
    max: 128,
};
/// `gllm serve`'s default KV size; the chat mix never fills it.
pub const CHAT_KV_BLOCKS: usize = 4096;
/// Minimum requests per chat run, so that ≥10 samples lie beyond p99.
pub const CHAT_MIN_REQUESTS: usize = 1000;
/// SLO limits for `slo_attainment` on `chat_poisson`.
pub const CHAT_SLO_TTFT_MS: f64 = 50.0;
/// SLO limit on time per output token for `chat_poisson`.
pub const CHAT_SLO_TPOT_MS: f64 = 2.0;

/// `long_prompt_offline`: requests per burst (all arrive at t = 0).
pub const LONG_REQUESTS: usize = 250;
/// Azure-shaped long prompts.
pub const LONG_PROMPT: LengthDistribution = LengthDistribution::LogNormal {
    mu: 5.2,
    sigma: 0.6,
    min: 32,
    max: 512,
};
/// Short outputs.
pub const LONG_OUTPUT: LengthDistribution = LengthDistribution::LogNormal {
    mu: 2.0,
    sigma: 0.5,
    min: 2,
    max: 32,
};
/// KV sized well below the burst's ≈53k prompt tokens, so the KV
/// utilisation throttle binds.
pub const LONG_KV_BLOCKS: usize = 2048;
/// SLO limits for `slo_attainment` on `long_prompt_offline` (time from the
/// burst to the first token, and per output token).
pub const LONG_SLO_TTFT_MS: f64 = 7000.0;
/// SLO limit on time per output token for `long_prompt_offline`.
pub const LONG_SLO_TPOT_MS: f64 = 200.0;

/// Pipeline stages of both runtime workloads (`gllm serve`'s default).
pub const STAGES: usize = 2;

/// One request as the benchmark sends it.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRequest {
    /// Request id (unique within a server's lifetime).
    pub id: u64,
    /// Scheduled send time, seconds from the start of the window.
    pub send_s: f64,
    /// Prompt token ids.
    pub prompt: Vec<u32>,
    /// Output tokens to generate.
    pub max_new: usize,
}

/// Turn a length trace into token requests. Token ids come from a stream
/// seeded independently of the lengths, so both are fixed by `seed`.
fn materialise(trace: &Trace, seed: u64) -> Vec<BenchRequest> {
    let vocab = ModelConfig::tiny().vocab_size as u32;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x70b3_11f0_5eed_cafe);
    trace
        .requests
        .iter()
        .map(|r| BenchRequest {
            id: r.id,
            send_s: r.arrival_s,
            prompt: (0..r.prompt_len).map(|_| rng.gen_range(0..vocab)).collect(),
            max_new: r.output_len,
        })
        .collect()
}

/// `n` chat requests with Poisson gaps at `rate`.
pub fn chat_requests(seed: u64, rate: f64, n: usize) -> Vec<BenchRequest> {
    let dataset = Dataset::Custom {
        input: CHAT_PROMPT,
        output: CHAT_OUTPUT,
    };
    // A window long enough that the Poisson process yields ≥ n arrivals
    // with overwhelming probability; the surplus is dropped.
    let window = n as f64 / rate * 1.5 + 10.0;
    let mut trace = Trace::synthesize(dataset, ArrivalProcess::Poisson { rate }, window, 0, seed);
    assert!(
        trace.requests.len() >= n,
        "Poisson window too short for {n} requests"
    );
    trace.requests.truncate(n);
    materialise(&trace, seed)
}

/// Chat requests for a send window of `seconds`: the expected arrivals in
/// that window, but never fewer than [`CHAT_MIN_REQUESTS`].
pub fn chat_request_count(rate: f64, seconds: f64) -> usize {
    ((rate * seconds).round() as usize).max(CHAT_MIN_REQUESTS)
}

/// The offline burst: [`LONG_REQUESTS`] requests, all due at t = 0.
pub fn long_requests(seed: u64) -> Vec<BenchRequest> {
    let dataset = Dataset::Custom {
        input: LONG_PROMPT,
        output: LONG_OUTPUT,
    };
    let trace = Trace::synthesize(dataset, ArrivalProcess::Burst, 0.0, LONG_REQUESTS, seed);
    materialise(&trace, seed)
}

/// A fixed seeded sample of `k` distinct indices below `n`, sorted.
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a3b_1e00_0000_0001);
    let mut idx: Vec<usize> = (0..n).collect();
    // Partial Fisher-Yates: the first k slots become the sample.
    for i in 0..k.min(n) {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k.min(n));
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(reqs: &[BenchRequest]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in reqs {
            out.extend_from_slice(&r.id.to_le_bytes());
            out.extend_from_slice(&r.send_s.to_bits().to_le_bytes());
            out.extend_from_slice(&(r.max_new as u64).to_le_bytes());
            for t in &r.prompt {
                out.extend_from_slice(&t.to_le_bytes());
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_workload() {
        let a = chat_requests(7, CHAT_RATE, 300);
        let b = chat_requests(7, CHAT_RATE, 300);
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&chat_requests(8, CHAT_RATE, 300)));
        assert_eq!(bytes(&long_requests(3)), bytes(&long_requests(3)));
        assert_ne!(bytes(&long_requests(3)), bytes(&long_requests(4)));
        assert_eq!(sample_indices(100, 10, 5), sample_indices(100, 10, 5));
    }

    #[test]
    fn workloads_have_the_pinned_shape() {
        let chat = chat_requests(1, CHAT_RATE, 2000);
        assert_eq!(chat.len(), 2000);
        assert!(chat.windows(2).all(|w| w[0].send_s <= w[1].send_s));
        let span = chat.last().map_or(0.0, |r| r.send_s);
        assert!(
            (span - 2000.0 / CHAT_RATE).abs() < 8.0,
            "Poisson span {span}"
        );
        let mean_prompt = chat.iter().map(|r| r.prompt.len()).sum::<usize>() as f64 / 2000.0;
        assert!((35.0..55.0).contains(&mean_prompt), "{mean_prompt}");
        let long = long_requests(1);
        assert_eq!(long.len(), LONG_REQUESTS);
        assert!(long.iter().all(|r| r.send_s == 0.0));
        let prompt_tokens: usize = long.iter().map(|r| r.prompt.len()).sum();
        assert!(
            prompt_tokens > 4 * LONG_KV_BLOCKS * 4,
            "KV must be well below the burst"
        );
        assert_eq!(chat_request_count(CHAT_RATE, 10.0), CHAT_MIN_REQUESTS);
    }

    #[test]
    fn benchmark_json_states_the_pinned_parameters() {
        let doc = include_str!("../../BENCHMARK.json");
        for needle in [
            format!("{CHAT_RATE} req/s"),
            format!("TTFT<={CHAT_SLO_TTFT_MS}ms"),
            format!("TPOT<={CHAT_SLO_TPOT_MS}ms"),
            format!("TTFT<={LONG_SLO_TTFT_MS}ms TPOT<={LONG_SLO_TPOT_MS}ms"),
            format!("kv {CHAT_KV_BLOCKS}x4"),
            format!("kv {LONG_KV_BLOCKS}x4"),
            format!("{LONG_REQUESTS} requests"),
        ] {
            assert!(doc.contains(&needle), "BENCHMARK.json lacks {needle:?}");
        }
    }
}
