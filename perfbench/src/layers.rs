//! Direct timed calls into single layers at the shapes the workloads
//! produce: transformer forward passes, the dense kernels, the KV manager
//! and the HTTP frontend.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gllm_core::TokenThrottle;
use gllm_frontend::ApiServer;
use gllm_kvcache::{Blocks, KvCacheManager, Tokens};
use gllm_model::ModelConfig;
use gllm_transformer::{kernels, BatchChunk, CausalLM};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Metrics;
use crate::runtime::runtime_config;
use crate::stats;
use crate::workload::{BenchRequest, CHAT_KV_BLOCKS, STAGES};

/// Decode batch sizes timed by [`transformer`].
pub const DECODE_BATCHES: [usize; 3] = [1, 16, 64];
/// The tiny model's projection shapes (rows × cols): Q/O, K/V, gate/up,
/// down and the LM head.
pub const MATVEC_SHAPES: [(usize, usize); 5] =
    [(64, 64), (32, 64), (128, 64), (64, 128), (256, 64)];
/// Attention row lengths timed for softmax.
pub const SOFTMAX_LENS: [usize; 3] = [64, 256, 512];

/// Measured transformer costs, used again to reconcile batch times.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransformerCosts {
    /// Prefill throughput over the workload's chunk sizes, tokens/s.
    pub prefill_tok_per_s: f64,
    /// Median decode step, µs, at each of [`DECODE_BATCHES`].
    pub decode_step_us: [f64; 3],
}

impl TransformerCosts {
    /// Predicted full-model forward time of a batch, µs: prefill tokens at
    /// the measured rate plus a decode step interpolated between the
    /// measured batch sizes.
    pub fn predict_us(&self, prefill_tokens: usize, decode_seqs: usize) -> f64 {
        let prefill = prefill_tokens as f64 / self.prefill_tok_per_s.max(f64::MIN_POSITIVE) * 1e6;
        if decode_seqs == 0 {
            return prefill;
        }
        // Linear between the measured batch sizes (extrapolated past 64).
        let n = decode_seqs as f64;
        let k = if decode_seqs <= DECODE_BATCHES[1] {
            0
        } else {
            1
        };
        let (x0, x1) = (DECODE_BATCHES[k] as f64, DECODE_BATCHES[k + 1] as f64);
        let (y0, y1) = (self.decode_step_us[k], self.decode_step_us[k + 1]);
        prefill + (y0 + (n - x0) * (y1 - y0) / (x1 - x0)).max(0.0)
    }
}

fn tokens(rng: &mut StdRng, n: usize) -> Vec<u32> {
    (0..n).map(|_| rng.gen_range(0..256u32)).collect()
}

/// Time `CausalLM::forward_batch` on the workload's prefill chunk sizes
/// and on decode batches of one-token chunks at context `decode_ctx`.
pub fn transformer(
    chunk_sizes: &[usize],
    decode_ctx: usize,
    budget: Duration,
    m: &mut Metrics,
) -> TransformerCosts {
    let cfg = runtime_config(1, CHAT_KV_BLOCKS);
    let mut rng = StdRng::seed_from_u64(11);
    let mut costs = TransformerCosts::default();

    // Prefill: fresh sequences, one chunk each, cycling through the sizes.
    let mut lm = CausalLM::new(
        cfg.model.clone(),
        1,
        cfg.kv_blocks,
        cfg.block_size,
        cfg.seed,
    );
    let (mut toks, mut secs) = (0usize, 0.0f64);
    let start = Instant::now();
    for (i, &n) in chunk_sizes.iter().cycle().enumerate() {
        if start.elapsed() >= budget && i >= chunk_sizes.len() {
            break;
        }
        let chunk = BatchChunk {
            seq: i as u64,
            start_pos: 0,
            tokens: tokens(&mut rng, n),
            sample: true,
        };
        let t = Instant::now();
        black_box(
            lm.forward_batch(std::slice::from_ref(&chunk))
                .expect("prefill fits"),
        );
        secs += t.elapsed().as_secs_f64();
        toks += n;
        lm.release(i as u64).expect("live sequence");
    }
    costs.prefill_tok_per_s = toks as f64 / secs.max(f64::MIN_POSITIVE);
    m.add(
        "transformer.prefill_tok_per_s",
        costs.prefill_tok_per_s,
        "tok/s",
    );

    // Decode: `b` sequences prefilled to `decode_ctx`, then timed steps.
    const STEPS: usize = 12;
    let blocks = (DECODE_BATCHES[2] * (decode_ctx + STEPS + 4)).div_ceil(cfg.block_size) + 64;
    for (k, &b) in DECODE_BATCHES.iter().enumerate() {
        let mut lm = CausalLM::new(cfg.model.clone(), 1, blocks, cfg.block_size, cfg.seed);
        for s in 0..b as u64 {
            let chunk = BatchChunk {
                seq: s,
                start_pos: 0,
                tokens: tokens(&mut rng, decode_ctx),
                sample: false,
            };
            lm.forward_batch(std::slice::from_ref(&chunk))
                .expect("context fits");
        }
        let mut times = Vec::with_capacity(STEPS);
        for step in 0..STEPS {
            let chunks: Vec<BatchChunk> = (0..b as u64)
                .map(|s| BatchChunk {
                    seq: s,
                    start_pos: decode_ctx + step,
                    tokens: tokens(&mut rng, 1),
                    sample: true,
                })
                .collect();
            let t = Instant::now();
            black_box(lm.forward_batch(&chunks).expect("decode fits"));
            times.push(t.elapsed().as_secs_f64() * 1e6);
        }
        costs.decode_step_us[k] = stats::median(&times).unwrap_or(0.0);
    }
    m.add(
        "transformer.decode_step_us_b1",
        costs.decode_step_us[0],
        "us",
    );
    m.add(
        "transformer.decode_step_us_b16",
        costs.decode_step_us[1],
        "us",
    );
    m.add(
        "transformer.decode_step_us_b64",
        costs.decode_step_us[2],
        "us",
    );
    costs
}

/// Median over `reps` of the mean ns per call of `f`, each rep running
/// `f` until `per_rep` has passed.
fn ns_per_call(reps: usize, per_rep: Duration, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (t, mut n) = (Instant::now(), 0u64);
        while t.elapsed() < per_rep {
            for _ in 0..64 {
                f();
            }
            n += 64;
        }
        samples.push(t.elapsed().as_nanos() as f64 / n as f64);
    }
    stats::median(&samples).unwrap_or(0.0)
}

/// Time the dense kernels at the tiny model's shapes. FLOPs and bytes are
/// computed from tensor sizes (f32), not measured.
pub fn kernels(m: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(12);
    let mut randv =
        |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect() };
    let (mut flop, mut bytes, mut ns_total) = (0.0, 0.0, 0.0);
    for (rows, cols) in MATVEC_SHAPES {
        let (w, x, mut y) = (randv(rows * cols), randv(cols), vec![0.0f32; rows]);
        let ns = ns_per_call(5, Duration::from_millis(20), || {
            kernels::matvec(black_box(&w), black_box(&x), &mut y, rows, cols);
            black_box(&y);
        });
        m.add(&format!("kernels.matvec_ns.{rows}x{cols}"), ns, "ns");
        flop += 2.0 * (rows * cols) as f64;
        bytes += 4.0 * (rows * cols + rows + cols) as f64;
        ns_total += ns;
    }
    m.add("kernels.matvec_flop", flop, "flop");
    m.add("kernels.matvec_bytes", bytes, "B");
    m.add(
        "kernels.matvec_gflop_per_s",
        flop / ns_total.max(f64::MIN_POSITIVE),
        "Gflop/s",
    );
    let hidden = ModelConfig::tiny().hidden_size;
    let head_dim = ModelConfig::tiny().head_dim;
    let (mut x, gain) = (randv(hidden), randv(hidden));
    let ns = ns_per_call(5, Duration::from_millis(20), || {
        kernels::rmsnorm(black_box(&mut x), black_box(&gain), 1e-5);
    });
    m.add("kernels.rmsnorm_ns", ns, "ns");
    let mut head = randv(head_dim);
    let ns = ns_per_call(5, Duration::from_millis(20), || {
        kernels::rope(black_box(&mut head), black_box(37));
    });
    m.add("kernels.rope_ns", ns, "ns");
    for len in SOFTMAX_LENS {
        let src = randv(len);
        let mut row = src.clone();
        let ns = ns_per_call(5, Duration::from_millis(20), || {
            row.copy_from_slice(&src);
            kernels::softmax(black_box(&mut row));
        });
        m.add(&format!("kernels.softmax_ns.{len}"), ns, "ns");
    }
}

/// Time `append`/`free` cycles on a `KvCacheManager`: each request's
/// prompt in one append, then one append per output token, then free.
pub fn kv_append_free(
    lengths: &[(usize, usize)],
    kv_blocks: usize,
    block_size: usize,
    m: &mut Metrics,
) {
    let mut kvm = KvCacheManager::new(Blocks(kv_blocks), Tokens(block_size));
    let mut times = Vec::new();
    let start = Instant::now();
    for (i, &(prompt, output)) in lengths.iter().cycle().enumerate() {
        if start.elapsed() >= Duration::from_millis(300) && i >= lengths.len() {
            break;
        }
        let seq = i as u64;
        let t = Instant::now();
        kvm.append(seq, Tokens(prompt))
            .expect("request fits the KV cache");
        for _ in 0..output {
            kvm.append(seq, Tokens(1))
                .expect("request fits the KV cache");
        }
        kvm.free(seq).expect("live sequence");
        times.push(t.elapsed().as_secs_f64() * 1e6);
        black_box(&kvm);
    }
    m.add(
        "kvcache.append_free_us",
        stats::median(&times).unwrap_or(0.0),
        "us",
    );
}

/// Closed loop with two connections against `ApiServer` for `dur`: each
/// connection posts a streaming completion, reads the SSE stream to the
/// end, and posts the next. Records throughput, TTFT, connect time and the
/// gaps between SSE events.
pub fn frontend(reqs: &[BenchRequest], dur: Duration, m: &mut Metrics) {
    let cfg = runtime_config(STAGES, CHAT_KV_BLOCKS);
    let server = ApiServer::start(cfg, Arc::new(TokenThrottle::default()), "127.0.0.1:0")
        .expect("bind an ephemeral loopback port");
    let addr = server.addr();
    let start = Instant::now();
    let client = |conn: usize| {
        let (mut ttft, mut connect, mut gaps, mut done) =
            (Vec::new(), Vec::new(), Vec::new(), 0usize);
        for r in reqs.iter().skip(conn).step_by(2).cycle() {
            if start.elapsed() >= dur {
                break;
            }
            let prompt: String = r
                .prompt
                .iter()
                .map(|t| char::from(b'a' + (t % 26) as u8))
                .collect();
            let body = format!(
                "{{\"prompt\":\"{prompt}\",\"max_tokens\":{},\"stream\":true}}",
                r.max_new
            );
            let t = Instant::now();
            let Ok(mut s) = TcpStream::connect(addr) else {
                continue;
            };
            connect.push(t.elapsed().as_secs_f64() * 1e6);
            let head = format!(
                "POST /v1/completions HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                body.len()
            );
            if s.write_all(head.as_bytes())
                .and_then(|()| s.write_all(body.as_bytes()))
                .is_err()
            {
                continue;
            }
            let mut reader = BufReader::new(s);
            let (mut line, mut last) = (String::new(), None::<Instant>);
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let Some(data) = line.trim().strip_prefix("data: ") else {
                    continue;
                };
                if data == "[DONE]" {
                    done += 1;
                    break;
                }
                let now = Instant::now();
                match last {
                    None => ttft.push(now.duration_since(t).as_secs_f64() * 1e3),
                    Some(prev) => gaps.push(now.duration_since(prev).as_secs_f64() * 1e6),
                }
                last = Some(now);
            }
        }
        (ttft, connect, gaps, done)
    };
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2).map(|c| s.spawn(move || client(c))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("HTTP client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    server.shutdown();
    let (mut ttft, mut connect, mut gaps, mut done) = (Vec::new(), Vec::new(), Vec::new(), 0);
    for (a, b, c, d) in results {
        ttft.extend(a);
        connect.extend(b);
        gaps.extend(c);
        done += d;
    }
    m.add("frontend.req_per_s_2conn", done as f64 / elapsed, "req/s");
    m.add(
        "frontend.ttft_ms_p50",
        stats::median(&ttft).unwrap_or(0.0),
        "ms",
    );
    m.add(
        "frontend.connect_us_p50",
        stats::median(&connect).unwrap_or(0.0),
        "us",
    );
    m.add(
        "frontend.sse_gap_us_p50",
        stats::median(&gaps).unwrap_or(0.0),
        "us",
    );
    m.add_tail("frontend.sse_gap_us_p99", &gaps, 99.0, "us");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_interpolates_the_measured_decode_steps() {
        let c = TransformerCosts {
            prefill_tok_per_s: 1000.0,
            decode_step_us: [100.0, 1000.0, 4000.0],
        };
        assert_eq!(c.predict_us(10, 0), 10_000.0);
        assert_eq!(c.predict_us(0, 1), 100.0);
        assert_eq!(c.predict_us(0, 16), 1000.0);
        assert_eq!(c.predict_us(0, 40), 2500.0);
        assert_eq!(c.predict_us(0, 64), 4000.0);
        assert_eq!(c.predict_us(5, 128), 5000.0 + 8000.0);
    }
}
