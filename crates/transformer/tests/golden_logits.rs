//! Cross-version bit-identity of the transformer forward pass.
//!
//! A seeded workload of mixed prefill chunks and decode steps runs through
//! `CausalLM::forward_batch` over a deliberately fragmented KV cache, and
//! every logit's `f32::to_bits` is folded into one FNV-1a hash. The pinned
//! value was computed with the per-token `matvec` forward, before the
//! token-batched GEMM pass replaced it, so this test fails if any later
//! change to kernels, tiling, attention or KV layout moves a single bit.
//!
//! A second workload runs at the benchmark's shapes: prompts of 32–512
//! tokens, prefilled in chunks of up to 160 tokens that cross the 32-token
//! tile, on two stages over 8192 KV slots. Its hash was pinned on the
//! scalar-`exp`, SSE2-only forward, before the run-time AVX2 kernels.

use gllm_model::ModelConfig;
use gllm_transformer::{BatchChunk, CausalLM};

/// FNV-1a over the logits of the workload, computed with the per-token
/// forward pass that preceded the token-batched one.
const GOLDEN_HASH: u64 = 9_028_986_549_216_611_436;

/// FNV-1a over the logits of [`LONG`] on two stages, computed before the
/// run-time AVX2 kernels.
const GOLDEN_HASH_LONG: u64 = 5_518_713_645_765_782_906;

/// The shape of a seeded workload.
struct Shape {
    /// KV capacity as `(blocks, block size)`.
    kv: (usize, usize),
    /// Scheduler steps to run.
    steps: usize,
    /// Most sequences in flight.
    max_active: usize,
    /// Prompt lengths are `prompt.0 + below(prompt.1)`.
    prompt: (usize, u64),
    /// Prefill chunks are `1 + below(chunk)` tokens.
    chunk: u64,
}

/// Short prompts, small chunks, a fragmented 640-slot cache.
const SHORT: Shape = Shape { kv: (160, 4), steps: 40, max_active: 6, prompt: (1, 90), chunk: 40 };

/// The benchmark's long-prompt shapes: 32–512-token prompts, chunks of up
/// to 160 tokens, 8192 slots.
const LONG: Shape =
    Shape { kv: (2048, 4), steps: 64, max_active: 4, prompt: (32, 481), chunk: 160 };

/// Splitmix64 step: a self-contained generator so the workload does not
/// depend on any RNG crate's stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: u64) -> u64 {
    next(state) % n
}

fn fnv(hash: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

struct Seq {
    id: u64,
    prompt: Vec<u32>,
    pos: usize,
    decode_left: usize,
    next_token: u32,
}

/// Run the seeded workload of `shape` on a `stages`-stage model and hash
/// its logits.
fn workload_hash(shape: &Shape, stages: usize) -> u64 {
    let cfg = ModelConfig::tiny();
    let vocab = cfg.vocab_size as u64;
    let mut lm = CausalLM::new(cfg, stages, shape.kv.0, shape.kv.1, 2024);
    let mut rng = 0x5EED_u64;
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    let mut active: Vec<Seq> = Vec::new();
    let mut next_id = 1u64;
    for _step in 0..shape.steps {
        // Admit up to two new sequences per step while the batch is small.
        for _ in 0..2 {
            if active.len() < shape.max_active && below(&mut rng, 3) != 0 {
                let len = shape.prompt.0 + below(&mut rng, shape.prompt.1) as usize;
                let prompt = (0..len).map(|_| below(&mut rng, vocab) as u32).collect();
                let decode_left = 1 + below(&mut rng, 6) as usize;
                active.push(Seq { id: next_id, prompt, pos: 0, decode_left, next_token: 0 });
                next_id += 1;
            }
        }
        let mut chunks = Vec::new();
        for s in &active {
            if s.pos < s.prompt.len() {
                let take = (1 + below(&mut rng, shape.chunk) as usize).min(s.prompt.len() - s.pos);
                let last = s.pos + take == s.prompt.len();
                chunks.push(BatchChunk {
                    seq: s.id,
                    start_pos: s.pos,
                    tokens: s.prompt[s.pos..s.pos + take].to_vec(),
                    sample: last,
                });
            } else {
                chunks.push(BatchChunk {
                    seq: s.id,
                    start_pos: s.pos,
                    tokens: vec![s.next_token],
                    sample: true,
                });
            }
        }
        if chunks.is_empty() {
            continue;
        }
        let out = lm.forward_batch(&chunks).expect("workload fits the KV cache");
        for (seq, logits) in &out {
            fnv(&mut hash, *seq);
            for l in logits {
                fnv(&mut hash, u64::from(l.to_bits()));
            }
        }
        for c in &chunks {
            let s = active.iter_mut().find(|s| s.id == c.seq).expect("active");
            let was_decode = s.pos >= s.prompt.len();
            s.pos += c.tokens.len();
            if let Some((_, logits)) = out.iter().find(|(id, _)| *id == c.seq) {
                s.next_token = gllm_transformer::sampler::argmax(logits);
                if was_decode {
                    s.decode_left -= 1;
                }
            }
        }
        // Finished sequences free their blocks, fragmenting the cache for
        // the sequences admitted after them.
        for s in active.iter().filter(|s| s.decode_left == 0) {
            lm.release(s.id).expect("release");
        }
        active.retain(|s| s.decode_left > 0);
    }
    hash
}

#[test]
fn logits_hash_matches_the_per_token_forward_at_every_depth() {
    let hashes: Vec<u64> = [1, 2, 4].into_iter().map(|s| workload_hash(&SHORT, s)).collect();
    assert_eq!(
        hashes,
        [GOLDEN_HASH; 3],
        "logits at 1, 2 and 4 stages differ from the pinned per-token forward"
    );
}

#[test]
fn long_prompt_logits_hash_matches_the_scalar_forward() {
    assert_eq!(
        workload_hash(&LONG, 2),
        GOLDEN_HASH_LONG,
        "logits of the long-prompt workload differ from the pinned scalar forward"
    );
}
