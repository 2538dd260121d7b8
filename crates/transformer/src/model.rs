//! One pipeline stage of the transformer.
//!
//! A [`StageModel`] owns a contiguous range of decoder layers (plus the
//! embedding table on the first stage and the final-norm/LM-head on the
//! last), and the paged KV storage for exactly those layers — mirroring how
//! the paper's workers each hold their stage's weights and KV while sharing
//! the driver's unified page tables.
//!
//! `forward` processes a micro-batch of [`BatchChunk`]s (prefill chunks
//! and/or decode steps) one layer at a time, walking the batch's tokens in
//! fixed tiles of [`TILE`] rows. Each projection is one [`matmul_t`] GEMM
//! per tile, and attention scores against a per-(chunk, tile) transposed
//! copy of the chunk's keys. Every output still sums in the same fixed
//! order as a token-at-a-time pass, so batching, tiling and pipelining
//! cannot change results.

use std::ops::Range;

use gllm_kvcache::PageTable;
use gllm_model::ModelConfig;

use crate::kernels::{
    add_assign, matmul_t, matvec, rmsnorm, rope_rotate, rope_sin_cos, softmax, swiglu,
};
use crate::kvstore::PagedKvStore;
use crate::weights::{
    gen_embedding, gen_final_norm, gen_layer, gen_lm_head, LayerWeights,
};

/// RMSNorm epsilon (Llama/Qwen convention).
const NORM_EPS: f32 = 1e-5;

/// Token rows per tile of the layer pass. Scratch is sized by this, never
/// by the micro-batch.
const TILE: usize = 32;

/// One sequence's slice of a micro-batch.
#[derive(Debug, Clone)]
pub struct BatchChunk {
    /// Sequence id (for diagnostics; the page table is passed alongside).
    pub seq: u64,
    /// Global position of the first new token.
    pub start_pos: usize,
    /// New token ids (1 for a decode step, the chunk for a prefill).
    pub tokens: Vec<u32>,
    /// Whether to produce logits for the chunk's last token.
    pub sample: bool,
}

/// A decoder layer with its projections stored k-major (`cols × rows`)
/// for [`matmul_t`]. Q/K/V share one matrix, as do gate/up: stacking rows
/// leaves every output's sum unchanged.
struct Layer {
    attn_norm: Vec<f32>,
    /// `hidden × (q_dim + 2·kv_dim)`: each output row is Q, then K, then V.
    wqkv: Vec<f32>,
    /// `q_dim × hidden`.
    wo: Vec<f32>,
    mlp_norm: Vec<f32>,
    /// `hidden × 2·intermediate`: each output row is gate, then up.
    w_gate_up: Vec<f32>,
    /// `intermediate × hidden`.
    w_down: Vec<f32>,
}

impl Layer {
    fn new(cfg: &ModelConfig, w: LayerWeights) -> Self {
        let h = cfg.hidden_size;
        Self {
            wqkv: k_major(&[&w.wq, &w.wk, &w.wv], h),
            wo: k_major(&[&w.wo], cfg.q_dim()),
            w_gate_up: k_major(&[&w.w_gate, &w.w_up], h),
            w_down: k_major(&[&w.w_down], cfg.intermediate_size),
            attn_norm: w.attn_norm,
            mlp_norm: w.mlp_norm,
        }
    }
}

/// Stack row-major `· × cols` matrices along their rows and store the
/// result k-major (`cols × total rows`).
fn k_major(parts: &[&[f32]], cols: usize) -> Vec<f32> {
    let rows: usize = parts.iter().map(|p| p.len() / cols).sum();
    let mut out = vec![0.0; rows * cols];
    for (r, row) in parts.iter().flat_map(|p| p.chunks_exact(cols)).enumerate() {
        for (k, &v) in row.iter().enumerate() {
            out[k * rows + r] = v;
        }
    }
    out
}

/// Tokens `span` of chunk `chunk`: one piece of a tile.
#[derive(Debug)]
struct Segment {
    chunk: usize,
    span: Range<usize>,
}

/// What every layer of one `forward` shares: the micro-batch's KV slots
/// and tiles, plus a RoPE table that persists across calls.
#[derive(Default)]
struct BatchPlan {
    /// RoPE `(sin, cos)` for every position seen, `head_dim / 2` each.
    rope: Vec<(f32, f32)>,
    /// Every chunk's `slot_of` list for positions `0..start_pos + len`,
    /// back to back.
    slots: Vec<usize>,
    /// Start of each chunk's list in `slots`.
    slot_at: Vec<usize>,
    /// The batch cut into tiles of at most [`TILE`] tokens.
    segments: Vec<Segment>,
    /// End of each tile in `segments`.
    tile_ends: Vec<usize>,
}

impl BatchPlan {
    /// Gather the slot lists, cut the batch into tiles and extend the RoPE
    /// table to the batch's last position.
    fn build(&mut self, chunks: &[BatchChunk], tables: &[&PageTable], head_dim: usize) {
        let half = head_dim / 2;
        let end = chunks.iter().map(|c| c.start_pos + c.tokens.len()).max().unwrap_or(0);
        for pos in self.rope.len() / half..end {
            self.rope.extend((0..half).map(|i| rope_sin_cos(pos, i, head_dim)));
        }
        self.slots.clear();
        self.slot_at.clear();
        self.segments.clear();
        self.tile_ends.clear();
        let mut fill = 0;
        for (ci, (c, table)) in chunks.iter().zip(tables).enumerate() {
            self.slot_at.push(self.slots.len());
            self.slots.extend((0..c.start_pos + c.tokens.len()).map(|p| table.slot_of(p)));
            let mut a = 0;
            while a < c.tokens.len() {
                let b = c.tokens.len().min(a + TILE - fill);
                self.segments.push(Segment { chunk: ci, span: a..b });
                fill += b - a;
                a = b;
                if fill == TILE {
                    self.tile_ends.push(self.segments.len());
                    fill = 0;
                }
            }
        }
        if fill > 0 {
            self.tile_ends.push(self.segments.len());
        }
    }

    /// Chunk `chunk`'s slots for positions `0..ctx`.
    fn slots(&self, chunk: usize, ctx: usize) -> &[usize] {
        &self.slots[self.slot_at[chunk]..self.slot_at[chunk] + ctx]
    }
}

/// Working buffers owned by the stage. Per-token rows are sized by
/// [`TILE`]; the attention buffers by the longest context seen so far.
#[derive(Default)]
struct Scratch {
    normed: Vec<f32>,
    qkv: Vec<f32>,
    attn: Vec<f32>,
    proj: Vec<f32>,
    gate_up: Vec<f32>,
    act: Vec<f32>,
    /// One chunk's keys transposed, `kv_dim × ctx`.
    keys_t: Vec<f32>,
    /// One KV head group's queries for a segment, `group·tokens × head_dim`.
    queries: Vec<f32>,
    /// Their scores against the gathered keys, `group·tokens × ctx`.
    scores: Vec<f32>,
}

impl Scratch {
    fn new(cfg: &ModelConfig) -> Self {
        let row = |width: usize| vec![0.0; TILE * width];
        Self {
            normed: row(cfg.hidden_size),
            qkv: row(cfg.q_dim() + 2 * cfg.kv_dim()),
            attn: row(cfg.q_dim()),
            proj: row(cfg.hidden_size),
            gate_up: row(2 * cfg.intermediate_size),
            act: row(cfg.intermediate_size),
            ..Self::default()
        }
    }
}

/// A contiguous range of decoder layers plus optional ends of the model.
pub struct StageModel {
    cfg: ModelConfig,
    layer_range: Range<usize>,
    layers: Vec<Layer>,
    embedding: Option<Vec<f32>>,
    final_norm: Option<Vec<f32>>,
    lm_head: Option<Vec<f32>>,
    kv: PagedKvStore,
    plan: BatchPlan,
    scratch: Scratch,
}

impl StageModel {
    /// Build the stage holding `layer_range` of `cfg`, with KV capacity
    /// `kv_slots` tokens. Weights derive from `seed` per absolute layer
    /// index, so any partitioning of the same `(cfg, seed)` pair is the
    /// same model. `is_first`/`is_last` attach the embedding / LM head.
    pub fn new(
        cfg: ModelConfig,
        layer_range: Range<usize>,
        kv_slots: usize,
        seed: u64,
        is_first: bool,
        is_last: bool,
    ) -> Self {
        assert!(layer_range.end <= cfg.num_layers);
        let layers =
            layer_range.clone().map(|l| Layer::new(&cfg, gen_layer(&cfg, seed, l))).collect();
        Self {
            embedding: is_first.then(|| gen_embedding(&cfg, seed)),
            final_norm: is_last.then(|| gen_final_norm(&cfg, seed)),
            lm_head: is_last.then(|| gen_lm_head(&cfg, seed)),
            kv: PagedKvStore::new(layer_range.len(), kv_slots, cfg.kv_dim()),
            plan: BatchPlan::default(),
            scratch: Scratch::new(&cfg),
            cfg,
            layer_range,
            layers,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The absolute layer range this stage owns.
    pub fn layer_range(&self) -> Range<usize> {
        self.layer_range.clone()
    }

    /// Embed a micro-batch's token ids into hidden rows (first stage only).
    /// Returns one `tokens × hidden` buffer per chunk.
    pub fn embed(&self, chunks: &[BatchChunk]) -> Vec<Vec<f32>> {
        let table = self.embedding.as_ref().expect("embed on a non-first stage");
        let h = self.cfg.hidden_size;
        chunks
            .iter()
            .map(|c| {
                let mut rows = Vec::with_capacity(c.tokens.len() * h);
                for &tok in &c.tokens {
                    let tok = tok as usize;
                    assert!(tok < self.cfg.vocab_size, "token id {tok} out of vocab");
                    rows.extend_from_slice(&table[tok * h..(tok + 1) * h]);
                }
                rows
            })
            .collect()
    }

    /// Run this stage's decoder layers over the micro-batch, mutating the
    /// hidden rows in place. `tables[i]` is chunk `i`'s page table and must
    /// already cover `start_pos + tokens.len()` slots.
    ///
    /// Tiles run in token order, so every key a token attends to was
    /// written by its own tile or an earlier one.
    pub fn forward(&mut self, chunks: &[BatchChunk], tables: &[&PageTable], hidden: &mut [Vec<f32>]) {
        assert_eq!(chunks.len(), tables.len());
        assert_eq!(chunks.len(), hidden.len());
        let Self { cfg, layers, kv, plan, scratch, .. } = self;
        plan.build(chunks, tables, cfg.head_dim);
        for (local, layer) in layers.iter().enumerate() {
            let mut from = 0;
            for &to in &plan.tile_ends {
                let tile = &plan.segments[from..to];
                run_tile(cfg, layer, kv, local, chunks, hidden, plan, tile, scratch);
                from = to;
            }
        }
    }

    /// Final norm + LM head for every chunk with `sample == true` (last
    /// stage only). Returns `(seq, logits)` in chunk order.
    pub fn project(&self, chunks: &[BatchChunk], hidden: &[Vec<f32>]) -> Vec<(u64, Vec<f32>)> {
        let norm = self.final_norm.as_ref().expect("project on a non-last stage");
        let head = self.lm_head.as_ref().expect("project on a non-last stage");
        let h = self.cfg.hidden_size;
        let v = self.cfg.vocab_size;
        chunks
            .iter()
            .zip(hidden)
            .filter(|(c, _)| c.sample)
            .map(|(c, hrows)| {
                let last = &hrows[(c.tokens.len() - 1) * h..c.tokens.len() * h];
                let mut x = last.to_vec();
                rmsnorm(&mut x, norm, NORM_EPS);
                let mut logits = vec![0.0f32; v];
                matvec(head, &x, &mut logits, v, h);
                (c.seq, logits)
            })
            .collect()
    }
}

/// One layer over one tile of `segments`: RMSNorm → QKV GEMM
/// → RoPE → KV write → attention → `wo` GEMM → residual → SwiGLU GEMMs →
/// residual.
#[allow(clippy::too_many_arguments)]
fn run_tile(
    cfg: &ModelConfig,
    layer: &Layer,
    kv: &mut PagedKvStore,
    local: usize,
    chunks: &[BatchChunk],
    hidden: &mut [Vec<f32>],
    plan: &BatchPlan,
    segments: &[Segment],
    s: &mut Scratch,
) {
    let h = cfg.hidden_size;
    let qd = cfg.q_dim();
    let kvd = cfg.kv_dim();
    let hd = cfg.head_dim;
    let inter = cfg.intermediate_size;
    let width = qd + 2 * kvd;
    let n: usize = segments.iter().map(|g| g.span.len()).sum();
    // Tile rows in order, as (chunk, token index within the chunk).
    let rows = || segments.iter().flat_map(|g| g.span.clone().map(move |t| (g.chunk, t)));

    for (r, (ci, t)) in rows().enumerate() {
        let x = &mut s.normed[r * h..(r + 1) * h];
        x.copy_from_slice(&hidden[ci][t * h..(t + 1) * h]);
        rmsnorm(x, &layer.attn_norm, NORM_EPS);
    }
    matmul_t(&layer.wqkv, &s.normed[..n * h], &mut s.qkv[..n * width], n, width, h);
    let half = hd / 2;
    for (r, (ci, t)) in rows().enumerate() {
        let pos = chunks[ci].start_pos + t;
        let row = &mut s.qkv[r * width..(r + 1) * width];
        for head in row[..qd + kvd].chunks_exact_mut(hd) {
            rope_rotate(head, &plan.rope[pos * half..(pos + 1) * half]);
        }
        let (k, v) = row[qd..].split_at(kvd);
        kv.write(local, plan.slots(ci, pos + 1)[pos], k, v);
    }

    let mut r0 = 0;
    for g in segments {
        let c = &chunks[g.chunk];
        let slots = plan.slots(g.chunk, c.start_pos + g.span.end);
        gather_keys(kv, local, slots, &mut s.keys_t);
        attend(cfg, kv, local, slots, c.start_pos + g.span.start, g.span.len(), r0, s);
        r0 += g.span.len();
    }
    matmul_t(&layer.wo, &s.attn[..n * qd], &mut s.proj[..n * h], n, h, qd);
    for (r, (ci, t)) in rows().enumerate() {
        let row = &mut hidden[ci][t * h..(t + 1) * h];
        add_assign(row, &s.proj[r * h..(r + 1) * h]);
        let x = &mut s.normed[r * h..(r + 1) * h];
        x.copy_from_slice(row);
        rmsnorm(x, &layer.mlp_norm, NORM_EPS);
    }

    // SwiGLU MLP.
    let gate_up = &mut s.gate_up[..n * 2 * inter];
    matmul_t(&layer.w_gate_up, &s.normed[..n * h], gate_up, n, 2 * inter, h);
    let act = &mut s.act[..n * inter];
    for (a_row, gu) in act.chunks_exact_mut(inter).zip(gate_up.chunks_exact(2 * inter)) {
        let (gate, up) = gu.split_at(inter);
        swiglu(gate, up, a_row);
    }
    matmul_t(&layer.w_down, act, &mut s.proj[..n * h], n, h, inter);
    for (r, (ci, t)) in rows().enumerate() {
        add_assign(&mut hidden[ci][t * h..(t + 1) * h], &s.proj[r * h..(r + 1) * h]);
    }
}

/// Positions per block of [`gather_keys`].
const GATHER_LANES: usize = 8;

/// Copy the keys of `slots` transposed (`kv_dim × ctx`), so the scores
/// vectorise across positions. Blocks of [`GATHER_LANES`] positions write
/// each of their `kv_dim` rows in one store.
fn gather_keys(kv: &PagedKvStore, layer: usize, slots: &[usize], keys_t: &mut Vec<f32>) {
    keys_t.resize(kv.kv_dim() * slots.len(), 0.0);
    let mut j0 = 0;
    while j0 + GATHER_LANES <= slots.len() {
        gather_block::<GATHER_LANES>(kv, layer, slots, j0, keys_t);
        j0 += GATHER_LANES;
    }
    for j in j0..slots.len() {
        gather_block::<1>(kv, layer, slots, j, keys_t);
    }
}

/// Positions `j0..j0 + B` of [`gather_keys`].
#[inline(always)]
fn gather_block<const B: usize>(
    kv: &PagedKvStore,
    layer: usize,
    slots: &[usize],
    j0: usize,
    keys_t: &mut [f32],
) {
    let keys: [&[f32]; B] = std::array::from_fn(|b| kv.key(layer, slots[j0 + b]));
    for (d, row) in keys_t.chunks_exact_mut(slots.len()).enumerate() {
        let dst: &mut [f32; B] = (&mut row[j0..j0 + B]).try_into().expect("block width");
        for (x, key) in dst.iter_mut().zip(&keys) {
            *x = key[d];
        }
    }
}

/// Grouped-query attention for the `n` tokens of one segment, the first
/// at position `pos0` and in tile row `r0`, over the chunk's `slots`.
///
/// Per KV head, the scores of the group's queries are one [`matmul_t`]
/// against the transposed keys: each sums `q·k` in `d` order, exactly as
/// a per-position dot product. Scores past a token's own position are
/// computed but never read. Each output then sums `p·v` in position order.
#[allow(clippy::too_many_arguments)]
fn attend(
    cfg: &ModelConfig,
    kv: &PagedKvStore,
    layer: usize,
    slots: &[usize],
    pos0: usize,
    n: usize,
    r0: usize,
    s: &mut Scratch,
) {
    let hd = cfg.head_dim;
    let qd = cfg.q_dim();
    let width = qd + 2 * cfg.kv_dim();
    let group = cfg.num_heads / cfg.num_kv_heads;
    let scale = 1.0 / (hd as f32).sqrt();
    let ctx = pos0 + n;
    let rows = group * n;
    s.queries.resize(rows * hd, 0.0);
    s.scores.resize(rows * ctx, 0.0);
    for kvh in 0..cfg.num_kv_heads {
        let heads = kvh * group..(kvh + 1) * group;
        let token_heads = || heads.clone().flat_map(|h| (0..n).map(move |i| (h, i)));
        for (q, (head, i)) in s.queries.chunks_exact_mut(hd).zip(token_heads()) {
            let at = (r0 + i) * width + head * hd;
            q.copy_from_slice(&s.qkv[at..at + hd]);
        }
        let keys = &s.keys_t[kvh * hd * ctx..(kvh + 1) * hd * ctx];
        matmul_t(keys, &s.queries, &mut s.scores[..rows * ctx], rows, ctx, hd);
        for (sc, (head, i)) in s.scores.chunks_exact_mut(ctx).zip(token_heads()) {
            let sc = &mut sc[..pos0 + i + 1];
            for x in sc.iter_mut() {
                *x *= scale;
            }
            softmax(sc);
            let at = (r0 + i) * qd + head * hd;
            weighted_sum(sc, kv, layer, slots, kvh * hd, &mut s.attn[at..at + hd]);
        }
    }
}

/// Output lanes per accumulator block of [`weighted_sum`].
const SUM_LANES: usize = 8;

/// `out[d] = Σ_j p[j] · value(slot_j)[off + d]` over `j` in order, from
/// `0.0`: blocks of [`SUM_LANES`] outputs stay in registers.
fn weighted_sum(
    p: &[f32],
    kv: &PagedKvStore,
    layer: usize,
    slots: &[usize],
    off: usize,
    out: &mut [f32],
) {
    let mut d0 = 0;
    while d0 + SUM_LANES <= out.len() {
        let block = &mut out[d0..d0 + SUM_LANES];
        weighted_sum_block::<SUM_LANES>(p, kv, layer, slots, off + d0, block);
        d0 += SUM_LANES;
    }
    for d in d0..out.len() {
        weighted_sum_block::<1>(p, kv, layer, slots, off + d, &mut out[d..d + 1]);
    }
}

/// `W` consecutive outputs of [`weighted_sum`], value columns from `off`.
#[inline(always)]
fn weighted_sum_block<const W: usize>(
    p: &[f32],
    kv: &PagedKvStore,
    layer: usize,
    slots: &[usize],
    off: usize,
    out: &mut [f32],
) {
    let mut acc = [0.0f32; W];
    for (&pj, &slot) in p.iter().zip(slots) {
        let v: &[f32; W] = kv.value(layer, slot)[off..off + W].try_into().expect("block width");
        for (a, &x) in acc.iter_mut().zip(v) {
            *a += pj * x;
        }
    }
    out.copy_from_slice(&acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gllm_kvcache::{Blocks, KvCacheManager, Tokens};

    fn tiny_stage(kv_slots: usize) -> StageModel {
        let cfg = ModelConfig::tiny();
        StageModel::new(cfg.clone(), 0..cfg.num_layers, kv_slots, 7, true, true)
    }

    fn run_prompt(stage: &mut StageModel, kvm: &mut KvCacheManager, seq: u64, prompt: &[u32]) -> Vec<f32> {
        kvm.append(seq, Tokens(prompt.len())).unwrap();
        let chunk = BatchChunk { seq, start_pos: 0, tokens: prompt.to_vec(), sample: true };
        let table = kvm.table(seq).unwrap();
        let mut hidden = stage.embed(std::slice::from_ref(&chunk));
        // Cloning the table is fine: slots were assigned at append time.
        let t = table.clone();
        stage.forward(std::slice::from_ref(&chunk), &[&t], &mut hidden);
        stage.project(std::slice::from_ref(&chunk), &hidden).remove(0).1
    }

    #[test]
    fn forward_is_deterministic() {
        let mut kvm = KvCacheManager::new(Blocks(16), Tokens(4));
        let mut s1 = tiny_stage(64);
        let a = run_prompt(&mut s1, &mut kvm, 1, &[3, 5, 7]);
        let mut kvm2 = KvCacheManager::new(Blocks(16), Tokens(4));
        let mut s2 = tiny_stage(64);
        let b = run_prompt(&mut s2, &mut kvm2, 1, &[3, 5, 7]);
        assert_eq!(a, b);
    }

    #[test]
    fn different_prompts_give_different_logits() {
        let mut kvm = KvCacheManager::new(Blocks(32), Tokens(4));
        let mut s = tiny_stage(128);
        let a = run_prompt(&mut s, &mut kvm, 1, &[3, 5, 7]);
        let b = run_prompt(&mut s, &mut kvm, 2, &[3, 5, 8]);
        assert_ne!(a, b);
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn chunked_prefill_matches_whole_prefill_bitexact() {
        let prompt: Vec<u32> = vec![9, 2, 250, 17, 4, 99, 31, 8];
        // Whole prefill.
        let mut kvm_a = KvCacheManager::new(Blocks(32), Tokens(4));
        let mut sa = tiny_stage(128);
        let whole = run_prompt(&mut sa, &mut kvm_a, 1, &prompt);
        // Chunked prefill: 3 + 5 tokens.
        let mut kvm_b = KvCacheManager::new(Blocks(32), Tokens(4));
        let mut sb = tiny_stage(128);
        kvm_b.append(1, Tokens(3)).unwrap();
        let c1 = BatchChunk { seq: 1, start_pos: 0, tokens: prompt[..3].to_vec(), sample: false };
        let t1 = kvm_b.table(1).unwrap().clone();
        let mut h1 = sb.embed(std::slice::from_ref(&c1));
        sb.forward(std::slice::from_ref(&c1), &[&t1], &mut h1);
        kvm_b.append(1, Tokens(5)).unwrap();
        let c2 = BatchChunk { seq: 1, start_pos: 3, tokens: prompt[3..].to_vec(), sample: true };
        let t2 = kvm_b.table(1).unwrap().clone();
        let mut h2 = sb.embed(std::slice::from_ref(&c2));
        sb.forward(std::slice::from_ref(&c2), &[&t2], &mut h2);
        let chunked = sb.project(std::slice::from_ref(&c2), &h2).remove(0).1;
        assert_eq!(whole, chunked, "chunking changed the logits");
    }

    #[test]
    fn batched_execution_matches_sequential_bitexact() {
        // Two sequences in one micro-batch vs two separate passes.
        let p1: Vec<u32> = vec![1, 2, 3, 4];
        let p2: Vec<u32> = vec![200, 100, 50];
        let mut kvm = KvCacheManager::new(Blocks(64), Tokens(4));
        let mut s = tiny_stage(256);
        kvm.append(1, Tokens(p1.len())).unwrap();
        kvm.append(2, Tokens(p2.len())).unwrap();
        let chunks = vec![
            BatchChunk { seq: 1, start_pos: 0, tokens: p1.clone(), sample: true },
            BatchChunk { seq: 2, start_pos: 0, tokens: p2.clone(), sample: true },
        ];
        let t1 = kvm.table(1).unwrap().clone();
        let t2 = kvm.table(2).unwrap().clone();
        let mut hidden = s.embed(&chunks);
        s.forward(&chunks, &[&t1, &t2], &mut hidden);
        let batched = s.project(&chunks, &hidden);

        let mut kvm_a = KvCacheManager::new(Blocks(64), Tokens(4));
        let mut sa = tiny_stage(256);
        let solo1 = run_prompt(&mut sa, &mut kvm_a, 1, &p1);
        let mut kvm_b = KvCacheManager::new(Blocks(64), Tokens(4));
        let mut sb = tiny_stage(256);
        let solo2 = run_prompt(&mut sb, &mut kvm_b, 2, &p2);

        assert_eq!(batched[0].1, solo1);
        assert_eq!(batched[1].1, solo2);
    }

    #[test]
    fn pipelined_stages_match_single_stage_bitexact() {
        let cfg = ModelConfig::tiny();
        let prompt: Vec<u32> = vec![11, 22, 33, 44, 55];
        // Single stage.
        let mut kvm = KvCacheManager::new(Blocks(32), Tokens(4));
        let mut whole = tiny_stage(128);
        let expected = run_prompt(&mut whole, &mut kvm, 1, &prompt);
        // Two stages: layers 0..2 and 2..4.
        let mut s0 = StageModel::new(cfg.clone(), 0..2, 128, 7, true, false);
        let mut s1 = StageModel::new(cfg.clone(), 2..4, 128, 7, false, true);
        let mut kvm2 = KvCacheManager::new(Blocks(32), Tokens(4));
        kvm2.append(1, Tokens(prompt.len())).unwrap();
        let chunk = BatchChunk { seq: 1, start_pos: 0, tokens: prompt.clone(), sample: true };
        let t = kvm2.table(1).unwrap().clone();
        let mut hidden = s0.embed(std::slice::from_ref(&chunk));
        s0.forward(std::slice::from_ref(&chunk), &[&t], &mut hidden);
        s1.forward(std::slice::from_ref(&chunk), &[&t], &mut hidden);
        let got = s1.project(std::slice::from_ref(&chunk), &hidden).remove(0).1;
        assert_eq!(expected, got, "pipelining changed the logits");
    }

    #[test]
    fn paged_noncontiguous_blocks_do_not_change_results() {
        // Fragment the allocator so sequence 2's blocks are non-adjacent,
        // then check logits match a fresh contiguous run.
        let prompt: Vec<u32> = vec![7, 8, 9, 10, 11, 12];
        let mut kvm = KvCacheManager::new(Blocks(16), Tokens(2));
        let mut s = tiny_stage(32);
        kvm.append(10, Tokens(2)).unwrap(); // occupy block 0
        kvm.append(11, Tokens(2)).unwrap(); // occupy block 1
        kvm.free(10).unwrap(); // hole at block 0
        kvm.append(2, Tokens(prompt.len())).unwrap(); // spans hole + tail blocks
        let chunk = BatchChunk { seq: 2, start_pos: 0, tokens: prompt.clone(), sample: true };
        let t = kvm.table(2).unwrap().clone();
        let mut hidden = s.embed(std::slice::from_ref(&chunk));
        s.forward(std::slice::from_ref(&chunk), &[&t], &mut hidden);
        let frag = s.project(std::slice::from_ref(&chunk), &hidden).remove(0).1;

        let mut kvm2 = KvCacheManager::new(Blocks(16), Tokens(2));
        let mut s2 = tiny_stage(32);
        let contiguous = run_prompt(&mut s2, &mut kvm2, 2, &prompt);
        assert_eq!(frag, contiguous, "paging layout leaked into results");
    }
}
