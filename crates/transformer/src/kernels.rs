//! Dense CPU kernels.
//!
//! All kernels use fixed, sequential accumulation order so results are
//! bit-reproducible regardless of batch composition. Vectorisation runs
//! across independent outputs (rows, tokens, positions), never inside a
//! reduction.
//!
//! On x86-64 hosts with AVX2 and FMA, [`matmul_t`], [`exp_in_place`] and
//! the kernels built on it run an AVX2+FMA build (the private `x86`
//! module, the crate's only `unsafe` code), chosen at run time. Its
//! results equal the portable build's bit for bit on every host, so the
//! choice is invisible in the outputs.

#[cfg(target_arch = "x86_64")]
mod x86;

/// `y = W x` where `W` is `rows × cols` row-major and `x` has `cols`
/// elements. `y` must have `rows` elements.
pub fn matvec(w: &[f32], x: &[f32], y: &mut [f32], rows: usize, cols: usize) {
    assert_eq!(w.len(), rows * cols, "weight shape mismatch");
    assert_eq!(x.len(), cols, "input length mismatch");
    assert_eq!(y.len(), rows, "output length mismatch");
    for (r, out) in y.iter_mut().enumerate() {
        let row = &w[r * cols..(r + 1) * cols];
        let mut acc = 0.0f32;
        for (a, b) in row.iter().zip(x.iter()) {
            acc += a * b;
        }
        *out = acc;
    }
}

/// Tokens per register tile of [`matmul_t`].
const TILE_TOKENS: usize = 4;
/// Output rows per register tile of [`matmul_t`] for a group of
/// [`TILE_TOKENS`] tokens.
const TILE_ROWS: usize = 16;
/// Output rows per register tile for a token left over after the groups.
const SOLO_ROWS: usize = 32;

/// `y = x Wᵀ` for `n` tokens at once: `x` is `n × cols` and `y` is
/// `n × rows`, both row-major, and `wt` holds the `rows × cols` weight
/// `W` k-major, i.e. transposed to `cols × rows`.
///
/// SIMD lanes run across output rows, in register tiles of
/// [`TILE_TOKENS`] tokens × [`TILE_ROWS`] rows (a leftover token uses
/// 1 × [`SOLO_ROWS`]). Every output still accumulates `0.0 + w·x` in
/// sequential `k` order with a separate multiply and add, exactly as
/// [`matvec`] does, so the result equals `n` `matvec` calls bit for bit.
/// Hosts with AVX2 run the same loop compiled for AVX2.
pub fn matmul_t(wt: &[f32], x: &[f32], y: &mut [f32], n: usize, rows: usize, cols: usize) {
    assert_eq!(wt.len(), rows * cols, "weight shape mismatch");
    assert_eq!(x.len(), n * cols, "input length mismatch");
    assert_eq!(y.len(), n * rows, "output length mismatch");
    #[cfg(target_arch = "x86_64")]
    if let Some(avx2) = x86::Avx2Fma::detect() {
        return avx2.matmul_t(wt, x, y, n, rows, cols);
    }
    matmul_t_loop(wt, x, y, n, rows, cols);
}

/// The loop of [`matmul_t`], compiled once per instruction set that
/// calls it.
#[inline(always)]
fn matmul_t_loop(wt: &[f32], x: &[f32], y: &mut [f32], n: usize, rows: usize, cols: usize) {
    let mut t = 0;
    while t + TILE_TOKENS <= n {
        matmul_t_tokens::<TILE_TOKENS, TILE_ROWS>(wt, x, y, t, rows, cols);
        t += TILE_TOKENS;
    }
    for t in t..n {
        matmul_t_tokens::<1, SOLO_ROWS>(wt, x, y, t, rows, cols);
    }
}

/// Tokens `t0..t0 + TN` against every output row, `TR` rows per register
/// tile; rows past the last full tile go one at a time.
#[inline(always)]
fn matmul_t_tokens<const TN: usize, const TR: usize>(
    wt: &[f32],
    x: &[f32],
    y: &mut [f32],
    t0: usize,
    rows: usize,
    cols: usize,
) {
    let mut r0 = 0;
    while r0 + TR <= rows {
        matmul_t_tile::<TN, TR>(wt, x, y, t0, r0, rows, cols);
        r0 += TR;
    }
    for r in r0..rows {
        matmul_t_tile::<TN, 1>(wt, x, y, t0, r, rows, cols);
    }
}

/// One register tile: outputs `(t0..t0 + TN) × (r0..r0 + TR)`.
#[inline(always)]
fn matmul_t_tile<const TN: usize, const TR: usize>(
    wt: &[f32],
    x: &[f32],
    y: &mut [f32],
    t0: usize,
    r0: usize,
    rows: usize,
    cols: usize,
) {
    let xs: [&[f32]; TN] = std::array::from_fn(|t| &x[(t0 + t) * cols..(t0 + t + 1) * cols]);
    let mut acc = [[0.0f32; TR]; TN];
    for k in 0..cols {
        let w: &[f32; TR] = wt[k * rows + r0..k * rows + r0 + TR].try_into().expect("tile width");
        for (a, xr) in acc.iter_mut().zip(xs.iter()) {
            let xv = xr[k];
            for (o, &wv) in a.iter_mut().zip(w.iter()) {
                *o += wv * xv;
            }
        }
    }
    for (t, a) in acc.iter().enumerate() {
        let at = (t0 + t) * rows + r0;
        y[at..at + TR].copy_from_slice(a);
    }
}

/// RMSNorm: `x_i ← x_i / rms(x) · g_i` with `rms(x) = sqrt(mean(x²) + ε)`.
pub fn rmsnorm(x: &mut [f32], gain: &[f32], eps: f32) {
    assert_eq!(x.len(), gain.len());
    let ss: f32 = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
    let inv = 1.0 / (ss + eps).sqrt();
    for (v, g) in x.iter_mut().zip(gain.iter()) {
        *v *= inv * g;
    }
}

/// `v ← v.exp()` for every element, equal bit for bit to `f32::exp`,
/// i.e. to the host libm's `expf`. Hosts with AVX2 and FMA evaluate four
/// lanes at a time with the algorithm of glibc's `__expf_fma`, the
/// `expf` that glibc selects on exactly those hosts.
pub(crate) fn exp_in_place(x: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(fma) = x86::Avx2Fma::detect() {
        return fma.exp_in_place(x);
    }
    for v in x.iter_mut() {
        *v = v.exp();
    }
}

/// Numerically stable in-place softmax: `exp(x_i − max)` over their sum,
/// summed in order from `0.0`.
pub fn softmax(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for v in x.iter_mut() {
        *v -= max;
    }
    exp_in_place(x);
    let mut sum = 0.0f32;
    for v in x.iter() {
        sum += v;
    }
    for v in x.iter_mut() {
        *v /= sum;
    }
}

/// SiLU activation: `x · σ(x)`.
#[inline]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// SwiGLU: `out_i = silu(gate_i) · up_i`, bit for bit, with the
/// exponentials taken by [`exp_in_place`].
pub(crate) fn swiglu(gate: &[f32], up: &[f32], out: &mut [f32]) {
    assert_eq!(gate.len(), out.len());
    assert_eq!(up.len(), out.len());
    for (o, &g) in out.iter_mut().zip(gate) {
        *o = -g;
    }
    exp_in_place(out);
    for ((o, &g), &u) in out.iter_mut().zip(gate).zip(up) {
        *o = g / (1.0 + *o) * u;
    }
}

/// Apply rotary position embeddings in-place to one head-sized slice at
/// sequence position `pos`. Pairs `(2i, 2i+1)` rotate with angle
/// `pos · θ^(−2i/d)` (θ = 10000).
pub fn rope(head: &mut [f32], pos: usize) {
    let d = head.len();
    debug_assert!(d.is_multiple_of(2), "head dim must be even for RoPE");
    for (i, pair) in head.chunks_exact_mut(2).enumerate() {
        rope_rotate(pair, &[rope_sin_cos(pos, i, d)]);
    }
}

/// `(sin, cos)` of [`rope`]'s angle for pair `i` of a `d`-wide head at
/// position `pos`. Depends on nothing else, so callers may compute it once
/// per position and share it across heads and layers.
#[inline]
pub(crate) fn rope_sin_cos(pos: usize, i: usize, d: usize) -> (f32, f32) {
    let freq = 1.0 / 10000f32.powf(2.0 * i as f32 / d as f32);
    (pos as f32 * freq).sin_cos()
}

/// Rotate each pair `(2i, 2i+1)` of `head` by the angle whose
/// `(sin, cos)` is `angles[i]`.
#[inline]
pub(crate) fn rope_rotate(head: &mut [f32], angles: &[(f32, f32)]) {
    debug_assert_eq!(head.len(), 2 * angles.len());
    for (pair, &(sin, cos)) in head.chunks_exact_mut(2).zip(angles) {
        let (a, b) = (pair[0], pair[1]);
        pair[0] = a * cos - b * sin;
        pair[1] = a * sin + b * cos;
    }
}

/// `acc += x` elementwise (residual connection).
pub fn add_assign(acc: &mut [f32], x: &[f32]) {
    assert_eq!(acc.len(), x.len());
    for (a, b) in acc.iter_mut().zip(x.iter()) {
        *a += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_identity() {
        let mut w = vec![0.0; 9];
        for i in 0..3 {
            w[i * 3 + i] = 1.0;
        }
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        matvec(&w, &x, &mut y, 3, 3);
        assert_eq!(y, x);
    }

    #[test]
    fn matvec_known_values() {
        // [[1,2],[3,4]] · [5,6] = [17, 39]
        let w = vec![1.0, 2.0, 3.0, 4.0];
        let mut y = vec![0.0; 2];
        matvec(&w, &[5.0, 6.0], &mut y, 2, 2);
        assert_eq!(y, vec![17.0, 39.0]);
    }

    /// Deterministic values spanning several magnitudes, so that any
    /// change in summation order would change the rounded result.
    fn values(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let unit = (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                unit * [0.01, 1.0, 300.0][(state >> 20) as usize % 3]
            })
            .collect()
    }

    type MatmulT = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

    /// Every build of [`matmul_t`] this host can run, by name.
    fn matmul_t_builds() -> Vec<(&'static str, MatmulT)> {
        let mut builds: Vec<(&'static str, MatmulT)> = vec![("portable", matmul_t_loop)];
        #[cfg(target_arch = "x86_64")]
        if x86::Avx2Fma::detect().is_some() {
            builds.push(("avx2", |wt, x, y, n, rows, cols| {
                x86::Avx2Fma::detect().expect("detected").matmul_t(wt, x, y, n, rows, cols)
            }));
        }
        builds
    }

    #[test]
    fn matmul_t_equals_per_token_matvec_bitwise() {
        let cfg = gllm_model::ModelConfig::tiny();
        let (h, q, kv, i) = (cfg.hidden_size, cfg.q_dim(), cfg.kv_dim(), cfg.intermediate_size);
        let tiny =
            [(q + 2 * kv, h), (q, h), (kv, h), (h, q), (2 * i, h), (h, i), (cfg.vocab_size, h)];
        let odd = [(5, 7), (37, 19), (1, 1), (17, 3), (33, 2)];
        for (build, matmul) in matmul_t_builds() {
            for (si, &(rows, cols)) in tiny.iter().chain(&odd).enumerate() {
                let w = values(rows * cols, si as u64);
                let mut wt = vec![0.0; rows * cols];
                for r in 0..rows {
                    for k in 0..cols {
                        wt[k * rows + r] = w[r * cols + k];
                    }
                }
                for n in [1, 2, 3, 4, 5, 9, 33] {
                    let x = values(n * cols, 1000 + n as u64);
                    let mut y = vec![f32::NAN; n * rows];
                    matmul(&wt, &x, &mut y, n, rows, cols);
                    let mut expect = vec![0.0; rows];
                    for t in 0..n {
                        matvec(&w, &x[t * cols..(t + 1) * cols], &mut expect, rows, cols);
                        let got = &y[t * rows..(t + 1) * rows];
                        assert!(
                            got.iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits()),
                            "{build}: {rows}x{cols}, {n} tokens: token {t} differs from matvec"
                        );
                    }
                }
            }
        }
    }

    /// Bit patterns of `xs`, for exact comparison (NaNs included).
    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn softmax_equals_its_scalar_formula_bitwise() {
        for len in [1, 2, 3, 4, 5, 7, 8, 33, 130, 511] {
            let mut x = values(len, 7 + len as u64);
            if len > 4 {
                // Scores far below the maximum reach the special-case lanes.
                x[1] = -95.0;
                x[3] = f32::NEG_INFINITY;
            }
            let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let e: Vec<f32> = x.iter().map(|v| (v - max).exp()).collect();
            let mut sum = 0.0f32;
            for v in &e {
                sum += v;
            }
            let expect: Vec<f32> = e.iter().map(|v| v / sum).collect();
            softmax(&mut x);
            assert_eq!(bits(&x), bits(&expect), "length {len}");
        }
    }

    #[test]
    fn swiglu_equals_silu_times_up_bitwise() {
        for len in [1, 3, 4, 6, 128, 129] {
            let mut gate = values(len, 40 + len as u64);
            gate[0] = 100.0; // −gate is past −88: glibc's special-case path
            let up = values(len, 80 + len as u64);
            let expect: Vec<f32> = gate.iter().zip(&up).map(|(&g, &u)| silu(g) * u).collect();
            let mut out = vec![f32::NAN; len];
            swiglu(&gate, &up, &mut out);
            assert_eq!(bits(&out), bits(&expect), "length {len}");
        }
    }

    #[test]
    fn rmsnorm_produces_unit_rms() {
        let mut x = vec![3.0, -4.0, 12.0, 0.0];
        let gain = vec![1.0; 4];
        rmsnorm(&mut x, &gain, 1e-6);
        let rms: f32 = (x.iter().map(|v| v * v).sum::<f32>() / 4.0).sqrt();
        assert!((rms - 1.0).abs() < 1e-4);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable_for_large_inputs() {
        let mut x = vec![1000.0, 1001.0, 1002.0];
        softmax(&mut x);
        assert!((x.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(x[2] > x[1] && x[1] > x[0]);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn silu_fixed_points() {
        assert_eq!(silu(0.0), 0.0);
        assert!((silu(10.0) - 10.0).abs() < 1e-3, "saturates to identity");
        assert!(silu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn rope_preserves_norm_and_is_position_dependent() {
        let orig = vec![1.0f32, 0.5, -0.3, 0.8];
        let mut a = orig.clone();
        rope(&mut a, 0);
        // Position 0 rotates by angle 0 → unchanged.
        assert_eq!(a, orig);
        let mut b = orig.clone();
        rope(&mut b, 7);
        assert_ne!(b, orig);
        let n0: f32 = orig.iter().map(|v| v * v).sum();
        let n7: f32 = b.iter().map(|v| v * v).sum();
        assert!((n0 - n7).abs() < 1e-5, "rotation preserves norm");
    }

    #[test]
    fn rope_relative_rotation_composes() {
        // Rotating the same vector to positions p and q differs by the
        // rotation of (q − p) applied in the same basis: check via dot
        // products (relative-position property RoPE is designed for).
        let q = vec![0.3f32, -0.7, 1.1, 0.2];
        let k = vec![0.9f32, 0.1, -0.4, 0.5];
        let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>();
        let mut q5 = q.clone();
        let mut k3 = k.clone();
        rope(&mut q5, 5);
        rope(&mut k3, 3);
        let mut q12 = q.clone();
        let mut k10 = k.clone();
        rope(&mut q12, 12);
        rope(&mut k10, 10);
        assert!((dot(&q5, &k3) - dot(&q12, &k10)).abs() < 1e-4);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = vec![1.0, 2.0];
        add_assign(&mut a, &[0.5, -0.5]);
        assert_eq!(a, vec![1.5, 1.5]);
    }
}
