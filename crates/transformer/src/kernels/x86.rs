//! The AVX2+FMA build of the kernels, chosen at run time.
//!
//! This is the only module of the crate with `unsafe` code. Every
//! function here computes exactly what its portable counterpart in
//! [`super`] computes, bit for bit; only the instructions differ.
//!
//! * [`Avx2Fma::matmul_t`] is the same generic loop as
//!   [`super::matmul_t`], compiled a second time with AVX2 enabled. Rust
//!   never contracts a multiply and an add into an FMA, so every output
//!   still sums `0.0 + w·x` in `k` order.
//! * [`Avx2Fma::exp_in_place`] mirrors, lane for lane, glibc's
//!   `__expf_fma`: the variant its `expf` ifunc selects on hosts with AVX2
//!   and FMA, so the one that `f32::exp` reaches there. Lanes glibc sends
//!   down its special-case path (|x| ≥ 88, infinities, NaN) call
//!   `f32::exp` itself.

use std::arch::x86_64::{
    __m128, _mm256_add_epi64, _mm256_and_si256, _mm256_castpd_si256, _mm256_castsi256_pd,
    _mm256_cvtpd_ps, _mm256_cvtps_pd, _mm256_fmadd_pd, _mm256_fmsub_pd, _mm256_i64gather_epi64,
    _mm256_mul_pd, _mm256_set1_epi64x, _mm256_set1_pd, _mm256_slli_epi64, _mm256_sub_pd,
    _mm_and_si128, _mm_castps_si128, _mm_castsi128_ps, _mm_cmpgt_epi32, _mm_loadu_ps,
    _mm_movemask_ps, _mm_set1_epi32, _mm_srli_epi32, _mm_storeu_ps,
};

/// Proof that this host runs AVX2 and FMA: only [`Avx2Fma::detect`]
/// makes one, so its methods may call the `target_feature` functions.
#[derive(Debug, Clone, Copy)]
pub(super) struct Avx2Fma(());

impl Avx2Fma {
    /// `Some` if the CPU and OS support AVX2 and FMA. The standard
    /// library detects the features once per process and caches them.
    pub(super) fn detect() -> Option<Self> {
        (is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")).then_some(Self(()))
    }

    /// [`super::matmul_t`] in the AVX2 build; the caller checked shapes.
    pub(super) fn matmul_t(
        self,
        wt: &[f32],
        x: &[f32],
        y: &mut [f32],
        n: usize,
        rows: usize,
        cols: usize,
    ) {
        // SAFETY: `self` exists only on a host with AVX2.
        unsafe { matmul_t_avx2(wt, x, y, n, rows, cols) }
    }

    /// `v ← v.exp()` for every element, as glibc's `__expf_fma` computes it.
    pub(super) fn exp_in_place(self, x: &mut [f32]) {
        // SAFETY: `self` exists only on a host with AVX2 and FMA.
        unsafe { exp_in_place_fma(x) }
    }
}

/// # Safety
/// The host must support AVX2.
#[target_feature(enable = "avx2")]
unsafe fn matmul_t_avx2(wt: &[f32], x: &[f32], y: &mut [f32], n: usize, rows: usize, cols: usize) {
    super::matmul_t_loop(wt, x, y, n, rows, cols);
}

/// `__exp2f_data` of glibc 2.36 (`sysdeps/ieee754/flt-32/math_config.h`),
/// as `__expf_fma` reads it: `tab[i]` is the bit pattern of `2^(i/32)`
/// minus `i << 47`, so adding `k << 47` yields `2^(k/32)`.
#[rustfmt::skip]
const TAB: [u64; 32] = [
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
];
/// `32 / ln 2` (`invln2_scaled`).
const INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);
/// `1.5 · 2^52` (`shift`): adding it rounds to an integer in the low bits.
const SHIFT: f64 = f64::from_bits(0x4338000000000000);
/// The cubic of `2^(r/32)` (`poly_scaled`), highest degree first.
const C: [f64; 3] = [
    f64::from_bits(0x3ebc6af84b912394),
    f64::from_bits(0x3f2ebfce50fac4f3),
    f64::from_bits(0x3f962e42ff0c52d6),
];
/// Lanes whose top 12 bits (sign cleared) exceed this, i.e. |x| ≥ 88 or
/// not finite, take glibc's special-case path.
const SPECIAL_TOP12: i32 = 0x42a;

/// # Safety
/// The host must support AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
unsafe fn exp_in_place_fma(x: &mut [f32]) {
    let mut quads = x.chunks_exact_mut(4);
    for q in &mut quads {
        exp4(q.try_into().expect("chunks of 4"));
    }
    let tail = quads.into_remainder();
    if !tail.is_empty() {
        let mut pad = [0.0f32; 4];
        pad[..tail.len()].copy_from_slice(tail);
        exp4(&mut pad);
        tail.copy_from_slice(&pad[..tail.len()]);
    }
}

/// `exp` of four lanes in place.
///
/// # Safety
/// The host must support AVX2 and FMA.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn exp4(q: &mut [f32; 4]) {
    let input = *q;
    // Both pointers address the four floats of a `[f32; 4]`.
    let xf = _mm_loadu_ps(input.as_ptr());
    _mm_storeu_ps(q.as_mut_ptr(), exp4_core(xf));
    let top12 = _mm_and_si128(_mm_srli_epi32::<20>(_mm_castps_si128(xf)), _mm_set1_epi32(0x7ff));
    let special = _mm_cmpgt_epi32(top12, _mm_set1_epi32(SPECIAL_TOP12));
    let special = _mm_movemask_ps(_mm_castsi128_ps(special));
    if special != 0 {
        for (i, (v, x)) in q.iter_mut().zip(input).enumerate() {
            if special & (1 << i) != 0 {
                *v = x.exp();
            }
        }
    }
}

/// glibc's `__expf` fast path in double precision, with the contractions
/// its FMA build makes:
///
/// ```text
/// kd = fma(InvLn2N, x, Shift); ki = bits(kd); kd -= Shift
/// r  = fma(InvLn2N, x, -kd)
/// s  = bits⁻¹(tab[ki % 32] + (ki << 47))
/// y  = fma(fma(C0, r, C1), r·r, fma(C2, r, 1)) · s
/// ```
///
/// # Safety
/// The host must support AVX2 and FMA.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn exp4_core(xf: __m128) -> __m128 {
    let xd = _mm256_cvtps_pd(xf);
    let inv_ln2_n = _mm256_set1_pd(INV_LN2_N);
    let shift = _mm256_set1_pd(SHIFT);
    let kd = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
    let ki = _mm256_castpd_si256(kd);
    let kd = _mm256_sub_pd(kd, shift);
    let r = _mm256_fmsub_pd(inv_ln2_n, xd, kd);
    // `idx` < 32 = `TAB.len()`, so the gather reads inside `TAB`.
    let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
    let t = _mm256_i64gather_epi64::<8>(TAB.as_ptr().cast::<i64>(), idx);
    let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
    let z = _mm256_fmadd_pd(_mm256_set1_pd(C[0]), r, _mm256_set1_pd(C[1]));
    let r2 = _mm256_mul_pd(r, r);
    let y = _mm256_fmadd_pd(_mm256_set1_pd(C[2]), r, _mm256_set1_pd(1.0));
    let y = _mm256_fmadd_pd(z, r2, y);
    _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
}

#[cfg(test)]
mod tests {
    use super::Avx2Fma;

    /// Bit patterns whose vector `exp` differs from `f32::exp`, checked in
    /// blocks whose odd length also runs the padded tail.
    fn mismatches(fma: Avx2Fma, bits: impl Iterator<Item = u32>) -> Vec<u32> {
        const BLOCK: usize = 4093;
        let mut bad = Vec::new();
        let mut xs = Vec::with_capacity(BLOCK);
        let mut bits = bits.peekable();
        while bits.peek().is_some() {
            xs.clear();
            xs.extend(bits.by_ref().take(BLOCK).map(f32::from_bits));
            let mut got = xs.clone();
            fma.exp_in_place(&mut got);
            for (x, y) in xs.iter().zip(&got) {
                if x.exp().to_bits() != y.to_bits() {
                    bad.push(x.to_bits());
                }
            }
        }
        bad
    }

    /// Inputs at glibc's branch points and at the edges of the output
    /// range, each with 64 neighbours on either side.
    fn edge_cases() -> impl Iterator<Item = u32> {
        let centres = [
            0x0000_0000, // +0, and positive subnormal inputs
            0x8000_0000, // −0, and negative subnormal inputs
            0x3300_0000, // 2^-25: exp rounds to 1 below this
            0x42b0_0000, // 88: the special-case path starts here
            0xc2b0_0000, // −88
            0x42b1_7217, // ln(f32::MAX): overflow above
            0xc2ae_ac50, // ln(f32::MIN_POSITIVE): subnormal results below
            0xc2ce_8ecf, // ln(2^-149): the smallest subnormal result
            0xc2cf_f1b4, // ln(2^-150): underflow to zero below
            0x7f80_0000, // +inf, then signalling NaNs
            0xff80_0000, // −inf, then negative NaNs
            0x7fc0_0000, // quiet NaN
            0xffc0_0000, // negative quiet NaN
        ];
        centres.into_iter().flat_map(|c: u32| (-64i32..=64).map(move |d| c.wrapping_add_signed(d)))
    }

    #[test]
    fn vector_exp_equals_libm_on_edge_cases_and_a_strided_sample() {
        let Some(fma) = Avx2Fma::detect() else {
            eprintln!("host lacks AVX2+FMA: the vector path never runs");
            return;
        };
        let sample = (0..=u32::MAX).step_by(257);
        let bad = mismatches(fma, edge_cases().chain(sample));
        assert!(
            bad.is_empty(),
            "{} mismatches, first {:#010x?}",
            bad.len(),
            &bad[..bad.len().min(8)]
        );
    }

    /// Every one of the 2^32 inputs; about 45 s single-threaded in release.
    #[test]
    #[ignore = "exhaustive; run in release by ci/check.sh"]
    fn vector_exp_equals_libm_on_every_f32() {
        let Some(fma) = Avx2Fma::detect() else {
            eprintln!("host lacks AVX2+FMA: the vector path never runs");
            return;
        };
        let bad = mismatches(fma, 0..=u32::MAX);
        assert!(
            bad.is_empty(),
            "{} mismatches, first {:#010x?}",
            bad.len(),
            &bad[..bad.len().min(8)]
        );
    }
}
