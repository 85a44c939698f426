//! Runtime-dispatched SIMD kernels for the scan hot paths.
//!
//! Two element-wise loops dominate the pruned scan (see `DESIGN.md` §12):
//! the post-skip prefix-count resync (`counts.rs`) and the per-candidate
//! skip-root solve plus budget pre-filter (`skip.rs` / `scan.rs`). Both
//! vectorize without changing a single reported bit:
//!
//! * **Integer resync** — the flat-table diff (`buf[c] += to[c] − from[c]`)
//!   and the blocked-table widening sweep (`u8`/`u16` delta rows widened to
//!   `u32` lanes) are exact wrapping integer arithmetic, so any lane order
//!   gives the same result.
//! * **Skip roots** — the `K` upper roots of one candidate need one
//!   `sqrtpd` instead of `K` scalar square roots. IEEE-754 requires
//!   correctly-rounded vector `sqrt`/`mul`/`add`/`sub`, so each lane is
//!   bit-identical to the scalar computation, and the root minimum is
//!   folded in the exact scalar order.
//! * **Survivor-mask pre-filter** — [`lookahead4`] evaluates the
//!   deferred-division chi-square bound and the skip lower bound for four
//!   candidate ends at once (one candidate per `f64` lane). Candidates
//!   that provably fail the bound *and* admit no skip are pre-confirmed;
//!   the scalar `lane_step` path consumes them with a one-symbol count
//!   bump and scores the first survivor exactly. The pre-confirmation is
//!   only consumed while the pruning budget is bit-unchanged, so the
//!   candidate stream (scores, skips, stats) is provably identical to the
//!   unbatched scalar scan.
//! * **Group examine** — [`group_examine`] runs the pre-filter, skip-root
//!   solve and first verification for all twelve interleaved scan lanes
//!   of a `K = 2` or `K = 4` kernel at once, one lane per `f64` slot.
//!
//! # Dispatch
//!
//! The level is detected once ([`is_x86_feature_detected!`]) and cached:
//! `Sse2` is the `x86_64` baseline, `Avx2` upgrades the 8-wide integer
//! kernels and enables the group examine, and every other architecture (or the
//! [`SIGSTR_FORCE_SCALAR`](FORCE_SCALAR_ENV) override /
//! [`set_force_scalar`]) runs the portable scalar fallbacks. Because every
//! kernel is bit-exact, the dispatch never changes an answer — only the
//! instruction count.

use std::sync::atomic::{AtomicU8, Ordering};

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Environment variable that forces the portable scalar fallbacks when set
/// to anything other than `0` or the empty string (checked once, at first
/// dispatch; [`set_force_scalar`] re-reads it).
pub const FORCE_SCALAR_ENV: &str = "SIGSTR_FORCE_SCALAR";

/// The vector instruction tier the kernels run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar fallbacks (non-`x86_64` targets, or forced).
    Scalar,
    /// 16-byte integer/`f64` kernels (the `x86_64` baseline).
    Sse2,
    /// 32-byte integer kernels (runtime-detected).
    Avx2,
}

impl SimdLevel {
    /// Canonical lower-case name (for logs, `/metrics` and `index info`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Cached dispatch level: 0 = undetected, else `SimdLevel as u8 + 1`.
static LEVEL: AtomicU8 = AtomicU8::new(0);
/// Programmatic override: 0 = follow the environment, 1 = forced scalar,
/// 2 = forced auto-detect (ignore the environment).
static FORCE: AtomicU8 = AtomicU8::new(0);

fn detect() -> SimdLevel {
    let forced_scalar = match FORCE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => match std::env::var(FORCE_SCALAR_ENV) {
            Ok(v) => !v.is_empty() && v != "0",
            Err(_) => false,
        },
    };
    if forced_scalar {
        return SimdLevel::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            SimdLevel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    SimdLevel::Scalar
}

/// The active dispatch level (detected once, then a relaxed atomic load).
#[inline]
pub fn level() -> SimdLevel {
    match LEVEL.load(Ordering::Relaxed) {
        0 => {
            let detected = detect();
            LEVEL.store(detected as u8 + 1, Ordering::Relaxed);
            detected
        }
        1 => SimdLevel::Scalar,
        2 => SimdLevel::Sse2,
        _ => SimdLevel::Avx2,
    }
}

/// Whether the vectorized kernels are active (anything above scalar).
#[inline]
pub fn active() -> bool {
    level() != SimdLevel::Scalar
}

/// Force (or un-force) the portable scalar fallbacks programmatically —
/// the test/bench hook behind the `--no-simd` CLI flag and the
/// SIMD-vs-scalar equivalence suites. Overrides the environment variable
/// and invalidates the cached detection.
///
/// Concurrent scans observe the switch at their next dispatch; because
/// every kernel is bit-exact, a scan that raced the switch still returns
/// the same answer.
pub fn set_force_scalar(force: bool) {
    FORCE.store(if force { 1 } else { 2 }, Ordering::Relaxed);
    LEVEL.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Integer resync kernels (exact: wrapping u32 arithmetic, order-free).
// ---------------------------------------------------------------------------

/// `buf[c] += to[c] − from[c]` over three equal-length rows — the flat
/// prefix-table resync. Exact in any lane order.
#[inline]
pub(crate) fn accumulate_diff_u32(buf: &mut [u32], to: &[u32], from: &[u32]) {
    debug_assert!(buf.len() == to.len() && buf.len() == from.len());
    #[cfg(target_arch = "x86_64")]
    if level() != SimdLevel::Scalar {
        // SAFETY: lengths checked above; loads/stores are unaligned-safe.
        unsafe { accumulate_diff_u32_sse2(buf, to, from) };
        return;
    }
    for ((slot, &hi), &lo) in buf.iter_mut().zip(to).zip(from) {
        *slot = slot.wrapping_add(hi.wrapping_sub(lo));
    }
}

/// `buf[c] = to[c] − from[c]` — the flat prefix-table fill.
#[inline]
pub(crate) fn fill_diff_u32(buf: &mut [u32], to: &[u32], from: &[u32]) {
    debug_assert!(buf.len() == to.len() && buf.len() == from.len());
    #[cfg(target_arch = "x86_64")]
    if level() != SimdLevel::Scalar {
        // SAFETY: lengths checked above; loads/stores are unaligned-safe.
        unsafe { fill_diff_u32_sse2(buf, to, from) };
        return;
    }
    for ((slot, &hi), &lo) in buf.iter_mut().zip(to).zip(from) {
        *slot = hi.wrapping_sub(lo);
    }
}

#[cfg(target_arch = "x86_64")]
unsafe fn accumulate_diff_u32_sse2(buf: &mut [u32], to: &[u32], from: &[u32]) {
    let len = buf.len();
    let mut i = 0;
    while i + 4 <= len {
        let hi = _mm_loadu_si128(to.as_ptr().add(i).cast());
        let lo = _mm_loadu_si128(from.as_ptr().add(i).cast());
        let b = _mm_loadu_si128(buf.as_ptr().add(i).cast());
        let r = _mm_add_epi32(b, _mm_sub_epi32(hi, lo));
        _mm_storeu_si128(buf.as_mut_ptr().add(i).cast(), r);
        i += 4;
    }
    while i < len {
        buf[i] = buf[i].wrapping_add(to.get_unchecked(i).wrapping_sub(*from.get_unchecked(i)));
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
unsafe fn fill_diff_u32_sse2(buf: &mut [u32], to: &[u32], from: &[u32]) {
    let len = buf.len();
    let mut i = 0;
    while i + 4 <= len {
        let hi = _mm_loadu_si128(to.as_ptr().add(i).cast());
        let lo = _mm_loadu_si128(from.as_ptr().add(i).cast());
        _mm_storeu_si128(buf.as_mut_ptr().add(i).cast(), _mm_sub_epi32(hi, lo));
        i += 4;
    }
    while i < len {
        buf[i] = to.get_unchecked(i).wrapping_sub(*from.get_unchecked(i));
        i += 1;
    }
}

/// The blocked-table stored-column resync:
/// `buf[c] += (sup_e[c] + row_e[c]) − (sup_s[c] + row_s[c])` over the
/// `stored_k` packed delta columns, widening the `u8`/`u16` rows to `u32`
/// lanes. Returns the two row sums the caller needs to derive the last
/// (unstored) column. Exact wrapping arithmetic in any order.
#[inline]
pub(crate) fn blocked_stored_diff<T: Copy + Into<u32> + WidenRow>(
    buf: &mut [u32],
    sup_s: &[u32],
    sup_e: &[u32],
    row_s: &[T],
    row_e: &[T],
) -> (u32, u32) {
    let stored_k = buf.len().min(row_s.len());
    #[cfg(target_arch = "x86_64")]
    if level() == SimdLevel::Avx2 && stored_k >= 8 {
        // SAFETY: AVX2 presence just checked; slice lengths checked by the
        // caller (`accumulate_impl` slices exact rows).
        return unsafe { T::stored_diff_avx2(buf, sup_s, sup_e, row_s, row_e) };
    }
    let mut sum_s = 0u32;
    let mut sum_e = 0u32;
    for c in 0..stored_k {
        let ds: u32 = row_s[c].into();
        let de: u32 = row_e[c].into();
        sum_s = sum_s.wrapping_add(ds);
        sum_e = sum_e.wrapping_add(de);
        buf[c] = buf[c]
            .wrapping_add((sup_e[c].wrapping_add(de)).wrapping_sub(sup_s[c].wrapping_add(ds)));
    }
    (sum_s, sum_e)
}

/// Width-specific AVX2 widening for [`blocked_stored_diff`].
pub(crate) trait WidenRow: Sized {
    /// The AVX2 widening sweep — `unsafe` because it requires AVX2.
    ///
    /// # Safety
    /// AVX2 must be available and all slices must hold at least
    /// `buf.len()` elements.
    unsafe fn stored_diff_avx2(
        buf: &mut [u32],
        sup_s: &[u32],
        sup_e: &[u32],
        row_s: &[Self],
        row_e: &[Self],
    ) -> (u32, u32);
}

impl WidenRow for u8 {
    #[cfg(target_arch = "x86_64")]
    unsafe fn stored_diff_avx2(
        buf: &mut [u32],
        sup_s: &[u32],
        sup_e: &[u32],
        row_s: &[u8],
        row_e: &[u8],
    ) -> (u32, u32) {
        stored_diff_avx2_impl(buf, sup_s, sup_e, row_s, row_e, |p| {
            _mm256_cvtepu8_epi32(_mm_loadl_epi64(p.cast()))
        })
    }

    #[cfg(not(target_arch = "x86_64"))]
    unsafe fn stored_diff_avx2(
        _: &mut [u32],
        _: &[u32],
        _: &[u32],
        _: &[u8],
        _: &[u8],
    ) -> (u32, u32) {
        unreachable!("AVX2 path is only dispatched on x86_64")
    }
}

impl WidenRow for u16 {
    #[cfg(target_arch = "x86_64")]
    unsafe fn stored_diff_avx2(
        buf: &mut [u32],
        sup_s: &[u32],
        sup_e: &[u32],
        row_s: &[u16],
        row_e: &[u16],
    ) -> (u32, u32) {
        stored_diff_avx2_impl(buf, sup_s, sup_e, row_s, row_e, |p| {
            _mm256_cvtepu16_epi32(_mm_loadu_si128(p.cast()))
        })
    }

    #[cfg(not(target_arch = "x86_64"))]
    unsafe fn stored_diff_avx2(
        _: &mut [u32],
        _: &[u32],
        _: &[u32],
        _: &[u16],
        _: &[u16],
    ) -> (u32, u32) {
        unreachable!("AVX2 path is only dispatched on x86_64")
    }
}

/// Shared AVX2 body: 8 columns per iteration, widened by `load8` (which
/// may read up to 16 bytes past the given pointer — safe here because the
/// loop only runs with at least 8 elements remaining and the vectors'
/// upper garbage is discarded by the cvtepu widening of the low lanes).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn stored_diff_avx2_impl<T>(
    buf: &mut [u32],
    sup_s: &[u32],
    sup_e: &[u32],
    row_s: &[T],
    row_e: &[T],
    load8: impl Fn(*const T) -> __m256i,
) -> (u32, u32)
where
    T: Copy + Into<u32>,
{
    let stored_k = buf.len();
    let mut sum_s_v = _mm256_setzero_si256();
    let mut sum_e_v = _mm256_setzero_si256();
    let mut i = 0;
    while i + 8 <= stored_k {
        let ds = load8(row_s.as_ptr().add(i));
        let de = load8(row_e.as_ptr().add(i));
        sum_s_v = _mm256_add_epi32(sum_s_v, ds);
        sum_e_v = _mm256_add_epi32(sum_e_v, de);
        let ss = _mm256_loadu_si256(sup_s.as_ptr().add(i).cast());
        let se = _mm256_loadu_si256(sup_e.as_ptr().add(i).cast());
        let b = _mm256_loadu_si256(buf.as_ptr().add(i).cast());
        let diff = _mm256_sub_epi32(_mm256_add_epi32(se, de), _mm256_add_epi32(ss, ds));
        _mm256_storeu_si256(buf.as_mut_ptr().add(i).cast(), _mm256_add_epi32(b, diff));
        i += 8;
    }
    let mut sums = [0u32; 8];
    let mut sume = [0u32; 8];
    _mm256_storeu_si256(sums.as_mut_ptr().cast(), sum_s_v);
    _mm256_storeu_si256(sume.as_mut_ptr().cast(), sum_e_v);
    let mut sum_s = sums.iter().fold(0u32, |a, &x| a.wrapping_add(x));
    let mut sum_e = sume.iter().fold(0u32, |a, &x| a.wrapping_add(x));
    while i < stored_k {
        let ds: u32 = row_s[i].into();
        let de: u32 = row_e[i].into();
        sum_s = sum_s.wrapping_add(ds);
        sum_e = sum_e.wrapping_add(de);
        buf[i] = buf[i]
            .wrapping_add((sup_e[i].wrapping_add(de)).wrapping_sub(sup_s[i].wrapping_add(ds)));
        i += 1;
    }
    (sum_s, sum_e)
}

// ---------------------------------------------------------------------------
// f64 kernels (exact: IEEE-754 vector sqrt/mul/add/sub are correctly
// rounded per lane, so each lane is bit-identical to the scalar op).
// ---------------------------------------------------------------------------

/// Square roots of two lanes — one `sqrtpd` on `x86_64`.
#[inline(always)]
pub(crate) fn sqrt2(x: [f64; 2]) -> [f64; 2] {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is part of the x86_64 baseline.
    unsafe {
        let v = _mm_sqrt_pd(_mm_loadu_pd(x.as_ptr()));
        let mut out = [0.0f64; 2];
        _mm_storeu_pd(out.as_mut_ptr(), v);
        out
    }
    #[cfg(not(target_arch = "x86_64"))]
    [x[0].sqrt(), x[1].sqrt()]
}

/// Square roots of four lanes — two `sqrtpd` on `x86_64`.
#[inline(always)]
pub(crate) fn sqrt4(x: [f64; 4]) -> [f64; 4] {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is part of the x86_64 baseline.
    unsafe {
        let lo = _mm_sqrt_pd(_mm_loadu_pd(x.as_ptr()));
        let hi = _mm_sqrt_pd(_mm_loadu_pd(x.as_ptr().add(2)));
        let mut out = [0.0f64; 4];
        _mm_storeu_pd(out.as_mut_ptr(), lo);
        _mm_storeu_pd(out.as_mut_ptr().add(2), hi);
        out
    }
    #[cfg(not(target_arch = "x86_64"))]
    [x[0].sqrt(), x[1].sqrt(), x[2].sqrt(), x[3].sqrt()]
}

/// The minimum upper root `min_m r2_m` of one candidate's `K` skip
/// quadratics, vectorized across the characters:
/// `r2_m = (√(b_m² − four_pa_m·u) − b_m)·half_inv_a_m` with
/// `b_m = 2·Y_m − p_m·t`. The caller guarantees `u ≤ 0` (so every
/// discriminant is non-negative) and slices of length ≥ `K`.
///
/// Bit-identical to the scalar `skip_below_budget_branchless` fold: every
/// lane op is correctly rounded, and the final minimum is folded in the
/// same index-ascending order over values that are never `NaN` and never
/// `−0.0`.
#[inline(always)]
pub(crate) fn roots_hi_fixed<const K: usize>(
    counts: &[u32; K],
    t: f64,
    u: f64,
    p: &[f64],
    four_pa: &[f64],
    half_inv_a: &[f64],
) -> f64 {
    debug_assert!(p.len() >= K && four_pa.len() >= K && half_inv_a.len() >= K);
    let mut y = [0.0f64; K];
    for m in 0..K {
        y[m] = f64::from(counts[m]);
    }
    let mut disc = [0.0f64; K];
    let mut b = [0.0f64; K];
    for m in 0..K {
        b[m] = 2.0 * y[m] - p[m] * t;
        disc[m] = b[m] * b[m] - four_pa[m] * u;
    }
    let sq: [f64; K] = match K {
        2 => {
            let s = sqrt2([disc[0], disc[1]]);
            let mut out = [0.0f64; K];
            out[0] = s[0];
            out[1] = s[1];
            out
        }
        4 => {
            let s = sqrt4([disc[0], disc[1], disc[2], disc[3]]);
            let mut out = [0.0f64; K];
            out[..4].copy_from_slice(&s);
            out
        }
        _ => {
            let mut out = [0.0f64; K];
            for m in 0..K {
                out[m] = disc[m].sqrt();
            }
            out
        }
    };
    let mut hi = f64::INFINITY;
    for m in 0..K {
        hi = hi.min((sq[m] - b[m]) * half_inv_a[m]);
    }
    hi
}

// ---------------------------------------------------------------------------
// Group examine: all interleaved scan lanes solved in one packed pass.
// ---------------------------------------------------------------------------

/// Number of interleaved scan lanes driven by the specialized kernels and
/// by the packed group examine. The scalar and SIMD instantiations share
/// this width, so the candidate stream — and therefore every answer and
/// every statistic — is identical under both dispatch modes.
///
/// Twelve lanes keep enough independent solve chains in flight to cover the
/// `sqrt → floor → resync` latency of each one; the group examine puts one
/// lane per `f64` slot, so the twelve fill three 4-wide vectors for any
/// alphabet size.
pub(crate) const GROUP_LANES: usize = 12;

/// Whether the packed group examine ([`group_examine`]) is available at the
/// current dispatch level.
#[inline]
pub(crate) fn group_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        level() == SimdLevel::Avx2
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Packed examine step for **all [`GROUP_LANES`] interleaved scan lanes**
/// of a `K`-letter kernel (`K ∈ {2, 4}`): weighted square sums, budget
/// pre-filter, skip-root solve and first verification pass, with one scan
/// lane per `f64` slot (three 4-wide vectors) and the characters visited in
/// index order. `counts[m][i]` is lane `i`'s count of character `m`.
///
/// Returns `None` when any lane passes the pre-filter — that lane must
/// observe, which can move the budget between steps, so the caller replays
/// the whole round sequentially (recomputing the same sums). Otherwise no
/// lane observes, the budget is pinned for the round, and the returned
/// skips are bit-identical to [`GROUP_LANES`] sequential scalar steps,
/// because every slot runs the scalar op sequence of `lane_step` →
/// [`crate::skip::skip_from_ws_fixed`] → `finish_below_budget`:
///
/// * counts convert exactly (`vcvtdq2pd`; the caller guarantees they fit
///   in an `i32`) and `ws` folds the `(y·y)·p⁻¹` terms in index order —
///   starting from the first term, since `0.0 + a₀ = a₀` exactly;
/// * pre-filter, `u`, `t` and `tol` use the scalar expressions per slot
///   (`budget.abs()` is the identity for the positive budget the caller
///   guarantees); a failed pre-filter implies `u < 0`, so every
///   discriminant is non-negative and no root is `NaN`;
/// * `b = 2Y − p·t`, the discriminant, square root and upper root are
///   correctly rounded per slot, the root minimum is folded in index
///   order, and `⌊hi⌋` plus the first verification pass
///   `((1−p)·x + b)·x + p·u ≤ tol` match the scalar solver; the rare
///   verification backoff is replayed by the scalar
///   [`crate::skip::verify_candidate`].
///
/// Only called when [`group_available`] (AVX2); the caller guarantees
/// `budget > 0`, finite, counts `< 2³¹`, and `K`-element table slices.
#[cfg(target_arch = "x86_64")]
pub(crate) fn group_examine<const K: usize>(
    counts: &[[u32; GROUP_LANES]; K],
    lfs: &[f64; GROUP_LANES],
    budget: f64,
    tables: &crate::skip::SkipTables<'_>,
) -> Option<[usize; GROUP_LANES]> {
    // The hardware check, not `group_available`: a concurrent
    // `set_force_scalar` may flip the dispatch level mid-scan.
    assert!(
        is_x86_feature_detected!("avx2"),
        "group_examine requires AVX2"
    );
    debug_assert!(budget.is_finite() && budget > 0.0);
    // SAFETY: AVX2 presence asserted above.
    unsafe { group_examine_avx2::<K>(counts, lfs, budget, tables) }
}

/// Non-`x86_64` stub — never called ([`group_available`] is `false`).
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn group_examine<const K: usize>(
    _counts: &[[u32; GROUP_LANES]; K],
    _lfs: &[f64; GROUP_LANES],
    _budget: f64,
    _tables: &crate::skip::SkipTables<'_>,
) -> Option<[usize; GROUP_LANES]> {
    unreachable!("group_examine is only dispatched when group_available()")
}

/// # Safety
/// AVX2 must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn group_examine_avx2<const K: usize>(
    counts: &[[u32; GROUP_LANES]; K],
    lfs: &[f64; GROUP_LANES],
    budget: f64,
    tables: &crate::skip::SkipTables<'_>,
) -> Option<[usize; GROUP_LANES]> {
    const VECS: usize = GROUP_LANES / 4;
    let (p, inv_p, four_pa) = (tables.p, tables.inv_p, tables.four_pa);
    let (half_inv_a, one_minus) = (tables.half_inv_a, tables.one_minus);
    let bud = _mm256_set1_pd(budget);
    let margin = _mm256_set1_pd(1.0 - 1e-12);
    let mut y = [[_mm256_setzero_pd(); VECS]; K];
    let mut lf = [_mm256_setzero_pd(); VECS];
    let mut ws = [_mm256_setzero_pd(); VECS];
    let mut prod = [_mm256_setzero_pd(); VECS];
    let mut pre_mask = 0i32;
    for j in 0..VECS {
        lf[j] = _mm256_loadu_pd(lfs.as_ptr().add(4 * j));
        for m in 0..K {
            // Four lanes' counts of character m: one load, one exact
            // i32 → f64 convert (counts < 2³¹ per the contract).
            let raw = _mm_loadu_si128(counts[m].as_ptr().add(4 * j).cast());
            y[m][j] = _mm256_cvtepi32_pd(raw);
            let sq = _mm256_mul_pd(_mm256_mul_pd(y[m][j], y[m][j]), _mm256_set1_pd(inv_p[m]));
            ws[j] = if m == 0 { sq } else { _mm256_add_pd(ws[j], sq) };
        }
        // Pre-filter ws ≥ (budget + lf)·lf·(1 − 1e-12).
        prod[j] = _mm256_mul_pd(_mm256_add_pd(bud, lf[j]), lf[j]);
        let pre = _mm256_mul_pd(prod[j], margin);
        pre_mask |= _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(ws[j], pre));
    }
    if pre_mask != 0 {
        return None;
    }
    // No lane observes: u = ws − (lf + budget)·lf < 0, t = 2lf + budget,
    // tol = 1e-9·(1 + |budget|·lf), all pinned to the shared budget.
    let two = _mm256_set1_pd(2.0);
    let one = _mm256_set1_pd(1.0);
    let tol_scale = _mm256_set1_pd(1e-9);
    let mut xs = [0.0f64; GROUP_LANES];
    let mut ts = [0.0f64; GROUP_LANES];
    let mut us = [0.0f64; GROUP_LANES];
    let mut tols = [0.0f64; GROUP_LANES];
    let mut lt_one = 0i32;
    let mut over = 0i32;
    for j in 0..VECS {
        let u = _mm256_sub_pd(ws[j], prod[j]);
        let t = _mm256_add_pd(_mm256_mul_pd(two, lf[j]), bud);
        let tol = _mm256_mul_pd(tol_scale, _mm256_add_pd(one, _mm256_mul_pd(bud, lf[j])));
        // b = 2Y − p·t, disc = b² − 4p(1−p)·u ≥ 0 (u < 0),
        // r2 = (√disc − b)/(2(1−p)), root minimum in index order.
        let mut b = [_mm256_setzero_pd(); K];
        let mut hi = _mm256_setzero_pd();
        for m in 0..K {
            let pm = _mm256_set1_pd(p[m]);
            b[m] = _mm256_sub_pd(_mm256_mul_pd(two, y[m][j]), _mm256_mul_pd(pm, t));
            let disc = _mm256_sub_pd(
                _mm256_mul_pd(b[m], b[m]),
                _mm256_mul_pd(_mm256_set1_pd(four_pa[m]), u),
            );
            let r = _mm256_mul_pd(
                _mm256_sub_pd(_mm256_sqrt_pd(disc), b[m]),
                _mm256_set1_pd(half_inv_a[m]),
            );
            hi = if m == 0 { r } else { _mm256_min_pd(hi, r) };
        }
        lt_one |= _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(hi, one)) << (4 * j);
        // First verification candidate x = ⌊hi⌋ (≥ 1 whenever hi ≥ 1):
        // q = ((1−p)·x + b)·x + p·u must stay ≤ tol for every character.
        let x = _mm256_round_pd::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(hi);
        for m in 0..K {
            let q = _mm256_add_pd(
                _mm256_mul_pd(
                    _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(one_minus[m]), x), b[m]),
                    x,
                ),
                _mm256_mul_pd(_mm256_set1_pd(p[m]), u),
            );
            over |= _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(q, tol)) << (4 * j);
        }
        _mm256_storeu_pd(xs.as_mut_ptr().add(4 * j), x);
        _mm256_storeu_pd(ts.as_mut_ptr().add(4 * j), t);
        _mm256_storeu_pd(us.as_mut_ptr().add(4 * j), u);
        _mm256_storeu_pd(tols.as_mut_ptr().add(4 * j), tol);
    }
    // Commit each lane: no root ≥ 1 ⇒ no skip; packed verification clean ⇒
    // the floored root is the skip; otherwise replay the scalar
    // verification (identical first candidate, then the backoff).
    Some(std::array::from_fn(|i| {
        if lt_one & (1 << i) != 0 {
            0
        } else if over & (1 << i) == 0 {
            xs[i] as usize
        } else {
            let lane: [u32; K] = std::array::from_fn(|m| counts[m][i]);
            crate::skip::verify_candidate(&lane, ts[i], us[i], tables, xs[i], 0.0, tols[i])
        }
    }))
}

// ---------------------------------------------------------------------------
// Survivor-mask lookahead: four candidate ends per evaluation.
// ---------------------------------------------------------------------------

/// Evaluate the budget pre-filter and the skip bound for the **next four
/// candidate ends** of one scan lane, one candidate per `f64` lane.
///
/// Candidate `j ∈ 0..4` is the substring `[start, end₀ + j)` where `base`
/// is the count vector of `[start, end₀)`, `l0 = end₀ − start`, and
/// `next = [S[end₀], S[end₀+1], S[end₀+2]]` supplies the incremental
/// histogram. Returns the number of *leading* candidates that provably
///
/// 1. fail the deferred-division budget pre-filter
///    (`ws < (budget + l)·l·(1 − 1e-12)` — computed with the exact scalar
///    op sequence, so the verdict matches `lane_step` bit-for-bit), and
/// 2. admit no skip (`min_m r2_m < 1.0`, which short-circuits the scalar
///    solver to 0 before any verification).
///
/// Such candidates are exactly the ones the scalar path would examine
/// without observing and advance past with a single-symbol count bump —
/// the caller replays that bump per candidate and re-scores the first
/// survivor exactly. The caller guarantees `budget > 0` and finite (the
/// bound-fail ⟹ `u < 0` argument needs it).
#[allow(clippy::needless_range_loop)] // multi-array lockstep indexing
#[allow(clippy::too_many_arguments)] // the solver's cached model tables, passed apart
pub(crate) fn lookahead4<const K: usize>(
    base: &[u32; K],
    next: &[u8; 3],
    l0: usize,
    budget: f64,
    p: &[f64],
    inv_p: &[f64],
    four_pa: &[f64],
    half_inv_a: &[f64],
) -> u32 {
    debug_assert!(budget.is_finite() && budget > 0.0);
    // Per-candidate count lanes: y[m][j] = count of character m in
    // candidate j (base plus the incremental histogram of `next[..j]`).
    let mut y = [[0.0f64; 4]; K];
    let mut running = *base;
    for j in 0..4 {
        for m in 0..K {
            y[m][j] = f64::from(running[m]);
        }
        if j < 3 {
            running[next[j] as usize] += 1;
        }
    }
    let lf = [l0 as f64, (l0 + 1) as f64, (l0 + 2) as f64, (l0 + 3) as f64];
    // ws_j = Σ_m y²·inv_p in the canonical index-ascending order.
    let mut ws = [0.0f64; 4];
    for m in 0..K {
        for j in 0..4 {
            ws[j] += y[m][j] * y[m][j] * inv_p[m];
        }
    }
    // Budget pre-filter and the solver's per-call scalars, with the exact
    // scalar op sequence per lane.
    let mut survives = [false; 4];
    let mut u = [0.0f64; 4];
    let mut t = [0.0f64; 4];
    for j in 0..4 {
        survives[j] = ws[j] >= (budget + lf[j]) * lf[j] * (1.0 - 1e-12);
        u[j] = ws[j] - (lf[j] + budget) * lf[j];
        t[j] = 2.0 * lf[j] + budget;
    }
    // hi_j = min_m r2_m, folded per lane in index-ascending order. Lanes
    // that pass the pre-filter may have u > 0 and a negative discriminant
    // (NaN root); those lanes are excluded by `survives` regardless.
    let mut hi = [f64::INFINITY; 4];
    for m in 0..K {
        let mut disc = [0.0f64; 4];
        let mut b = [0.0f64; 4];
        for j in 0..4 {
            b[j] = 2.0 * y[m][j] - p[m] * t[j];
            disc[j] = b[j] * b[j] - four_pa[m] * u[j];
        }
        let sq = sqrt4(disc);
        for j in 0..4 {
            hi[j] = hi[j].min((sq[j] - b[j]) * half_inv_a[m]);
        }
    }
    let mut confirmed = 0u32;
    for j in 0..4 {
        // `!(hi < 1.0)` deliberately: a NaN root (negative discriminant)
        // must stop the confirmation run exactly like `hi >= 1.0` does.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if survives[j] || !(hi[j] < 1.0) {
            break;
        }
        confirmed += 1;
    }
    confirmed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_reports_a_level_and_forces_scalar() {
        let env_forced = std::env::var(FORCE_SCALAR_ENV).is_ok_and(|v| !v.is_empty() && v != "0");
        let initial = level();
        #[cfg(target_arch = "x86_64")]
        if !env_forced {
            assert_ne!(
                initial,
                SimdLevel::Scalar,
                "x86_64 baseline should be at least SSE2 unless forced"
            );
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(initial, SimdLevel::Scalar);
        if env_forced {
            assert_eq!(initial, SimdLevel::Scalar);
        }
        set_force_scalar(true);
        assert_eq!(level(), SimdLevel::Scalar);
        assert!(!active());
        // Restore env-following dispatch (not forced-auto) so a
        // force-scalar CI run keeps exercising the scalar paths in tests
        // that happen to run after this one.
        FORCE.store(0, Ordering::Relaxed);
        LEVEL.store(0, Ordering::Relaxed);
        assert_eq!(level(), initial);
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
        assert_eq!(SimdLevel::Sse2.name(), "sse2");
        assert_eq!(SimdLevel::Scalar.name(), "scalar");
    }

    #[test]
    fn integer_diffs_match_scalar_for_all_lengths() {
        for len in 0..33usize {
            let to: Vec<u32> = (0..len as u32).map(|i| 1000 + 7 * i).collect();
            let from: Vec<u32> = (0..len as u32).map(|i| 3 * i).collect();
            let mut expect: Vec<u32> = (0..len as u32).map(|i| 10 + i).collect();
            let mut got = expect.clone();
            for ((slot, &hi), &lo) in expect.iter_mut().zip(&to).zip(&from) {
                *slot += hi - lo;
            }
            accumulate_diff_u32(&mut got, &to, &from);
            assert_eq!(expect, got, "accumulate len {len}");
            let mut got_fill = vec![0u32; len];
            fill_diff_u32(&mut got_fill, &to, &from);
            let expect_fill: Vec<u32> = to.iter().zip(&from).map(|(&h, &l)| h - l).collect();
            assert_eq!(expect_fill, got_fill, "fill len {len}");
        }
    }

    #[test]
    fn blocked_stored_diff_matches_scalar_reference() {
        fn reference(
            buf: &mut [u32],
            sup_s: &[u32],
            sup_e: &[u32],
            row_s: &[u8],
            row_e: &[u8],
        ) -> (u32, u32) {
            let mut sum_s = 0u32;
            let mut sum_e = 0u32;
            for c in 0..buf.len() {
                let ds = u32::from(row_s[c]);
                let de = u32::from(row_e[c]);
                sum_s += ds;
                sum_e += de;
                buf[c] += (sup_e[c] + de) - (sup_s[c] + ds);
            }
            (sum_s, sum_e)
        }
        for stored_k in [1usize, 4, 7, 8, 9, 16, 25] {
            let sup_s: Vec<u32> = (0..stored_k as u32).map(|i| 100 * i).collect();
            let sup_e: Vec<u32> = (0..stored_k as u32).map(|i| 100 * i + 40 + i).collect();
            let row_s: Vec<u8> = (0..stored_k as u8).map(|i| i * 3).collect();
            let row_e: Vec<u8> = (0..stored_k as u8).map(|i| i * 3 + 5).collect();
            let mut expect = vec![7u32; stored_k];
            let mut got = expect.clone();
            let se = reference(&mut expect, &sup_s, &sup_e, &row_s, &row_e);
            let sg = blocked_stored_diff(&mut got, &sup_s, &sup_e, &row_s, &row_e);
            assert_eq!(expect, got, "stored_k {stored_k}");
            assert_eq!(se, sg, "stored_k {stored_k} sums");
            // u16 tier.
            let row_s16: Vec<u16> = row_s.iter().map(|&d| u16::from(d) + 300).collect();
            let row_e16: Vec<u16> = row_e.iter().map(|&d| u16::from(d) + 300).collect();
            let mut got16 = vec![7u32; stored_k];
            let sg16 = blocked_stored_diff(&mut got16, &sup_s, &sup_e, &row_s16, &row_e16);
            assert_eq!(expect, got16, "u16 stored_k {stored_k}");
            // The +300 bias cancels in the diffs but shifts both sums.
            let bias = 300 * stored_k as u32;
            assert_eq!(
                (se.0 + bias, se.1 + bias),
                sg16,
                "u16 stored_k {stored_k} sums"
            );
        }
    }

    /// `group_examine::<K>` against `K` sequential scalar solves
    /// (`skip_from_ws_fixed::<K, false>`), lane by lane, over random
    /// counts, lengths, positive budgets and skewed models. Counts how
    /// often each branch ran — a pre-filter pass (`None`), `hi < 1`, a
    /// clean first verification, and the backoff — and requires all four.
    #[cfg(target_arch = "x86_64")]
    fn check_group_examine<const K: usize>(seed: u64) {
        use crate::model::Model;
        use crate::score::weighted_square_sum;
        use crate::skip::{skip_from_ws_fixed, SkipTables};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed);
        let (mut nones, mut below_one, mut clean, mut backoff) = (0, 0, 0, 0);
        for round in 0..3000 {
            // Skewed model: weights spread over two orders of magnitude.
            let w: Vec<f64> = (0..K)
                .map(|_| 10f64.powf(rng.gen_range(-2.0..0.0)))
                .collect();
            let total: f64 = w.iter().sum();
            let model = Model::from_probs(w.iter().map(|x| x / total).collect()).unwrap();
            // Exact tables leave the verification backoff to rare rounding.
            // Every third round inflates the root scale instead, so ⌊hi⌋
            // overshoots the root and the scalar replay must back off; the
            // scalar solver reads the same table, so the lanes still agree.
            let mut half_inv_a = model.half_inv_one_minus().to_vec();
            if round % 3 == 2 {
                for h in &mut half_inv_a {
                    *h *= rng.gen_range(1.0..1.5);
                }
            }
            let tables = SkipTables {
                p: model.probs(),
                inv_p: model.inv_probs(),
                one_minus: model.one_minus_probs(),
                half_inv_a: &half_inv_a,
                four_pa: model.four_p_one_minus(),
            };
            let mut counts = [[0u32; GROUP_LANES]; K];
            let mut lfs = [0.0f64; GROUP_LANES];
            let mut x2_max = 0.0f64;
            for i in 0..GROUP_LANES {
                let scale = rng.gen_range(0..24u32);
                let l: u32 = rng.gen_range(1..=1u32 << scale);
                let mut left = l;
                for row in counts.iter_mut().take(K - 1) {
                    row[i] = rng.gen_range(0..=left);
                    left -= row[i];
                }
                counts[K - 1][i] = left;
                lfs[i] = f64::from(l);
                let lane: [u32; K] = std::array::from_fn(|m| counts[m][i]);
                let ws = weighted_square_sum(&lane, tables.inv_p);
                x2_max = x2_max.max(ws / lfs[i] - lfs[i]);
            }
            // A budget from just past the pre-filter margin to far above
            // the largest lane statistic: tight lanes get `hi < 1`, loose
            // ones long skips.
            let l_max = lfs.iter().fold(0.0f64, |a, &b| a.max(b));
            let budget = x2_max + (x2_max + l_max) * 10f64.powf(rng.gen_range(-10.0..0.5));
            let got = group_examine::<K>(&counts, &lfs, budget, &tables)
                .expect("no lane reaches the budget");
            for i in 0..GROUP_LANES {
                let lane: [u32; K] = std::array::from_fn(|m| counts[m][i]);
                let lf = lfs[i];
                let ws = weighted_square_sum(&lane, tables.inv_p);
                let want = skip_from_ws_fixed::<K, false>(&lane, lf, ws, budget, &tables);
                assert_eq!(got[i], want, "K={K} round {round} lane {i}: {lane:?}");
                // Classify the lane with the scalar solver's own steps.
                let (u, t) = (ws - (lf + budget) * lf, 2.0 * lf + budget);
                let hi = roots_hi_fixed::<K>(&lane, t, u, tables.p, tables.four_pa, &half_inv_a);
                if hi < 1.0 {
                    below_one += 1;
                    continue;
                }
                let x = hi.floor();
                let tol = 1e-9 * (1.0 + budget * lf);
                let over = (0..K).any(|m| {
                    let b = 2.0 * f64::from(lane[m]) - tables.p[m] * t;
                    (tables.one_minus[m] * x + b) * x + tables.p[m] * u > tol
                });
                if over {
                    backoff += 1;
                } else {
                    clean += 1;
                }
            }
            // One lane that passes the pre-filter sends the whole round
            // back to the sequential path: all counts on the rarest
            // character, long enough that its statistic clears the budget.
            let rare = (0..K)
                .min_by(|&a, &b| tables.p[a].total_cmp(&tables.p[b]))
                .unwrap();
            let j = rng.gen_range(0..GROUP_LANES);
            let l = (budget / (tables.inv_p[rare] - 1.0)).ceil() as u32 + 1;
            for (m, row) in counts.iter_mut().enumerate() {
                row[j] = if m == rare { l } else { 0 };
            }
            lfs[j] = f64::from(l);
            let lane: [u32; K] = std::array::from_fn(|m| counts[m][j]);
            let ws = weighted_square_sum(&lane, tables.inv_p);
            assert!(ws >= (budget + lfs[j]) * lfs[j] * (1.0 - 1e-12));
            assert_eq!(group_examine::<K>(&counts, &lfs, budget, &tables), None);
            nones += 1;
        }
        for (branch, hits) in [
            ("None", nones),
            ("hi < 1", below_one),
            ("clean", clean),
            ("backoff", backoff),
        ] {
            assert!(hits >= 100, "K={K}: branch {branch} ran only {hits} times");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn group_examine_matches_scalar_lane_by_lane() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        check_group_examine::<2>(0x6E0B_A2E1);
        check_group_examine::<4>(0x6E0B_A4E1);
    }

    #[test]
    fn vector_sqrt_is_bit_identical_to_scalar() {
        let xs = [
            0.0,
            1.0,
            2.0,
            1e300,
            1e-300,
            0.3333333333333333,
            7.25,
            1234.5678,
        ];
        for w in xs.windows(4) {
            let v4 = sqrt4([w[0], w[1], w[2], w[3]]);
            for (i, &x) in w.iter().enumerate() {
                assert_eq!(v4[i].to_bits(), x.sqrt().to_bits(), "sqrt4 lane {i} of {x}");
            }
            let v2 = sqrt2([w[0], w[1]]);
            assert_eq!(v2[0].to_bits(), w[0].sqrt().to_bits());
            assert_eq!(v2[1].to_bits(), w[1].sqrt().to_bits());
        }
    }
}
