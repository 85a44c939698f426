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
//! * **Packed rounds** — [`lane_rounds`] runs whole rounds of the
//!   specialized `K = 2` / `K = 4` kernels over their twelve interleaved
//!   lanes, one lane per `f64` slot: pre-filter, skip-root solve and first
//!   verification ([`examine`]), the skip commit, and a gathered
//!   `T[end] − T[start]` count resync, without leaving vector registers.
//!
//! # Dispatch
//!
//! The level is detected once ([`is_x86_feature_detected!`]) and cached:
//! `Sse2` is the `x86_64` baseline, `Avx2` upgrades the 8-wide integer
//! kernels and enables the packed rounds, and every other architecture (or the
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
// Packed rounds: all interleaved scan lanes stepped in vector registers.
// ---------------------------------------------------------------------------

/// Number of interleaved scan lanes driven by the specialized kernels and
/// by their packed rounds. The scalar and SIMD instantiations share this
/// width, so the candidate stream — and therefore every answer and every
/// statistic — is identical under both dispatch modes.
///
/// Twelve lanes keep enough independent solve chains in flight to cover the
/// `sqrt → floor → resync` latency of each one; the packed rounds put one
/// lane per `f64` slot, so the twelve fill three 4-wide vectors for any
/// alphabet size.
pub(crate) const GROUP_LANES: usize = 12;

/// Whether the packed rounds ([`lane_rounds`]) are available at the
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

/// Four-lane `f64` vectors per group of [`GROUP_LANES`] lanes.
#[cfg(target_arch = "x86_64")]
const VECS: usize = GROUP_LANES / 4;

/// Packed rounds of the specialized scan kernel for `K ∈ {2, 4}`, run on
/// its structure-of-arrays lane state with the budget pinned at `budget`.
///
/// Each round examines every lane ([`examine`]), clamps the skips to the
/// window ends, commits them, accumulates `examined`, `skips` and
/// `skipped`, and resyncs **every** lane (zero skips included) as
/// `counts = T[end] − T[start]` with AVX2 gathers from `rows`. Rounds
/// repeat until one of them has a live lane at or above the budget
/// pre-filter — that round is left uncommitted and `false` returned, so
/// the caller runs it sequentially — or, when `refill` is set, until a
/// round finishes a lane (`true`: the caller refills the slot before the
/// next round). With every lane finished it returns `true`.
///
/// Committed rounds leave the same stream as sequential ones: no lane
/// observes, so the budget cannot move inside the round and each lane's
/// step depends only on its own state; [`examine`] runs the scalar
/// solver's op sequence per slot, and the integer resync is exact.
///
/// # Safety
/// AVX2 must be available. `rows` must be the prefix rows of an index of
/// `n < 2³¹` positions, and every lane must satisfy
/// `start ≤ end ≤ wend ≤ n`, live or parked — the gathers read row `end`
/// unchecked. `budget` must be positive and finite.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn lane_rounds<const K: usize>(
    lanes: &mut crate::scan::Lanes<K>,
    rows: crate::counts::PrefixRows<'_>,
    budget: f64,
    tables: &crate::skip::SkipTables<'_>,
    stats: &mut crate::scan::ScanStats,
    refill: bool,
) -> bool {
    debug_assert!(K == 2 || K == 4);
    debug_assert!(budget.is_finite() && budget > 0.0);
    let one = _mm_set1_epi32(1);
    let mut examined = 0u64;
    let mut skips = 0u64;
    let mut skipped = _mm256_setzero_si256();
    let committed = loop {
        let live = lanes.live;
        if live == 0 {
            break true;
        }
        let mut lf = [_mm256_setzero_pd(); VECS];
        for (j, l) in lf.iter_mut().enumerate() {
            let s = _mm_loadu_si128(lanes.start.as_ptr().add(4 * j).cast());
            let e = _mm_loadu_si128(lanes.end.as_ptr().add(4 * j).cast());
            *l = _mm256_cvtepi32_pd(_mm_sub_epi32(e, s));
        }
        let Some((x, over)) = examine::<K>(&lanes.counts, &lf, budget, tables, live) else {
            break false;
        };
        // Clamp each candidate to its window: skip = min(x, wend − end).
        // Parked slots have wend = end, so they commit a zero skip.
        let mut skip = [_mm_setzero_si128(); VECS];
        let mut rem = [_mm_setzero_si128(); VECS];
        for j in 0..VECS {
            let e = _mm_loadu_si128(lanes.end.as_ptr().add(4 * j).cast());
            let w = _mm_loadu_si128(lanes.wend.as_ptr().add(4 * j).cast());
            rem[j] = _mm_sub_epi32(w, e);
            skip[j] = _mm256_cvttpd_epi32(_mm256_min_pd(x[j], _mm256_cvtepi32_pd(rem[j])));
        }
        if over != 0 {
            // A failed first verification: replay that lane's whole solve
            // through the scalar solver (rare).
            let mut s = [0u32; GROUP_LANES];
            for (j, v) in skip.iter().enumerate() {
                _mm_storeu_si128(s.as_mut_ptr().add(4 * j).cast(), *v);
            }
            for i in (0..GROUP_LANES).filter(|&i| over & (1 << i) != 0) {
                let counts: [u32; K] = std::array::from_fn(|m| lanes.counts[m][i]);
                let lf = f64::from(lanes.end[i] - lanes.start[i]);
                let ws = crate::score::weighted_square_sum(&counts, tables.inv_p);
                let raw = crate::skip::skip_from_ws(&counts, lf, ws, budget, tables);
                s[i] = raw.min((lanes.wend[i] - lanes.end[i]) as usize) as u32;
            }
            for (j, v) in skip.iter_mut().enumerate() {
                *v = _mm_loadu_si128(s.as_ptr().add(4 * j).cast());
            }
        }
        let mut done = 0u32;
        for j in 0..VECS {
            let fin = _mm_cmpeq_epi32(skip[j], rem[j]);
            done |= (_mm_movemask_ps(_mm_castsi128_ps(fin)) as u32) << (4 * j);
            let moved = _mm_cmpgt_epi32(skip[j], _mm_setzero_si128());
            skips += u64::from(_mm_movemask_ps(_mm_castsi128_ps(moved)).count_ones());
            skipped = _mm256_add_epi64(skipped, _mm256_cvtepu32_epi64(skip[j]));
            // Step past the skip; a finished lane parks at its window end
            // (`fin` is −1 there, cancelling the + 1).
            let e = _mm_loadu_si128(lanes.end.as_ptr().add(4 * j).cast());
            let next = _mm_add_epi32(_mm_add_epi32(e, skip[j]), _mm_add_epi32(one, fin));
            _mm_storeu_si128(lanes.end.as_mut_ptr().add(4 * j).cast(), next);
            let row = gather_rows::<K>(rows, next);
            for ((r, base), counts) in row.iter().zip(&lanes.base).zip(&mut lanes.counts) {
                let base = _mm_loadu_si128(base.as_ptr().add(4 * j).cast());
                _mm_storeu_si128(
                    counts.as_mut_ptr().add(4 * j).cast(),
                    _mm_sub_epi32(*r, base),
                );
            }
        }
        examined += u64::from(live.count_ones());
        let finished = done & live;
        lanes.live = live & !finished;
        if finished != 0 && refill {
            break true;
        }
    };
    let mut sums = [0u64; 4];
    _mm256_storeu_si256(sums.as_mut_ptr().cast(), skipped);
    stats.examined += examined;
    stats.skips += skips;
    stats.skipped += sums.iter().sum::<u64>();
    committed
}

/// Non-`x86_64` stub — never called ([`group_available`] is `false`).
///
/// # Safety
/// Never callable: it only exists so the kernel compiles everywhere.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) unsafe fn lane_rounds<const K: usize>(
    _lanes: &mut crate::scan::Lanes<K>,
    _rows: crate::counts::PrefixRows<'_>,
    _budget: f64,
    _tables: &crate::skip::SkipTables<'_>,
    _stats: &mut crate::scan::ScanStats,
    _refill: bool,
) -> bool {
    unreachable!("lane_rounds is only dispatched when group_available()")
}

/// The prefix rows `T[pos]` of four lanes, one vector per character.
///
/// # Safety
/// AVX2 must be available, and every lane of `pos` must lie in `0..=n`
/// for the index `rows` belongs to.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn gather_rows<const K: usize>(
    rows: crate::counts::PrefixRows<'_>,
    pos: __m128i,
) -> [__m128i; K] {
    use crate::counts::PrefixRows;
    let mut row = [_mm_setzero_si128(); K];
    let log2_k = _mm_cvtsi32_si128(K.trailing_zeros() as i32);
    match rows {
        PrefixRows::Flat(table) => {
            // Column-major: T[pos][m] at pos·K + m, one dword gather per
            // character (64-bit indices: pos·K may pass 2³¹).
            let idx = _mm256_sll_epi64(_mm256_cvtepi32_epi64(pos), log2_k);
            let ptr = table.as_ptr().cast::<i32>();
            for (m, r) in row.iter_mut().enumerate() {
                *r = _mm256_i64gather_epi32::<4>(ptr.add(m), idx);
            }
        }
        PrefixRows::Blocked {
            supers,
            deltas,
            block_shift,
        } => {
            // Superblock absolutes: supers[(pos >> shift)·K + m].
            let shift = _mm_cvtsi32_si128(block_shift as i32);
            let sb = _mm_srl_epi32(pos, shift);
            let idx = _mm256_sll_epi64(_mm256_cvtepi32_epi64(sb), log2_k);
            let ptr = supers.as_ptr().cast::<i32>();
            for (m, r) in row.iter_mut().enumerate() {
                *r = _mm256_i64gather_epi32::<4>(ptr.add(m), idx);
            }
            // The K − 1 delta bytes of each row, read as one dword at
            // byte pos·(K − 1). A row too close to the table's end for a
            // 4-byte read (only rows at the last few positions) is
            // masked out of the gather and assembled bytewise.
            let stored = K - 1;
            let last_full = if deltas.len() < 4 {
                -1
            } else {
                ((deltas.len() - 4) / stored).min(i32::MAX as usize) as i32
            };
            let tail = _mm_cmpgt_epi32(pos, _mm_set1_epi32(last_full));
            let byte_idx = _mm256_mul_epu32(
                _mm256_cvtepi32_epi64(pos),
                _mm256_set1_epi64x(stored as i64),
            );
            let mut dw = _mm256_mask_i64gather_epi32::<1>(
                _mm_setzero_si128(),
                deltas.as_ptr().cast::<i32>(),
                byte_idx,
                _mm_xor_si128(tail, _mm_set1_epi32(-1)),
            );
            let tail_bits = _mm_movemask_ps(_mm_castsi128_ps(tail));
            if tail_bits != 0 {
                let mut words = [0u32; 4];
                let mut at = [0u32; 4];
                _mm_storeu_si128(words.as_mut_ptr().cast(), dw);
                _mm_storeu_si128(at.as_mut_ptr().cast(), pos);
                for lane in (0..4).filter(|&lane| tail_bits & (1 << lane) != 0) {
                    let row_at = at[lane] as usize * stored;
                    words[lane] = deltas[row_at..row_at + stored]
                        .iter()
                        .rev()
                        .fold(0, |w, &d| (w << 8) | u32::from(d));
                }
                dw = _mm_loadu_si128(words.as_ptr().cast());
            }
            // Stored columns add their byte; the last column is derived
            // from the in-block offset minus the stored deltas.
            let byte = _mm_set1_epi32(0xff);
            let mut sum = _mm_setzero_si128();
            for (m, r) in row.iter_mut().take(stored).enumerate() {
                let d = _mm_and_si128(_mm_srl_epi32(dw, _mm_cvtsi32_si128(8 * m as i32)), byte);
                sum = _mm_add_epi32(sum, d);
                *r = _mm_add_epi32(*r, d);
            }
            let offset = _mm_and_si128(pos, _mm_set1_epi32((1i32 << block_shift) - 1));
            row[stored] = _mm_add_epi32(row[stored], _mm_sub_epi32(offset, sum));
        }
    }
    row
}

/// Packed examine step for **all [`GROUP_LANES`] lanes** of a `K`-letter
/// kernel (`K ∈ {2, 4}`): weighted square sums, budget pre-filter,
/// skip-root solve and first verification pass, with one scan lane per
/// `f64` slot (three 4-wide vectors) and the characters visited in index
/// order. `counts[m][i]` is lane `i`'s count of character `m`, `lf` its
/// length; only lanes in the `live` bitmask count for the pre-filter.
///
/// Returns `None` when a live lane passes the pre-filter — that lane must
/// observe, which can move the budget between steps. Otherwise no lane
/// observes and it returns, per lane, the candidate skip `x` (`⌊hi⌋`, or
/// 0 when no root reaches 1) and the bitmask of live lanes whose first
/// verification failed, which the caller replays through the scalar
/// solver. Every other lane's `x` is bit-identical to the scalar
/// [`crate::skip::skip_from_ws_fixed`] result, because every slot runs
/// its op sequence (`finish_below_budget` → `verify_candidate`):
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
///   `((1−p)·x + b)·x + p·u ≤ tol` match the scalar solver.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn examine<const K: usize>(
    counts: &[[u32; GROUP_LANES]; K],
    lf: &[__m256d; VECS],
    budget: f64,
    tables: &crate::skip::SkipTables<'_>,
    live: u32,
) -> Option<([__m256d; VECS], u32)> {
    let (p, inv_p, four_pa) = (tables.p, tables.inv_p, tables.four_pa);
    let (half_inv_a, one_minus) = (tables.half_inv_a, tables.one_minus);
    let bud = _mm256_set1_pd(budget);
    let margin = _mm256_set1_pd(1.0 - 1e-12);
    let mut y = [[_mm256_setzero_pd(); VECS]; K];
    let mut ws = [_mm256_setzero_pd(); VECS];
    let mut prod = [_mm256_setzero_pd(); VECS];
    let mut pre_mask = 0u32;
    for j in 0..VECS {
        for m in 0..K {
            // Four lanes' counts of character m: one load, one exact
            // i32 → f64 convert (counts < 2³¹ per the contract).
            // SAFETY: `4·j + 4 ≤ GROUP_LANES`, an in-bounds unaligned load.
            let raw = unsafe { _mm_loadu_si128(counts[m].as_ptr().add(4 * j).cast()) };
            y[m][j] = _mm256_cvtepi32_pd(raw);
            let sq = _mm256_mul_pd(_mm256_mul_pd(y[m][j], y[m][j]), _mm256_set1_pd(inv_p[m]));
            ws[j] = if m == 0 { sq } else { _mm256_add_pd(ws[j], sq) };
        }
        // Pre-filter ws ≥ (budget + lf)·lf·(1 − 1e-12).
        prod[j] = _mm256_mul_pd(_mm256_add_pd(bud, lf[j]), lf[j]);
        let pre = _mm256_mul_pd(prod[j], margin);
        let hit = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(ws[j], pre)) as u32;
        pre_mask |= hit << (4 * j);
    }
    if pre_mask & live != 0 {
        return None;
    }
    // No lane observes: u = ws − (lf + budget)·lf < 0, t = 2lf + budget,
    // tol = 1e-9·(1 + |budget|·lf), all pinned to the shared budget.
    let two = _mm256_set1_pd(2.0);
    let one = _mm256_set1_pd(1.0);
    let tol_scale = _mm256_set1_pd(1e-9);
    let mut xs = [_mm256_setzero_pd(); VECS];
    let mut over = 0u32;
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
        // No root ≥ 1 ⇒ no skip; otherwise the first verification
        // candidate x = ⌊hi⌋ ≥ 1: q = ((1−p)·x + b)·x + p·u must stay
        // ≤ tol for every character.
        let lt_one = _mm256_cmp_pd::<_CMP_LT_OQ>(hi, one);
        let x = _mm256_round_pd::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(hi);
        let mut bad = _mm256_setzero_pd();
        for m in 0..K {
            let q = _mm256_add_pd(
                _mm256_mul_pd(
                    _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(one_minus[m]), x), b[m]),
                    x,
                ),
                _mm256_mul_pd(_mm256_set1_pd(p[m]), u),
            );
            bad = _mm256_or_pd(bad, _mm256_cmp_pd::<_CMP_GT_OQ>(q, tol));
        }
        over |= (_mm256_movemask_pd(_mm256_andnot_pd(lt_one, bad)) as u32) << (4 * j);
        xs[j] = _mm256_andnot_pd(lt_one, x);
    }
    Some((xs, over & live))
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

    /// One packed [`examine`] of all twelve lanes resolved to per-lane
    /// skips the way [`lane_rounds`] commits them (before the window
    /// clamp): the candidate `x`, or the scalar solver's answer for a lane
    /// whose first verification failed. `None` when a lane must observe.
    #[cfg(target_arch = "x86_64")]
    fn group_examine<const K: usize>(
        counts: &[[u32; GROUP_LANES]; K],
        lfs: &[f64; GROUP_LANES],
        budget: f64,
        tables: &crate::skip::SkipTables<'_>,
    ) -> Option<[usize; GROUP_LANES]> {
        #[target_feature(enable = "avx2")]
        fn run<const K: usize>(
            counts: &[[u32; GROUP_LANES]; K],
            lfs: &[f64; GROUP_LANES],
            budget: f64,
            tables: &crate::skip::SkipTables<'_>,
        ) -> Option<[usize; GROUP_LANES]> {
            let mut lf = [_mm256_setzero_pd(); VECS];
            for (j, v) in lf.iter_mut().enumerate() {
                // SAFETY: `4·j + 4 ≤ GROUP_LANES`.
                *v = unsafe { _mm256_loadu_pd(lfs.as_ptr().add(4 * j)) };
            }
            let (x, over) = examine::<K>(counts, &lf, budget, tables, (1 << GROUP_LANES) - 1)?;
            let mut xs = [0.0f64; GROUP_LANES];
            for (j, v) in x.iter().enumerate() {
                // SAFETY: `4·j + 4 ≤ GROUP_LANES`.
                unsafe { _mm256_storeu_pd(xs.as_mut_ptr().add(4 * j), *v) };
            }
            Some(std::array::from_fn(|i| {
                if over & (1 << i) == 0 {
                    xs[i] as usize
                } else {
                    let lane: [u32; K] = std::array::from_fn(|m| counts[m][i]);
                    let ws = crate::score::weighted_square_sum(&lane, tables.inv_p);
                    crate::skip::skip_from_ws(&lane, lfs[i], ws, budget, tables)
                }
            }))
        }
        assert!(is_x86_feature_detected!("avx2"));
        // SAFETY: AVX2 presence asserted above.
        unsafe { run::<K>(counts, lfs, budget, tables) }
    }

    /// The packed examine against `K` sequential scalar solves
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

    /// `gather_rows` against the scalar prefix lookup at every position
    /// of short strings, in both gatherable layouts: the flat table, and
    /// blocked tables whose tiny superblocks put many in-block offsets and
    /// superblock crossings in range. Strings as short as one symbol put
    /// every row in the bytewise tail path.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn gathered_rows_match_prefix_lookups() {
        use crate::counts::{BlockedCounts, CountSource, PrefixCounts};
        use crate::seq::Sequence;

        fn check<const K: usize>(pc: &impl CountSource, label: &str) {
            let rows = pc.prefix_rows().expect("gatherable layout");
            let n = pc.n() as i32;
            for first in (0..=n).step_by(3) {
                let pos = [first, (first + 1).min(n), n - first % 2, (first / 2).min(n)];
                // SAFETY: AVX2 checked by the caller; positions in 0..=n.
                let got = unsafe { gather_rows::<K>(rows, _mm_loadu_si128(pos.as_ptr().cast())) };
                for (m, v) in got.iter().enumerate() {
                    let mut lanes = [0u32; 4];
                    // SAFETY: four u32 lanes into a four-element array.
                    unsafe { _mm_storeu_si128(lanes.as_mut_ptr().cast(), *v) };
                    for (lane, &at) in pos.iter().enumerate() {
                        let want = pc.count(m, 0, at as usize);
                        assert_eq!(lanes[lane], want, "{label}: T[{at}][{m}]");
                    }
                }
            }
        }

        if !is_x86_feature_detected!("avx2") {
            return;
        }
        for n in [1usize, 2, 3, 4, 5, 9, 64, 301] {
            for k in [2usize, 4] {
                let symbols: Vec<u8> = (0..n).map(|i| ((i * 7 + i / 3) % k) as u8).collect();
                let seq = Sequence::from_symbols(symbols, k).unwrap();
                let flat = PrefixCounts::build(&seq);
                let blocked = [1, 4, 256].map(|b| BlockedCounts::with_block(&seq, b).unwrap());
                let label = |layout: &str| format!("n = {n}, k = {k}, {layout}");
                if k == 2 {
                    check::<2>(&flat, &label("flat"));
                    for (b, bc) in blocked.iter().enumerate() {
                        check::<2>(bc, &label(&format!("blocked #{b}")));
                    }
                } else {
                    check::<4>(&flat, &label("flat"));
                    for (b, bc) in blocked.iter().enumerate() {
                        check::<4>(bc, &label(&format!("blocked #{b}")));
                    }
                }
            }
        }
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
