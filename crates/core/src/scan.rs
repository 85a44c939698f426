//! The pruned scanning engine shared by all four problem variants.
//!
//! Algorithm 1/2/3 and the min-length variant of the paper differ only in
//! (a) the pruning *budget* (running max, top-t floor, or the constant
//! `α₀`) and (b) what they record. The engine factors the common skeleton:
//! iterate start positions right-to-left (the paper's order — the budget
//! warms up on the suffix), scan end positions left-to-right, and after
//! each examined substring jump forward by the Theorem-1 safe skip.
//!
//! # Kernel architecture (see `DESIGN.md`)
//!
//! The inner loop is *incremental* and *allocation-free*: the count vector
//! of the current substring lives in registers / on the stack and is
//! advanced by reading **one symbol** from the sequence when the skip is
//! zero, falling back to an `O(k)` prefix-table diff only to resync after
//! a jump. Scores always come from the canonical
//! [`chi_square_counts_with_len`] accumulation, so every kernel reports
//! bit-identical `X²` for the same substring regardless of scan path.
//!
//! Three monomorphized kernels share the skeleton:
//!
//! | Kernel | Alphabet | Count storage |
//! |---|---|---|
//! | `scan_starts_fixed::<2>` | binary (stock up/down, win/loss) | `[u32; 2]` |
//! | `scan_starts_fixed::<4>` | quaternary (DNA) | `[u32; 4]` |
//! | `scan_starts_dyn` | any `k ≤ 256` | one `Vec` per scan call |
//!
//! All three kernels are generic over [`CountSource`], so each
//! monomorphizes once for the flat `PrefixCounts` table and once for the
//! two-level `BlockedCounts` table: with the blocked index the post-skip
//! resync reads one byte-packed delta row per endpoint plus a superblock
//! row that is almost always cache-resident, instead of a full `u32`
//! column — the layout dispatch happens before the loop, never inside it.
//!
//! [`scan_policy`] dispatches on `model.k()` at runtime. The pre-rewrite
//! engine (per-substring `fill_counts` + full square-root skip solve) is
//! kept as [`scan_policy_reference`] so benches and tests can measure the
//! specialization win against a stable baseline.

use crate::counts::CountSource;
use crate::model::Model;
use crate::score::{chi_square_counts, chi_square_counts_with_len, weighted_square_sum, Scored};
use crate::skip::{skip_from_ws, skip_from_ws_fixed, SkipTables};

/// Instrumentation of a scan.
///
/// `examined` is the paper's "number of iterations" metric (Figs. 1, 4, 6,
/// 7): how many substrings the algorithm actually evaluated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ScanStats {
    /// Substrings whose `X²` was computed.
    pub examined: u64,
    /// Number of non-zero skip events.
    pub skips: u64,
    /// Total end positions skipped (substrings pruned without evaluation).
    pub skipped: u64,
}

impl ScanStats {
    /// Merge another stats record into this one (used by the parallel
    /// scan).
    pub fn merge(&mut self, other: &ScanStats) {
        self.examined += other.examined;
        self.skips += other.skips;
        self.skipped += other.skipped;
    }
}

/// A pruning policy: observes every examined substring and exposes the
/// current budget (substrings whose Theorem-1 cover bound stays at or
/// below the budget can be skipped).
pub(crate) trait Policy {
    /// Record an examined substring.
    fn observe(&mut self, scored: Scored);
    /// Current pruning budget.
    fn budget(&self) -> f64;
}

/// Run the pruned scan over all substrings with length in
/// `min_len..=window` starting in `starts` (an iterator of start indices,
/// visited in the given order) and ending at or before `limit`.
///
/// The caller guarantees `1 ≤ min_len ≤ window` and that every start `i`
/// satisfies `i + min_len ≤ limit ≤ n`. Pass `window = usize::MAX` for
/// the length-unconstrained variants and `limit = n` for the
/// range-unrestricted ones; the engine's range queries pass the
/// (exclusive) right edge of the restricted range as `limit`.
///
/// `scratch` is the generic kernel's count buffer — one-shot callers pass
/// a fresh `Vec`, the engine recycles buffers from its arena. The
/// alphabet-specialized kernels keep their counts on the stack and leave
/// it untouched.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_policy<C: CountSource, P: Policy>(
    pc: &C,
    model: &Model,
    min_len: usize,
    window: usize,
    limit: usize,
    starts: impl Iterator<Item = usize>,
    policy: &mut P,
    scratch: &mut Vec<u32>,
) -> ScanStats {
    debug_assert!(min_len >= 1 && min_len <= window);
    debug_assert!(limit <= pc.n());
    // Dispatch once per scan call: `SIMD = true` threads the packed-root
    // skip solver and the four-candidate survivor-mask lookahead through
    // the specialized kernels. Both backends are bit-identical (see
    // `simd`), so the branch only picks an instruction mix.
    let simd = crate::simd::active();
    match (model.k(), simd) {
        (2, true) => {
            scan_starts_fixed::<2, true, C, P>(pc, model, min_len, window, limit, starts, policy)
        }
        (2, false) => {
            scan_starts_fixed::<2, false, C, P>(pc, model, min_len, window, limit, starts, policy)
        }
        (4, true) => {
            scan_starts_fixed::<4, true, C, P>(pc, model, min_len, window, limit, starts, policy)
        }
        (4, false) => {
            scan_starts_fixed::<4, false, C, P>(pc, model, min_len, window, limit, starts, policy)
        }
        _ => scan_starts_dyn(pc, model, min_len, window, limit, starts, policy, scratch),
    }
}

/// Number of candidate ends the SIMD lookahead pre-evaluates per batch.
const LOOKAHEAD: usize = 4;

/// One start position's in-flight scan state inside the specialized
/// kernel.
struct Lane<const K: usize> {
    start: usize,
    end: usize,
    window_end: usize,
    counts: [u32; K],
    /// SIMD lookahead memo: how many upcoming candidate ends are
    /// pre-confirmed to fail the budget pre-filter and admit no skip
    /// (always 0 on the scalar path).
    pending: u8,
    /// Exact budget bits the pending verdicts were computed under; the
    /// memo is discarded if the policy's budget has moved since, which
    /// makes the batched stream provably identical to the unbatched one.
    pending_budget: f64,
}

/// Pull the next start off the iterator and initialize its lane.
#[inline]
fn next_lane<const K: usize, C: CountSource>(
    pc: &C,
    min_len: usize,
    window: usize,
    limit: usize,
    starts: &mut impl Iterator<Item = usize>,
) -> Option<Lane<K>> {
    for i in starts {
        debug_assert!(i + min_len <= limit);
        let window_end = limit.min(i.saturating_add(window));
        let end = i + min_len;
        if end > window_end {
            continue;
        }
        let mut counts = [0u32; K];
        pc.fill_counts(i, end, &mut counts);
        return Some(Lane {
            start: i,
            end,
            window_end,
            counts,
            pending: 0,
            pending_budget: 0.0,
        });
    }
    None
}

/// Advance one lane by one examined substring. Returns `false` when the
/// lane's scan is finished.
///
/// On the SIMD path the step first consumes the lookahead memo: a
/// candidate pre-confirmed (under the *current* budget bits — stale memos
/// are discarded) to fail the budget pre-filter and admit no skip is
/// committed with a one-symbol count bump and no floating-point work at
/// all. The memo is exactly the verdict the scalar body below would reach
/// for that candidate, so consuming it leaves the examined/observed/skip
/// stream bit-identical to the unbatched scan.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn lane_step<const K: usize, const SIMD: bool, C: CountSource, P: Policy>(
    lane: &mut Lane<K>,
    pc: &C,
    symbols: &[u8],
    inv_p: &[f64; K],
    tables: &SkipTables<'_>,
    policy: &mut P,
    stats: &mut ScanStats,
) -> bool {
    if SIMD && lane.pending > 0 {
        if policy.budget().to_bits() == lane.pending_budget.to_bits() {
            lane.pending -= 1;
            stats.examined += 1;
            lane.counts[symbols[lane.end] as usize] += 1;
            lane.end += 1;
            debug_assert!(lane.end <= lane.window_end);
            return true;
        }
        lane.pending = 0;
    }
    let l = lane.end - lane.start;
    let lf = l as f64;
    // Weighted square sum Σ Y²/p in the canonical fixed order; the
    // division that finishes the statistic is deferred behind the budget
    // pre-filter below, so the common (pruned) case never divides.
    let ws = weighted_square_sum(&lane.counts, inv_p);
    stats.examined += 1;
    let mut budget = policy.budget();
    // Budget pre-filter: a substring with X² strictly below the budget
    // cannot affect any policy (that is what makes skipping safe at all),
    // so only candidates at or above it — with a generous margin for the
    // product's rounding — pay the division and the observe call.
    if ws >= (budget + lf) * lf * (1.0 - 1e-12) {
        let x2 = chi_square_counts_with_len(&lane.counts, inv_p, lf);
        policy.observe(Scored {
            start: lane.start,
            end: lane.end,
            chi_square: x2,
        });
        budget = policy.budget();
    }
    let raw = skip_from_ws_fixed::<K, SIMD>(&lane.counts, lf, ws, budget, tables);
    advance_lane::<K, SIMD, C>(lane, raw, pc, symbols, inv_p, tables, budget, stats)
}

/// Commit one solved skip to a lane: clamp to the window, record the skip
/// stats, bump or resync the count vector, and (on the SIMD path) arm the
/// lookahead memo on dense stretches. Shared verbatim by [`lane_step`] and
/// the packed group round, so both entry points leave an identical stream. Returns
/// `false` when the lane's scan is finished.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn advance_lane<const K: usize, const SIMD: bool, C: CountSource>(
    lane: &mut Lane<K>,
    raw: usize,
    pc: &C,
    symbols: &[u8],
    inv_p: &[f64; K],
    tables: &SkipTables<'_>,
    budget: f64,
    stats: &mut ScanStats,
) -> bool {
    let skip = raw.min(lane.window_end - lane.end);
    if skip > 0 {
        stats.skips += 1;
        stats.skipped += skip as u64;
    }
    let next = lane.end + skip + 1;
    if next > lane.window_end {
        return false;
    }
    if skip == 0 {
        // Zero skip: the scan advances by one — push the single symbol,
        // O(1).
        lane.counts[symbols[lane.end] as usize] += 1;
    } else {
        // Resync after a jump: one O(k) bulk diff over the skipped region
        // (a single pair of adjacent table columns).
        pc.accumulate_counts(lane.end, next, &mut lane.counts);
    }
    lane.end = next;
    // Dense stretch (no skip possible, positive finite budget): evaluate
    // the next four candidate ends in f64 lanes and memoize how many of
    // them provably fail the pre-filter and admit no skip.
    if SIMD
        && skip == 0
        && budget > 0.0
        && budget.is_finite()
        && lane.end + LOOKAHEAD <= lane.window_end
    {
        let next3 = [
            symbols[lane.end],
            symbols[lane.end + 1],
            symbols[lane.end + 2],
        ];
        lane.pending = crate::simd::lookahead4::<K>(
            &lane.counts,
            &next3,
            lane.end - lane.start,
            budget,
            tables.p,
            inv_p,
            tables.four_pa,
            tables.half_inv_a,
        ) as u8;
        lane.pending_budget = budget;
    }
    true
}

/// Number of start positions scanned in interleaved *lanes* by the
/// specialized kernel (shared with the packed group examine — see
/// [`crate::simd::GROUP_LANES`]). The per-step dependency chain
/// (count load → score → skip solve → next count load) is latency-bound,
/// so running this many independent chains in one loop keeps the core's
/// out-of-order window full. Budgets only ever grow, so any interleaving
/// of observations is as safe as the sequential order, and the best result
/// is independent of the interleave (the scoring order is total).
const LANES: usize = crate::simd::GROUP_LANES;

/// Alphabet-specialized kernel: `K` is a compile-time constant, so the
/// count vector and the model tables are fixed-size stack arrays and every
/// per-character loop unrolls to a straight-line sequence.
///
/// The canonical stream visits the [`LANES`] lane slots round-robin; an
/// empty slot pulls the next start position right before its visit. Both
/// dispatch modes implement exactly this order, so their candidate streams
/// — and therefore every answer and every statistic — are identical.
///
/// `SIMD` selects the vector backend for the skip-root solve, arms the
/// lookahead memo (see [`lane_step`]), and — on AVX2, for both alphabets —
/// dispatches whole rounds to the packed group examine whenever no lane
/// holds a memo and none can observe (every lane failing the budget
/// pre-filter pins the shared budget, making the round order-free). Both
/// values of the flag produce bit-identical results, pinned by the
/// `kernel_equivalence` suite.
fn scan_starts_fixed<const K: usize, const SIMD: bool, C: CountSource, P: Policy>(
    pc: &C,
    model: &Model,
    min_len: usize,
    window: usize,
    limit: usize,
    starts: impl Iterator<Item = usize>,
    policy: &mut P,
) -> ScanStats {
    debug_assert_eq!(model.k(), K);
    let symbols = pc.symbols();
    let mut p = [0.0f64; K];
    let mut inv_p = [0.0f64; K];
    let mut one_minus = [0.0f64; K];
    let mut half_inv_a = [0.0f64; K];
    let mut four_pa = [0.0f64; K];
    p.copy_from_slice(model.probs());
    inv_p.copy_from_slice(model.inv_probs());
    one_minus.copy_from_slice(model.one_minus_probs());
    half_inv_a.copy_from_slice(model.half_inv_one_minus());
    four_pa.copy_from_slice(model.four_p_one_minus());
    let tables = SkipTables {
        p: &p,
        inv_p: &inv_p,
        one_minus: &one_minus,
        half_inv_a: &half_inv_a,
        four_pa: &four_pa,
    };
    let mut stats = ScanStats::default();
    let mut starts = starts;
    let mut lanes: [Option<Lane<K>>; LANES] = std::array::from_fn(|_| None);
    // The packed group examine needs exact i32 → f64 count converts.
    let group_ok = SIMD && crate::simd::group_available() && pc.n() < (1 << 31);
    loop {
        // Refill phase: empty slots pull the next start, in slot order.
        let mut any_live = false;
        for slot in lanes.iter_mut() {
            if slot.is_none() {
                *slot = next_lane::<K, C>(pc, min_len, window, limit, &mut starts);
            }
            any_live |= slot.is_some();
        }
        if !any_live {
            break;
        }
        // Group fast path: every lane live with no lookahead memo, and —
        // checked inside the packed examine — every lane failing the
        // budget pre-filter. No lane observes, so the budget is pinned for
        // the whole round and the packed round is bit-identical to the
        // sequential one below.
        if group_ok
            && lanes
                .iter()
                .all(|slot| slot.as_ref().is_some_and(|l| l.pending == 0))
        {
            let budget = policy.budget();
            if budget > 0.0 && budget.is_finite() {
                // Character-major counts: one row of lane counts per
                // character, as the packed examine loads them.
                let mut cnts = [[0u32; LANES]; K];
                let mut lfs = [0.0f64; LANES];
                for (i, slot) in lanes.iter().enumerate() {
                    let l = slot.as_ref().unwrap();
                    for (row, &c) in cnts.iter_mut().zip(&l.counts) {
                        row[i] = c;
                    }
                    lfs[i] = (l.end - l.start) as f64;
                }
                if let Some(skips) = crate::simd::group_examine::<K>(&cnts, &lfs, budget, &tables) {
                    stats.examined += LANES as u64;
                    for (i, slot) in lanes.iter_mut().enumerate() {
                        let l = slot.as_mut().unwrap();
                        if !advance_lane::<K, SIMD, C>(
                            l, skips[i], pc, symbols, &inv_p, &tables, budget, &mut stats,
                        ) {
                            *slot = None;
                        }
                    }
                    continue;
                }
            }
        }
        // Sequential round: step each live lane in slot order.
        for slot in lanes.iter_mut() {
            if let Some(l) = slot {
                if !lane_step::<K, SIMD, C, P>(l, pc, symbols, &inv_p, &tables, policy, &mut stats)
                {
                    *slot = None;
                }
            }
        }
    }
    stats
}

/// Generic-alphabet kernel: identical skeleton with a caller-provided
/// count buffer (still allocation-free per substring, and allocation-free
/// per scan call when the buffer comes from the engine's arena).
#[allow(clippy::too_many_arguments)]
fn scan_starts_dyn<C: CountSource, P: Policy>(
    pc: &C,
    model: &Model,
    min_len: usize,
    window: usize,
    limit: usize,
    starts: impl Iterator<Item = usize>,
    policy: &mut P,
    scratch: &mut Vec<u32>,
) -> ScanStats {
    let k = model.k();
    let symbols = pc.symbols();
    let inv_p = model.inv_probs();
    let tables = SkipTables::from_model(model);
    scratch.clear();
    scratch.resize(k, 0);
    let counts = &mut scratch[..];
    let mut stats = ScanStats::default();
    for i in starts {
        debug_assert!(i + min_len <= limit);
        let window_end = limit.min(i.saturating_add(window));
        let mut end = i + min_len;
        if end > window_end {
            continue;
        }
        pc.fill_counts(i, end, counts);
        loop {
            let l = end - i;
            let lf = l as f64;
            let ws = weighted_square_sum(counts, inv_p);
            stats.examined += 1;
            let mut budget = policy.budget();
            // Budget pre-filter — see `lane_step` for the argument.
            if ws >= (budget + lf) * lf * (1.0 - 1e-12) {
                let x2 = chi_square_counts_with_len(counts, inv_p, lf);
                policy.observe(Scored {
                    start: i,
                    end,
                    chi_square: x2,
                });
                budget = policy.budget();
            }
            let skip = skip_from_ws(counts, lf, ws, budget, &tables).min(window_end - end);
            if skip > 0 {
                stats.skips += 1;
                stats.skipped += skip as u64;
            }
            let next = end + skip + 1;
            if next > window_end {
                break;
            }
            if skip == 0 {
                counts[symbols[end] as usize] += 1;
            } else {
                pc.accumulate_counts(end, next, counts);
            }
            end = next;
        }
    }
    stats
}

/// The pre-rewrite prefix-count substrate, row-major exactly as the old
/// `PrefixCounts` laid it out (the production table has been column-major
/// since the kernel rewrite). Kept so [`scan_policy_reference`] measures
/// the true pre-rewrite configuration, memory layout included.
pub(crate) struct ReferenceCounts {
    /// Row-major `k × (n + 1)` table; `table[c][i]` = occurrences of `c`
    /// in `S[0..i)`.
    table: Vec<u32>,
    n: usize,
    k: usize,
}

impl ReferenceCounts {
    /// Build the row-major table in `O(k·n)` time and space.
    pub(crate) fn build(seq: &crate::seq::Sequence) -> Self {
        let n = seq.len();
        let k = seq.k();
        let mut table = vec![0u32; k * (n + 1)];
        for (i, &s) in seq.symbols().iter().enumerate() {
            for c in 0..k {
                table[c * (n + 1) + i + 1] = table[c * (n + 1) + i] + (c == s as usize) as u32;
            }
        }
        Self { table, n, k }
    }

    fn fill_counts(&self, start: usize, end: usize, buf: &mut [u32]) {
        debug_assert_eq!(buf.len(), self.k);
        for (c, slot) in buf.iter_mut().enumerate() {
            let row = c * (self.n + 1);
            *slot = self.table[row + end] - self.table[row + start];
        }
    }
}

/// The pre-rewrite engine: reconstruct all `k` counts from the row-major
/// prefix table and re-sum the score for **every** examined substring, and
/// solve the skip quadratic with [`reference_max_safe_skip`] —
/// per-character coefficient recomputation, a division and square root per
/// character.
///
/// Kept verbatim as the regression baseline the criterion benches compare
/// the specialized kernels against (`mss_scaling/reference`,
/// `bench_smoke`).
pub(crate) fn scan_policy_reference<P: Policy>(
    rc: &ReferenceCounts,
    model: &Model,
    min_len: usize,
    starts: impl Iterator<Item = usize>,
    policy: &mut P,
) -> ScanStats {
    let n = rc.n;
    let k = model.k();
    let mut counts = vec![0u32; k];
    let mut stats = ScanStats::default();
    for i in starts {
        debug_assert!(i + min_len <= n);
        let mut end = i + min_len;
        while end <= n {
            rc.fill_counts(i, end, &mut counts);
            let l = end - i;
            let x2 = chi_square_counts(&counts, model);
            stats.examined += 1;
            policy.observe(Scored {
                start: i,
                end,
                chi_square: x2,
            });
            let budget = policy.budget();
            let skip = reference_max_safe_skip(&counts, l, x2, budget, model).min(n - end);
            if skip > 0 {
                stats.skips += 1;
                stats.skipped += skip as u64;
            }
            end += skip + 1;
        }
    }
    stats
}

/// The pre-rewrite skip solver, kept for the reference engine only: it
/// recomputes `1 − p` and both quadratic coefficients per character per
/// substring and takes a division plus square root for **every**
/// character. [`crate::skip::max_safe_skip`] is the optimized production
/// solver.
fn reference_max_safe_skip(
    counts: &[u32],
    l: usize,
    x2_l: f64,
    budget: f64,
    model: &Model,
) -> usize {
    if !budget.is_finite() || budget <= 0.0 {
        return 0;
    }
    let lf = l as f64;
    let quadratic_at = |y: f64, p: f64, x: f64| -> f64 {
        let a = 1.0 - p;
        let b = 2.0 * y - 2.0 * lf * p - p * budget;
        let c = (x2_l - budget) * lf * p;
        (a * x + b) * x + c
    };
    let mut lo = 0.0f64;
    let mut hi = f64::INFINITY;
    for (&y, &p) in counts.iter().zip(model.probs()) {
        let yf = f64::from(y);
        let a = 1.0 - p;
        let b = 2.0 * yf - 2.0 * lf * p - p * budget;
        let c = (x2_l - budget) * lf * p;
        let disc = b * b - 4.0 * a * c;
        if disc < 0.0 {
            return 0;
        }
        let sqrt_disc = disc.sqrt();
        let r2 = (-b + sqrt_disc) / (2.0 * a);
        let r1 = (-b - sqrt_disc) / (2.0 * a);
        hi = hi.min(r2);
        lo = lo.max(r1);
        if hi < 1.0 || lo > hi {
            return 0;
        }
    }
    let mut x = hi.floor();
    if x < 1.0 || x < lo {
        return 0;
    }
    for _ in 0..2 {
        if x < 1.0 || x < lo {
            return 0;
        }
        let ok = counts
            .iter()
            .zip(model.probs())
            .all(|(&y, &p)| quadratic_at(f64::from(y), p, x) <= 1e-9 * (1.0 + budget.abs() * lf));
        if ok {
            return x as usize;
        }
        x -= 1.0;
    }
    0
}

/// Max-tracking policy (Problem 1 and Problem 4).
#[derive(Debug, Default)]
pub(crate) struct MaxPolicy {
    pub best: Option<Scored>,
}

impl Policy for MaxPolicy {
    fn observe(&mut self, scored: Scored) {
        match &self.best {
            Some(b) if crate::score::scored_cmp(&scored, b) != std::cmp::Ordering::Greater => {}
            _ => self.best = Some(scored),
        }
    }

    fn budget(&self) -> f64 {
        self.best.map_or(0.0, |b| b.chi_square)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::PrefixCounts;
    use crate::seq::Sequence;

    #[test]
    fn max_policy_tracks_running_maximum() {
        let mut p = MaxPolicy::default();
        assert_eq!(p.budget(), 0.0);
        p.observe(Scored {
            start: 0,
            end: 1,
            chi_square: 2.0,
        });
        p.observe(Scored {
            start: 0,
            end: 2,
            chi_square: 1.0,
        });
        assert_eq!(p.budget(), 2.0);
        p.observe(Scored {
            start: 1,
            end: 3,
            chi_square: 5.5,
        });
        assert_eq!(p.budget(), 5.5);
        assert_eq!(p.best.unwrap().start, 1);
    }

    #[test]
    fn max_policy_tie_break_prefers_earlier_start() {
        let mut p = MaxPolicy::default();
        p.observe(Scored {
            start: 5,
            end: 7,
            chi_square: 2.0,
        });
        p.observe(Scored {
            start: 1,
            end: 3,
            chi_square: 2.0,
        });
        assert_eq!(p.best.unwrap().start, 1);
        // But an equal, later observation does not replace it.
        p.observe(Scored {
            start: 4,
            end: 6,
            chi_square: 2.0,
        });
        assert_eq!(p.best.unwrap().start, 1);
    }

    #[test]
    fn scan_examines_each_start_at_least_once() {
        let seq = Sequence::from_symbols(vec![0, 1, 0, 1, 1, 0, 0, 1], 2).unwrap();
        let pc = PrefixCounts::build(&seq);
        let model = Model::uniform(2).unwrap();
        let mut policy = MaxPolicy::default();
        let n = seq.len();
        let stats = scan_policy(
            &pc,
            &model,
            1,
            usize::MAX,
            n,
            (0..n).rev(),
            &mut policy,
            &mut Vec::new(),
        );
        assert!(stats.examined >= n as u64);
        assert!(policy.best.is_some());
        // Every substring is either examined or skipped.
        let total = n as u64 * (n as u64 + 1) / 2;
        assert_eq!(stats.examined + stats.skipped, total);
    }

    #[test]
    fn scan_respects_min_len() {
        let seq = Sequence::from_symbols(vec![0, 1, 0, 0, 1, 1], 2).unwrap();
        let pc = PrefixCounts::build(&seq);
        let model = Model::uniform(2).unwrap();
        let mut policy = MaxPolicy::default();
        let min_len = 4;
        let n = seq.len();
        scan_policy(
            &pc,
            &model,
            min_len,
            usize::MAX,
            n,
            (0..=(n - min_len)).rev(),
            &mut policy,
            &mut Vec::new(),
        );
        assert!(policy.best.unwrap().len() >= min_len);
    }

    #[test]
    fn scan_respects_window() {
        let seq = Sequence::from_symbols(vec![0, 1, 1, 1, 1, 1, 1, 0], 2).unwrap();
        let pc = PrefixCounts::build(&seq);
        let model = Model::uniform(2).unwrap();
        let n = seq.len();
        for window in 1..=n {
            let mut examined_max = 0usize;
            let mut observed = 0u64;
            struct Probe<'a> {
                max_len: &'a mut usize,
                observed: &'a mut u64,
            }
            impl Policy for Probe<'_> {
                fn observe(&mut self, scored: Scored) {
                    *self.max_len = (*self.max_len).max(scored.len());
                    *self.observed += 1;
                }
                fn budget(&self) -> f64 {
                    // Zero budget: skips are disabled (the solver needs a
                    // positive budget) AND every substring clears the
                    // kernel's budget pre-filter, so observe() sees all
                    // window-admissible substrings.
                    0.0
                }
            }
            let mut probe = Probe {
                max_len: &mut examined_max,
                observed: &mut observed,
            };
            let stats = scan_policy(
                &pc,
                &model,
                1,
                window,
                n,
                (0..n).rev(),
                &mut probe,
                &mut Vec::new(),
            );
            assert!(
                examined_max <= window,
                "window {window}: saw len {examined_max}"
            );
            // Exactly the substrings of length 1..=window exist per start.
            let expected: u64 = (0..n).map(|i| window.min(n - i) as u64).sum();
            assert_eq!(observed, expected, "window {window}");
            assert_eq!(stats.examined, expected, "window {window}");
        }
    }

    /// The SIMD and scalar instantiations of the specialized kernels must
    /// produce the same best substring (positions included) *and* the
    /// same scan stats — the lookahead memo is a pure memoization of the
    /// scalar stream (broader k/layout/offset coverage lives in
    /// `kernel_equivalence`).
    #[test]
    fn simd_and_scalar_fixed_kernels_are_bit_identical() {
        let symbols2: Vec<u8> = (0..800u32)
            .map(|i| (((i * 13 + i / 7) ^ (i >> 3)) % 2) as u8)
            .collect();
        let seq = Sequence::from_symbols(symbols2, 2).unwrap();
        let pc = PrefixCounts::build(&seq);
        let model = Model::from_probs(vec![0.35, 0.65]).unwrap();
        let n = seq.len();
        let mut simd = MaxPolicy::default();
        let s_simd = scan_starts_fixed::<2, true, _, _>(
            &pc,
            &model,
            1,
            usize::MAX,
            n,
            (0..n).rev(),
            &mut simd,
        );
        let mut scalar = MaxPolicy::default();
        let s_scalar = scan_starts_fixed::<2, false, _, _>(
            &pc,
            &model,
            1,
            usize::MAX,
            n,
            (0..n).rev(),
            &mut scalar,
        );
        assert_eq!(s_simd, s_scalar, "stats must match");
        let (a, b) = (simd.best.unwrap(), scalar.best.unwrap());
        assert_eq!((a.start, a.end), (b.start, b.end));
        assert_eq!(a.chi_square.to_bits(), b.chi_square.to_bits());

        let symbols4: Vec<u8> = (0..900u32)
            .map(|i| (((i * 7) ^ (i >> 2)) % 4) as u8)
            .collect();
        let seq4 = Sequence::from_symbols(symbols4, 4).unwrap();
        let pc4 = PrefixCounts::build(&seq4);
        let model4 = Model::from_probs(vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        let n4 = seq4.len();
        let mut simd4 = MaxPolicy::default();
        let s_simd4 = scan_starts_fixed::<4, true, _, _>(
            &pc4,
            &model4,
            1,
            usize::MAX,
            n4,
            (0..n4).rev(),
            &mut simd4,
        );
        let mut scalar4 = MaxPolicy::default();
        let s_scalar4 = scan_starts_fixed::<4, false, _, _>(
            &pc4,
            &model4,
            1,
            usize::MAX,
            n4,
            (0..n4).rev(),
            &mut scalar4,
        );
        assert_eq!(s_simd4, s_scalar4, "k=4 stats must match");
        let (a4, b4) = (simd4.best.unwrap(), scalar4.best.unwrap());
        assert_eq!((a4.start, a4.end), (b4.start, b4.end));
        assert_eq!(a4.chi_square.to_bits(), b4.chi_square.to_bits());
    }

    /// The three kernels and the reference engine agree on the examined
    /// stream's final max for all small alphabets.
    #[test]
    fn kernels_agree_with_reference_engine() {
        for k in [2usize, 3, 4, 5] {
            let symbols: Vec<u8> = (0..120u32)
                .map(|i| ((i * 7 + i / 5) % k as u32) as u8)
                .collect();
            let seq = Sequence::from_symbols(symbols, k).unwrap();
            let pc = PrefixCounts::build(&seq);
            let model = Model::uniform(k).unwrap();
            let n = seq.len();
            let mut fast = MaxPolicy::default();
            scan_policy(
                &pc,
                &model,
                1,
                usize::MAX,
                n,
                (0..n).rev(),
                &mut fast,
                &mut Vec::new(),
            );
            let rc = ReferenceCounts::build(&seq);
            let mut reference = MaxPolicy::default();
            scan_policy_reference(&rc, &model, 1, (0..n).rev(), &mut reference);
            let f = fast.best.unwrap();
            let r = reference.best.unwrap();
            assert_eq!(
                f.chi_square.to_bits(),
                r.chi_square.to_bits(),
                "k = {k}: fast {f:?} vs reference {r:?}"
            );
        }
    }
}
