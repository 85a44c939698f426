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
//! of the current substring is never rebuilt from scratch. The sequential
//! step advances it by reading **one symbol** when the skip is zero and
//! resyncs it with an `O(k)` prefix-table diff after a jump; the packed
//! round resyncs every lane as `T[end] − T[start]` from the prefix rows.
//! Scores always come from the canonical [`chi_square_counts_with_len`]
//! accumulation, so every kernel reports bit-identical `X²` for the same
//! substring regardless of scan path.
//!
//! Three monomorphized kernels share the skeleton:
//!
//! | Kernel | Alphabet | Count storage |
//! |---|---|---|
//! | `scan_starts_fixed::<2>` | binary (stock up/down, win/loss) | `[[u32; 12]; 2]` lane state |
//! | `scan_starts_fixed::<4>` | quaternary (DNA) | `[[u32; 12]; 4]` lane state |
//! | `scan_starts_dyn` | any `k ≤ 256` | one `Vec` per scan call |
//!
//! The specialized kernels keep twelve start positions in flight in one
//! structure-of-arrays [`Lanes`] state for the whole scan. On AVX2 a
//! round in which no lane reaches the budget runs packed: examine, skip
//! commit and a gathered count resync for all twelve lanes in vector
//! registers (`simd::lane_rounds`). A round in which some lane must
//! observe, and the whole scalar tier, step the same state one lane at a
//! time, so both tiers produce one candidate stream.
//!
//! All three kernels are generic over [`CountSource`], so each
//! monomorphizes once for the flat `PrefixCounts` table and once for the
//! two-level `BlockedCounts` table: with the blocked index a resync reads
//! one byte-packed delta row per endpoint plus a superblock row that is
//! almost always cache-resident, instead of a full `u32` column — the
//! layout dispatch happens before the loop, never inside it.
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
    // skip solver and (on AVX2) the packed rounds through the specialized
    // kernels. Both backends are bit-identical (see `simd`), so the branch
    // only picks an instruction mix.
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

/// Number of start positions scanned in interleaved *lanes* by the
/// specialized kernel (shared with the packed rounds — see
/// [`crate::simd::GROUP_LANES`]). The per-step dependency chain
/// (count load → score → skip solve → next count load) is latency-bound,
/// so running this many independent chains in one loop keeps the core's
/// out-of-order window full. Budgets only ever grow, so any interleaving
/// of observations is as safe as the sequential order, and the best result
/// is independent of the interleave (the scoring order is total).
const LANES: usize = crate::simd::GROUP_LANES;

/// The specialized kernel's lane state, structure-of-arrays: slot `i`
/// scans start `start[i]`, sits at end position `end[i]` with the count
/// vector of `S[start..end)` in column `i` of `counts`, and finishes once
/// its next end would pass `wend[i]` (the window end). `base` holds the
/// prefix row `T[start]`, so a packed round resyncs every lane as
/// `T[end] − T[start]`.
///
/// A finished or never-filled slot is parked with `end == wend`: the
/// packed round then commits a zero skip for it, so dead slots need no
/// masking beyond the pre-filter, the verification replay and the
/// `examined` count.
pub(crate) struct Lanes<const K: usize> {
    pub(crate) start: [u32; LANES],
    pub(crate) end: [u32; LANES],
    pub(crate) wend: [u32; LANES],
    pub(crate) counts: [[u32; LANES]; K],
    pub(crate) base: [[u32; LANES]; K],
    /// Bit `i` is set while slot `i` holds a live scan.
    pub(crate) live: u32,
}

impl<const K: usize> Lanes<K> {
    fn new() -> Self {
        Self {
            start: [0; LANES],
            end: [0; LANES],
            wend: [0; LANES],
            counts: [[0; LANES]; K],
            base: [[0; LANES]; K],
            live: 0,
        }
    }

    /// The first step of every round: each empty slot, in slot order,
    /// pulls the next start whose first candidate fits its window.
    /// Returns whether `starts` may still hold more.
    fn refill<C: CountSource>(
        &mut self,
        pc: &C,
        min_len: usize,
        window: usize,
        limit: usize,
        starts: &mut impl Iterator<Item = usize>,
    ) -> bool {
        for slot in 0..LANES {
            if self.live & (1 << slot) != 0 {
                continue;
            }
            let Some((i, end, window_end)) = starts
                .by_ref()
                .map(|i| {
                    debug_assert!(i + min_len <= limit);
                    (i, i + min_len, limit.min(i.saturating_add(window)))
                })
                .find(|&(_, end, window_end)| end <= window_end)
            else {
                return false;
            };
            let mut counts = [0u32; K];
            let mut base = [0u32; K];
            pc.fill_counts(i, end, &mut counts);
            pc.fill_counts(0, i, &mut base);
            let pos = |p: usize| u32::try_from(p).expect("prefix counts are u32, so positions fit");
            self.start[slot] = pos(i);
            self.end[slot] = pos(end);
            self.wend[slot] = pos(window_end);
            for m in 0..K {
                self.counts[m][slot] = counts[m];
                self.base[m][slot] = base[m];
            }
            self.live |= 1 << slot;
        }
        true
    }
}

/// One sequential round: step every live slot once, in slot order,
/// observing whatever reaches the budget. Runs on the same lane state as
/// the packed rounds, so both leave one candidate stream.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn sequential_round<const K: usize, const SIMD: bool, C: CountSource, P: Policy>(
    lanes: &mut Lanes<K>,
    pc: &C,
    symbols: &[u8],
    inv_p: &[f64; K],
    tables: &SkipTables<'_>,
    policy: &mut P,
    stats: &mut ScanStats,
) {
    for i in 0..LANES {
        if lanes.live & (1 << i) == 0 {
            continue;
        }
        let mut counts: [u32; K] = std::array::from_fn(|m| lanes.counts[m][i]);
        let (start, end) = (lanes.start[i] as usize, lanes.end[i] as usize);
        let window_end = lanes.wend[i] as usize;
        let lf = (end - start) as f64;
        // Weighted square sum Σ Y²/p in the canonical fixed order; the
        // division that finishes the statistic is deferred behind the
        // budget pre-filter below, so the common (pruned) case never
        // divides.
        let ws = weighted_square_sum(&counts, inv_p);
        stats.examined += 1;
        let mut budget = policy.budget();
        // Budget pre-filter: a substring with X² strictly below the budget
        // cannot affect any policy (that is what makes skipping safe at
        // all), so only candidates at or above it — with a generous margin
        // for the product's rounding — pay the division and the observe
        // call.
        if ws >= (budget + lf) * lf * (1.0 - 1e-12) {
            let x2 = chi_square_counts_with_len(&counts, inv_p, lf);
            policy.observe(Scored {
                start,
                end,
                chi_square: x2,
            });
            budget = policy.budget();
        }
        let skip =
            skip_from_ws_fixed::<K, SIMD>(&counts, lf, ws, budget, tables).min(window_end - end);
        if skip > 0 {
            stats.skips += 1;
            stats.skipped += skip as u64;
        }
        let next = end + skip + 1;
        if next > window_end {
            lanes.live &= !(1 << i);
            lanes.end[i] = lanes.wend[i];
            continue;
        }
        if skip == 0 {
            // Zero skip: the scan advances by one — push the single
            // symbol, O(1).
            counts[symbols[end] as usize] += 1;
        } else {
            // Resync after a jump: one O(k) bulk diff over the skipped
            // region (a single pair of adjacent table columns).
            pc.accumulate_counts(end, next, &mut counts);
        }
        lanes.end[i] = next as u32;
        for (row, &c) in lanes.counts.iter_mut().zip(&counts) {
            row[i] = c;
        }
    }
}

/// Alphabet-specialized kernel: `K` is a compile-time constant, so the
/// count vector and the model tables are fixed-size stack arrays and every
/// per-character loop unrolls to a straight-line sequence.
///
/// The canonical stream runs in rounds over the [`LANES`] slots of one
/// structure-of-arrays [`Lanes`] state: each round first refills the empty
/// slots in slot order, then steps every live slot once. A round in which
/// no live lane reaches the budget pre-filter cannot move the budget, so
/// its lanes are independent and any order gives the same stream.
///
/// `SIMD` selects the vector backend for the skip-root solve, and — on
/// AVX2, checked once per scan, for tables whose rows can be gathered —
/// runs such rounds as packed rounds ([`crate::simd::lane_rounds`]): the
/// examine, the skip commit and the count resync of all twelve lanes stay
/// in vector registers, round after round, until a lane must observe (that
/// round runs sequentially) or finishes (its slot is refilled). Both values
/// of the flag produce bit-identical results, pinned by the
/// `kernel_equivalence` and `golden_stream` suites.
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
    // Every lane's rows then lie inside the index, which the packed
    // rounds' unchecked gathers rely on.
    assert!(limit <= pc.n(), "scan limit past the end of the index");
    let mut stats = ScanStats::default();
    let mut starts = starts.fuse();
    let mut lanes = Lanes::<K>::new();
    // Packed rounds need AVX2, positions and counts that convert exactly
    // from i32, and a table layout they can gather from.
    let rows = if SIMD && crate::simd::group_available() && pc.n() < (1 << 31) {
        pc.prefix_rows()
    } else {
        None
    };
    loop {
        let more = lanes.refill(pc, min_len, window, limit, &mut starts);
        if lanes.live == 0 {
            break;
        }
        if let Some(rows) = rows {
            let budget = policy.budget();
            if budget > 0.0 && budget.is_finite() {
                // SAFETY: `group_available` reports AVX2 only when the
                // hardware has it; `rows` exist only for n < 2³¹; refill
                // sets `start ≤ end ≤ wend ≤ limit ≤ n` (asserted above)
                // and both round kinds keep `end ≤ wend`.
                if unsafe {
                    crate::simd::lane_rounds(&mut lanes, rows, budget, &tables, &mut stats, more)
                } {
                    continue;
                }
            }
        }
        sequential_round::<K, SIMD, C, P>(
            &mut lanes, pc, symbols, &inv_p, &tables, policy, &mut stats,
        );
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
            // Budget pre-filter — see `sequential_round` for the argument.
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
    /// same scan stats — the packed rounds only replace sequential rounds
    /// that observe nothing (broader k/layout/offset coverage lives in
    /// `kernel_equivalence`, the pinned stream in `golden_stream`).
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
