//! Kernel equivalence: the incremental / alphabet-specialized scan
//! kernels must return **byte-identical** results to the exact
//! `baseline::trivial` `O(n²)` scan.
//!
//! All kernels score through the one canonical accumulation
//! (`chi_square_counts_with_len`), so for the same substring every engine
//! reports the same `f64` bit pattern. What each problem variant can
//! guarantee:
//!
//! * **threshold** — the full item *vector* is byte-identical (qualifying
//!   substrings are never skipped, and the collecting API returns them in
//!   the canonical start-descending / end-ascending order).
//! * **MSS / min-length** — the winning `X²` is byte-identical. The
//!   winning *position* may legitimately differ when several substrings
//!   tie at the maximum bit-for-bit: the pruned scan may skip a tied
//!   extension (Theorem 1 admits `bound ≤ budget`), while the trivial scan
//!   visits all of them (see `DESIGN.md`). The returned range must still
//!   score exactly the returned value.
//! * **top-t** — the sorted multiset of `X²` bit patterns is identical
//!   (positions at the boundary tie are likewise unpinned).
//!
//! Runs as a seeded loop over random sequences and models for
//! `k ∈ {2, 3, 4, 8}` — covering both specialized kernels (k = 2, 4) and
//! the generic kernel (k = 3, 8) — plus skewed models and adversarial
//! run-heavy strings.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sigstr_core::{
    above_threshold, baseline, chi_square_range, find_mss, mss_max_length, mss_min_length, top_t,
    BlockedCounts, CountSource, CountsLayout, Engine, GrowableCounts, Model, PrefixCounts,
    Sequence,
};

fn random_sequence(rng: &mut StdRng, k: usize, max_len: usize) -> Sequence {
    let n = rng.gen_range(1..=max_len);
    let symbols: Vec<u8> = (0..n).map(|_| rng.gen_range(0..k) as u8).collect();
    Sequence::from_symbols(symbols, k).unwrap()
}

/// A run-heavy string: long homogeneous stretches produce repeated exact
/// `X²` ties — the adversarial case for tie-break equivalence.
fn runny_sequence(rng: &mut StdRng, k: usize, max_len: usize) -> Sequence {
    let n = rng.gen_range(8..=max_len);
    let mut symbols = Vec::with_capacity(n);
    while symbols.len() < n {
        let symbol = rng.gen_range(0..k) as u8;
        let run = rng.gen_range(1..=9usize);
        for _ in 0..run.min(n - symbols.len()) {
            symbols.push(symbol);
        }
    }
    Sequence::from_symbols(symbols, k).unwrap()
}

fn random_model(rng: &mut StdRng, k: usize) -> Model {
    let weights: Vec<f64> = (0..k).map(|_| rng.gen_range(0.05..1.0)).collect();
    let total: f64 = weights.iter().sum();
    Model::from_probs(weights.into_iter().map(|w| w / total).collect()).unwrap()
}

fn check_case(seq: &Sequence, model: &Model, rng: &mut StdRng, label: &str) {
    let pc = PrefixCounts::build(seq);
    let k = model.k();

    // Problem 1 — MSS: bit-identical maximum, self-consistent range.
    let fast = find_mss(seq, model).unwrap();
    let slow = baseline::trivial::find_mss(seq, model).unwrap();
    assert_eq!(
        fast.best.chi_square.to_bits(),
        slow.best.chi_square.to_bits(),
        "{label}: MSS value differs: {} vs {}",
        fast.best.chi_square,
        slow.best.chi_square
    );
    assert_eq!(
        chi_square_range(&pc, fast.best.start, fast.best.end, model).to_bits(),
        fast.best.chi_square.to_bits(),
        "{label}: reported MSS range does not score its reported value"
    );
    // Both engines account for every substring.
    let n = seq.len() as u64;
    assert_eq!(
        fast.stats.examined + fast.stats.skipped,
        n * (n + 1) / 2,
        "{label}"
    );

    // Problem 2 — top-t: bit-identical sorted value multiset.
    let t = rng.gen_range(1..=12usize);
    let fast_top = top_t(seq, model, t).unwrap();
    let slow_top = baseline::trivial::top_t(seq, model, t).unwrap();
    let fast_bits: Vec<u64> = fast_top
        .items
        .iter()
        .map(|s| s.chi_square.to_bits())
        .collect();
    let slow_bits: Vec<u64> = slow_top
        .items
        .iter()
        .map(|s| s.chi_square.to_bits())
        .collect();
    assert_eq!(
        fast_bits, slow_bits,
        "{label}: top-{t} value multisets differ"
    );

    // Problem 3 — threshold: byte-identical item vector, positions and
    // order included.
    let alpha = rng.gen_range(0.5..3.0) * (k as f64);
    let fast_thr = above_threshold(seq, model, alpha).unwrap();
    let slow_thr = baseline::trivial::above_threshold(seq, model, alpha).unwrap();
    assert_eq!(
        fast_thr.items.len(),
        slow_thr.items.len(),
        "{label}: threshold set size"
    );
    for (f, s) in fast_thr.items.iter().zip(&slow_thr.items) {
        assert_eq!(
            (f.start, f.end),
            (s.start, s.end),
            "{label}: threshold positions"
        );
        assert_eq!(
            f.chi_square.to_bits(),
            s.chi_square.to_bits(),
            "{label}: threshold value at [{}, {})",
            f.start,
            f.end
        );
    }

    // Problem 4 — min-length: bit-identical constrained maximum.
    let gamma0 = rng.gen_range(0..seq.len());
    let fast_min = mss_min_length(seq, model, gamma0).unwrap();
    let slow_min = baseline::trivial::mss_min_length(seq, model, gamma0).unwrap();
    assert_eq!(
        fast_min.best.chi_square.to_bits(),
        slow_min.best.chi_square.to_bits(),
        "{label}: min-length (gamma0 = {gamma0}) value differs"
    );
    assert!(
        fast_min.best.len() > gamma0,
        "{label}: length constraint violated"
    );

    // Engine-served queries — every variant must be *fully* identical to
    // its one-shot counterpart (same code path, so positions and stats
    // included), twice (the second answer comes from the result cache).
    let engine = Engine::new(seq, model.clone()).unwrap();
    let w = rng.gen_range(1..=seq.len());
    let fast_max = mss_max_length(seq, model, w).unwrap();
    for round in 0..2 {
        let ctx = format!("{label}: engine round {round}");
        assert_eq!(engine.mss().unwrap(), fast, "{ctx}: mss");
        assert_eq!(engine.top_t(t).unwrap(), fast_top, "{ctx}: top-{t}");
        assert_eq!(
            engine.above_threshold(alpha).unwrap(),
            fast_thr,
            "{ctx}: threshold"
        );
        assert_eq!(
            engine.mss_min_length(gamma0).unwrap(),
            fast_min,
            "{ctx}: min-length"
        );
        assert_eq!(
            engine.mss_max_length(w).unwrap(),
            fast_max,
            "{ctx}: max-length (w = {w})"
        );
    }
}

/// Range-restricted engine queries must equal the one-shot answer on the
/// sliced sequence, with positions translated by the range offset.
fn check_range_case(seq: &Sequence, model: &Model, rng: &mut StdRng, label: &str) {
    let n = seq.len();
    let engine = Engine::new(seq, model.clone()).unwrap();
    for _ in 0..4 {
        let l = rng.gen_range(0..n);
        let r = rng.gen_range(l + 1..=n);
        let sliced = Sequence::from_symbols(seq.symbols()[l..r].to_vec(), seq.k()).unwrap();
        let ctx = format!("{label}: range {l}..{r}");

        let ranged = engine.mss_in(l..r).unwrap();
        let sliced_mss = find_mss(&sliced, model).unwrap();
        assert_eq!(
            (ranged.best.start, ranged.best.end),
            (sliced_mss.best.start + l, sliced_mss.best.end + l),
            "{ctx}: mss position"
        );
        assert_eq!(
            ranged.best.chi_square.to_bits(),
            sliced_mss.best.chi_square.to_bits(),
            "{ctx}: mss value"
        );
        assert_eq!(ranged.stats, sliced_mss.stats, "{ctx}: mss stats");

        let t = rng.gen_range(1..=8usize);
        let ranged_top = engine.top_t_in(l..r, t).unwrap();
        let sliced_top = top_t(&sliced, model, t).unwrap();
        assert_eq!(
            ranged_top.items.len(),
            sliced_top.items.len(),
            "{ctx}: top-{t} size"
        );
        for (a, b) in ranged_top.items.iter().zip(&sliced_top.items) {
            assert_eq!(
                (a.start, a.end, a.chi_square.to_bits()),
                (b.start + l, b.end + l, b.chi_square.to_bits()),
                "{ctx}: top-{t} item"
            );
        }

        let alpha = rng.gen_range(0.5..3.0) * (seq.k() as f64);
        let ranged_thr = engine.above_threshold_in(l..r, alpha).unwrap();
        let sliced_thr = above_threshold(&sliced, model, alpha).unwrap();
        assert_eq!(
            ranged_thr.items.len(),
            sliced_thr.items.len(),
            "{ctx}: threshold size"
        );
        for (a, b) in ranged_thr.items.iter().zip(&sliced_thr.items) {
            assert_eq!(
                (a.start, a.end, a.chi_square.to_bits()),
                (b.start + l, b.end + l, b.chi_square.to_bits()),
                "{ctx}: threshold item"
            );
        }

        let gamma0 = rng.gen_range(0..(r - l));
        let ranged_min = engine.mss_min_length_in(l..r, gamma0).unwrap();
        let sliced_min = mss_min_length(&sliced, model, gamma0).unwrap();
        assert_eq!(
            (
                ranged_min.best.start,
                ranged_min.best.end,
                ranged_min.best.chi_square.to_bits()
            ),
            (
                sliced_min.best.start + l,
                sliced_min.best.end + l,
                sliced_min.best.chi_square.to_bits()
            ),
            "{ctx}: min-length (gamma0 = {gamma0})"
        );

        let w = rng.gen_range(1..=(r - l));
        let ranged_max = engine.mss_max_length_in(l..r, w).unwrap();
        let sliced_max = mss_max_length(&sliced, model, w).unwrap();
        assert_eq!(
            (
                ranged_max.best.start,
                ranged_max.best.end,
                ranged_max.best.chi_square.to_bits()
            ),
            (
                sliced_max.best.start + l,
                sliced_max.best.end + l,
                sliced_max.best.chi_square.to_bits()
            ),
            "{ctx}: max-length (w = {w})"
        );
    }
}

#[test]
fn kernels_match_trivial_baseline_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0BAD_F00D);
    for &k in &[2usize, 3, 4, 8] {
        for case in 0..40 {
            let seq = random_sequence(&mut rng, k, 160);
            let model = random_model(&mut rng, k);
            check_case(&seq, &model, &mut rng, &format!("k={k} random case {case}"));
        }
    }
}

#[test]
fn kernels_match_trivial_on_uniform_models() {
    let mut rng = StdRng::seed_from_u64(0xD15E_A5ED);
    for &k in &[2usize, 3, 4, 8] {
        let model = Model::uniform(k).unwrap();
        for case in 0..25 {
            let seq = random_sequence(&mut rng, k, 200);
            check_case(
                &seq,
                &model,
                &mut rng,
                &format!("k={k} uniform case {case}"),
            );
        }
    }
}

#[test]
fn kernels_match_trivial_on_run_heavy_strings() {
    let mut rng = StdRng::seed_from_u64(0x0BAD_CAFE);
    for &k in &[2usize, 3, 4, 8] {
        let model = Model::uniform(k).unwrap();
        for case in 0..25 {
            let seq = runny_sequence(&mut rng, k, 140);
            check_case(&seq, &model, &mut rng, &format!("k={k} runny case {case}"));
        }
    }
}

#[test]
fn engine_range_queries_match_sliced_one_shot() {
    let mut rng = StdRng::seed_from_u64(0x5A5A_C0DE_D00D);
    for &k in &[2usize, 3, 4, 8] {
        for case in 0..12 {
            let seq = random_sequence(&mut rng, k, 160);
            let model = random_model(&mut rng, k);
            check_range_case(&seq, &model, &mut rng, &format!("k={k} random case {case}"));
        }
        let model = Model::uniform(k).unwrap();
        for case in 0..8 {
            let seq = runny_sequence(&mut rng, k, 140);
            check_range_case(&seq, &model, &mut rng, &format!("k={k} runny case {case}"));
        }
    }
}

#[test]
fn reference_engine_matches_fast_engine_values() {
    let mut rng = StdRng::seed_from_u64(0xFEED_FACE);
    for &k in &[2usize, 4, 6] {
        for case in 0..20 {
            let seq = random_sequence(&mut rng, k, 250);
            let model = random_model(&mut rng, k);
            let fast = find_mss(&seq, &model).unwrap();
            let reference = sigstr_core::find_mss_reference(&seq, &model).unwrap();
            assert_eq!(
                fast.best.chi_square.to_bits(),
                reference.best.chi_square.to_bits(),
                "k={k} case {case}: fast vs reference engine disagree"
            );
        }
    }
}

/// The two count-index layouts must agree **bit-for-bit**: identical
/// `u32` count vectors on every probed range (so every downstream score
/// is the same `f64`), across alphabets covering both specialized
/// kernels, the generic kernel, and a letters-sized alphabet, with block
/// spacings landing superblock boundaries everywhere relative to the
/// probed ranges (including the u16 escape tier).
#[test]
fn blocked_counts_bit_identical_to_flat() {
    let mut rng = StdRng::seed_from_u64(0xB10C_C0DE);
    for &k in &[2usize, 3, 4, 8, 26] {
        for case in 0..12 {
            let seq = random_sequence(&mut rng, k, 700);
            let pc = PrefixCounts::build(&seq);
            let block = 1usize << rng.gen_range(0..13); // 1 .. 4096
            let bc = BlockedCounts::with_block(&seq, block).unwrap();
            // Tiny spacings are correctness-only (a superblock at every
            // other position outweighs the byte-packed deltas); at
            // realistic spacings the blocked index must be smaller.
            if block >= 16 {
                assert!(
                    bc.index_bytes() <= pc.index_bytes(),
                    "k={k} block={block}: blocked index larger than flat"
                );
            }
            let n = seq.len();
            let mut flat_buf = vec![0u32; k];
            let mut blocked_buf = vec![0u32; k];
            for _ in 0..200 {
                let start = rng.gen_range(0..=n);
                let end = rng.gen_range(start..=n);
                let c = rng.gen_range(0..k);
                assert_eq!(
                    bc.count(c, start, end),
                    pc.count(c, start, end),
                    "k={k} case {case} block={block}: count({c}, {start}, {end})"
                );
                pc.fill_counts(start, end, &mut flat_buf);
                bc.fill_counts(start, end, &mut blocked_buf);
                assert_eq!(
                    flat_buf, blocked_buf,
                    "k={k} case {case} block={block}: fill({start}, {end})"
                );
                let mid = rng.gen_range(start..=end);
                pc.fill_counts(start, mid, &mut flat_buf);
                bc.fill_counts(start, mid, &mut blocked_buf);
                pc.accumulate_counts(mid, end, &mut flat_buf);
                bc.accumulate_counts(mid, end, &mut blocked_buf);
                assert_eq!(
                    flat_buf, blocked_buf,
                    "k={k} case {case} block={block}: accumulate({start}, {mid}, {end})"
                );
            }
        }
    }
}

/// End-to-end: an engine built on the blocked layout must answer every
/// problem variant *fully* identically (values, positions, and scan
/// stats) to one built on the flat layout — the scan streams are the
/// same, so the pruning decisions and the reported floats are too.
#[test]
fn blocked_engine_matches_flat_engine_exactly() {
    let mut rng = StdRng::seed_from_u64(0x1DEA_0B10);
    for &k in &[2usize, 3, 4, 8, 26] {
        for case in 0..8 {
            let seq = random_sequence(&mut rng, k, 200);
            let model = random_model(&mut rng, k);
            let flat = Engine::with_layout(&seq, model.clone(), CountsLayout::Flat).unwrap();
            let blocked = Engine::with_layout(&seq, model.clone(), CountsLayout::Blocked).unwrap();
            let label = format!("k={k} case {case}");
            let t = rng.gen_range(1..=8usize);
            let alpha = rng.gen_range(0.5..3.0) * (k as f64);
            let gamma0 = rng.gen_range(0..seq.len());
            let w = rng.gen_range(1..=seq.len());
            assert_eq!(flat.mss().unwrap(), blocked.mss().unwrap(), "{label}: mss");
            assert_eq!(
                flat.top_t(t).unwrap(),
                blocked.top_t(t).unwrap(),
                "{label}: top-{t}"
            );
            assert_eq!(
                flat.above_threshold(alpha).unwrap(),
                blocked.above_threshold(alpha).unwrap(),
                "{label}: threshold"
            );
            assert_eq!(
                flat.mss_min_length(gamma0).unwrap(),
                blocked.mss_min_length(gamma0).unwrap(),
                "{label}: min-length"
            );
            assert_eq!(
                flat.mss_max_length(w).unwrap(),
                blocked.mss_max_length(w).unwrap(),
                "{label}: max-length"
            );
            if seq.len() > 2 {
                let l = rng.gen_range(0..seq.len() - 1);
                let r = rng.gen_range(l + 1..=seq.len());
                assert_eq!(
                    flat.mss_in(l..r).unwrap(),
                    blocked.mss_in(l..r).unwrap(),
                    "{label}: mss_in({l}..{r})"
                );
            }
        }
    }
}

/// Restores auto-detection when a dispatch test ends, even if one of its
/// assertions panics, so no test leaks forced-scalar mode into the rest of
/// the suite.
struct DispatchGuard;

impl Drop for DispatchGuard {
    fn drop(&mut self) {
        sigstr_core::simd::set_force_scalar(false);
    }
}

/// Draws `n` symbols from `model` itself: a near-null string, the paper's
/// regime, where the pruned scan spends its time skipping.
fn sample_from_model(rng: &mut StdRng, model: &Model, n: usize) -> Sequence {
    let k = model.k();
    let symbols: Vec<u8> = (0..n)
        .map(|_| {
            let mut x: f64 = rng.gen_range(0.0..1.0);
            let mut c = 0;
            while c + 1 < k && x >= model.probs()[c] {
                x -= model.probs()[c];
                c += 1;
            }
            c as u8
        })
        .collect();
    Sequence::from_symbols(symbols, k).unwrap()
}

/// SIMD and forced-scalar dispatch must agree on the **full** result
/// structs — positions, scan stats, and every `chi_square` bit pattern —
/// across alphabets covering the packed group-examine kernel (k = 2, 4),
/// both specialized resync kernels, the generic kernel, and a
/// letters-sized alphabet; both count layouts; and range starts pinned
/// to odd offsets so the 12-lane round-robin interleave begins off every
/// natural alignment boundary. Each mode gets its own engine, so no
/// answer is served from the other mode's result cache.
///
/// The packed group examine only runs on full 12-lane rounds with the
/// budget already warm, which short strings rarely reach, so the inputs
/// also include k ∈ {2, 4} strings of at least 8192 symbols drawn from a
/// uniform and a skewed model.
///
/// This is the only test in this binary that flips the process-wide
/// dispatch switch: a second one running in parallel could un-force the
/// scalar side mid-comparison and make it compare SIMD against SIMD.
#[test]
fn simd_and_scalar_dispatch_are_bit_identical() {
    let _guard = DispatchGuard;

    let mut rng = StdRng::seed_from_u64(0x51D0_5CA1);
    for &layout in &[CountsLayout::Flat, CountsLayout::Blocked] {
        // (label, sequence, model, long)
        let mut inputs = Vec::new();
        for &k in &[2usize, 3, 4, 8, 26] {
            for case in 0..6 {
                let seq = random_sequence(&mut rng, k, 400);
                let model = random_model(&mut rng, k);
                inputs.push((format!("k={k} case {case}"), seq, model, false));
            }
        }
        for &k in &[2usize, 4] {
            let skewed: Vec<f64> = (1..=k).map(|c| c as f64).collect();
            let skewed_total: f64 = skewed.iter().sum();
            for model in [
                Model::uniform(k).unwrap(),
                Model::from_probs(skewed.iter().map(|w| w / skewed_total).collect()).unwrap(),
            ] {
                let n = rng.gen_range(8192..=12_000usize);
                let seq = sample_from_model(&mut rng, &model, n);
                let label = format!("k={k} n={n} probs {:?}", model.probs());
                inputs.push((label, seq, model, true));
            }
        }

        for (name, seq, model, long) in &inputs {
            let k = model.k();
            let n = seq.len();
            let label = format!("{name} {layout:?}");
            let (l, r, t, alpha, gamma0, w) = if *long {
                // Wide ranges and a threshold high enough to keep the
                // qualifying set small on near-null strings.
                let l = rng.gen_range(0..n / 4) | 1;
                let r = rng.gen_range(n / 2..=n);
                (l, r, 5, 4.0 * k as f64 + 12.0, n / 8, n / 8)
            } else {
                // Odd (unaligned) range start whenever the sequence is
                // long enough to have one.
                let l = if n > 2 {
                    rng.gen_range(0..n - 1) | 1
                } else {
                    0
                }
                .min(n - 1);
                let r = rng.gen_range(l + 1..=n);
                (
                    l,
                    r,
                    rng.gen_range(1..=8usize),
                    rng.gen_range(0.5..3.0) * (k as f64),
                    rng.gen_range(0..(r - l)),
                    rng.gen_range(1..=(r - l)),
                )
            };

            let run = |force: bool| {
                sigstr_core::simd::set_force_scalar(force);
                let engine = Engine::with_layout(seq, model.clone(), layout).unwrap();
                (
                    engine.mss().unwrap(),
                    engine.mss_in(l..r).unwrap(),
                    engine.top_t_in(l..r, t).unwrap(),
                    engine.above_threshold_in(l..r, alpha).unwrap(),
                    engine.mss_min_length_in(l..r, gamma0).unwrap(),
                    engine.mss_max_length_in(l..r, w).unwrap(),
                )
            };
            let scalar = run(true);
            let simd = run(false);

            // Full structs: values, positions, and scan stats.
            assert_eq!(scalar.0, simd.0, "{label}: mss");
            assert_eq!(scalar.1, simd.1, "{label}: mss_in({l}..{r})");
            assert_eq!(scalar.2, simd.2, "{label}: top-{t}");
            assert_eq!(scalar.3, simd.3, "{label}: threshold (alpha = {alpha})");
            assert_eq!(scalar.4, simd.4, "{label}: min-length (gamma0 = {gamma0})");
            assert_eq!(scalar.5, simd.5, "{label}: max-length (w = {w})");
            // And the float *bit patterns*, independently of any
            // `PartialEq` subtleties.
            let bits = |v: &[sigstr_core::Scored]| -> Vec<u64> {
                v.iter().map(|s| s.chi_square.to_bits()).collect()
            };
            assert_eq!(
                bits(&[scalar.0.best, scalar.1.best, scalar.4.best, scalar.5.best]),
                bits(&[simd.0.best, simd.1.best, simd.4.best, simd.5.best]),
                "{label}: best bits"
            );
            assert_eq!(
                bits(&scalar.2.items),
                bits(&simd.2.items),
                "{label}: top-{t} item bits"
            );
            assert_eq!(
                bits(&scalar.3.items),
                bits(&simd.3.items),
                "{label}: threshold item bits"
            );
        }
    }
}

/// A consumed stream must freeze into equivalent indexes in *both*
/// layouts: `into_prefix_counts` / `into_blocked_counts` /
/// `into_index(layout)` all answer identically to an index built offline
/// from the same symbols.
#[test]
fn growable_freeze_equivalence_for_both_layouts() {
    let mut rng = StdRng::seed_from_u64(0xF2EE_7E5D);
    for &k in &[2usize, 3, 4, 8, 26] {
        for case in 0..6 {
            let seq = random_sequence(&mut rng, k, 300);
            let built = PrefixCounts::build(&seq);
            let mut gc = GrowableCounts::new(k);
            for &s in seq.symbols() {
                gc.push(s);
            }
            let flat = gc.clone().into_prefix_counts();
            let blocked = gc.clone().into_blocked_counts();
            let auto = gc.into_index(CountsLayout::Auto);
            let n = seq.len();
            let mut expect = vec![0u32; k];
            let mut got = vec![0u32; k];
            for _ in 0..120 {
                let start = rng.gen_range(0..=n);
                let end = rng.gen_range(start..=n);
                built.fill_counts(start, end, &mut expect);
                flat.fill_counts(start, end, &mut got);
                assert_eq!(expect, got, "k={k} case {case}: flat freeze {start}..{end}");
                blocked.fill_counts(start, end, &mut got);
                assert_eq!(
                    expect, got,
                    "k={k} case {case}: blocked freeze {start}..{end}"
                );
                auto.fill_counts(start, end, &mut got);
                assert_eq!(expect, got, "k={k} case {case}: auto freeze {start}..{end}");
            }
        }
    }
}
