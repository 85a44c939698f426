//! Golden candidate stream: the exact answers **and** scan statistics of
//! the specialized k ∈ {2, 4} kernels on fixed seeded inputs.
//!
//! `kernel_equivalence` compares the SIMD tier with the scalar tier inside
//! one build, so a change that moves both tiers' candidate stream in
//! lockstep (a different lane interleave, a different refill order, a
//! resync that lands on another end position) would pass it unnoticed.
//! This test pins the stream itself: for 4096-symbol windows of a
//! 65,536-symbol document it records every answer's positions and `X²`
//! bit patterns (folded into one FNV-1a digest per query) together with
//! `ScanStats { examined, skips, skipped }`. Both count layouts must
//! reproduce the same table, and so must both dispatch tiers: CI runs the
//! suite by default and again under `SIGSTR_FORCE_SCALAR=1`.
//!
//! The document is generated by a self-contained SplitMix64 stream, so the
//! pinned values do not depend on any random-number crate.

use sigstr_core::{CountsLayout, Engine, Model, ScanStats, Scored, Sequence};

const N: usize = 65_536;
const WINDOW: usize = 4096;
/// Window offsets: aligned, odd, and the document's tail (whose last
/// resyncs land on position `n` itself).
const OFFSETS: [usize; 3] = [0, 30_001, N - WINDOW];

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Draw one symbol from the categorical distribution `probs`.
fn draw(rng: &mut SplitMix64, probs: &[f64]) -> u8 {
    let mut x = rng.unit();
    for (c, &p) in probs.iter().enumerate() {
        if x < p {
            return c as u8;
        }
        x -= p;
    }
    (probs.len() - 1) as u8
}

/// A near-null document drawn from `model`, with one planted 200-symbol
/// stretch per 4096 symbols drawn from a tilted distribution, so every
/// window holds both the paper's skip-dominated regime and significant
/// substrings.
fn document(k: usize, model: &Model, seed: u64) -> Sequence {
    let mut rng = SplitMix64(seed);
    let mut tilted: Vec<f64> = model.probs().iter().map(|p| p * 0.6).collect();
    tilted[0] += 0.4;
    let symbols = (0..N)
        .map(|i| {
            let planted = (1500..1700).contains(&(i % 4096));
            draw(&mut rng, if planted { &tilted } else { model.probs() })
        })
        .collect();
    Sequence::from_symbols(symbols, k).unwrap()
}

/// FNV-1a over every item's `(start, end, X² bits)`.
fn digest(items: &[Scored]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for s in items {
        for word in [s.start as u64, s.end as u64, s.chi_square.to_bits()] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01B3);
            }
        }
    }
    h
}

/// One pinned query: `(k, window offset, query, item count, digest,
/// examined, skips, skipped)`.
type Row = (usize, usize, &'static str, usize, u64, u64, u64, u64);

fn row(k: usize, l: usize, query: &'static str, items: &[Scored], stats: ScanStats) -> Row {
    (
        k,
        l,
        query,
        items.len(),
        digest(items),
        stats.examined,
        stats.skips,
        stats.skipped,
    )
}

fn model(k: usize) -> Model {
    match k {
        2 => Model::from_probs(vec![0.4, 0.6]).unwrap(),
        _ => Model::from_probs(vec![0.1, 0.2, 0.3, 0.4]).unwrap(),
    }
}

fn stream(k: usize, layout: CountsLayout) -> Vec<Row> {
    let model = model(k);
    let seq = document(k, &model, 0x5EED_0000 + k as u64);
    let engine = Engine::with_layout(&seq, model, layout).unwrap();
    // About half of the windows' maxima: thousands of qualifying
    // substrings, around the planted stretches.
    let alpha = if k == 2 { 25.0 } else { 200.0 };
    let mut rows = Vec::new();
    for l in OFFSETS {
        let r = l + WINDOW;
        let mss = engine.mss_in(l..r).unwrap();
        rows.push(row(k, l, "mss", &[mss.best], mss.stats));
        let top = engine.top_t_in(l..r, 5).unwrap();
        rows.push(row(k, l, "top5", &top.items, top.stats));
        let thr = engine.above_threshold_in(l..r, alpha).unwrap();
        rows.push(row(k, l, "threshold", &thr.items, thr.stats));
        let min = engine.mss_min_length_in(l..r, 512).unwrap();
        rows.push(row(k, l, "min_length", &[min.best], min.stats));
        let max = engine.mss_max_length_in(l..r, 256).unwrap();
        rows.push(row(k, l, "max_length", &[max.best], max.stats));
    }
    rows
}

/// Recorded from the kernels as they stood before the lane-major scan
/// loop; every later kernel must reproduce it exactly.
#[rustfmt::skip]
const EXPECTED: &[Row] = &[
    (2, 0, "mss", 1, 8107387983875814977, 100386, 100222, 8290270),
    (2, 0, "top5", 5, 11044079870778768721, 107449, 106796, 8283207),
    (2, 0, "threshold", 20706, 5327178043406396529, 125382, 103604, 8265274),
    (2, 0, "min_length", 1, 7457510064211109906, 113513, 112853, 6310807),
    (2, 0, "max_length", 1, 8107387983875814977, 35491, 35335, 980445),
    (2, 30001, "mss", 1, 13313831315868571291, 95794, 95643, 8294862),
    (2, 30001, "top5", 5, 4833997119912254786, 98764, 98263, 8291892),
    (2, 30001, "threshold", 12028, 6562020350276801436, 98676, 85807, 8291980),
    (2, 30001, "min_length", 1, 10039205164331957954, 117185, 116808, 6307135),
    (2, 30001, "max_length", 1, 13313831315868571291, 36234, 36063, 979702),
    (2, 61440, "mss", 1, 1646876268994879953, 101405, 101285, 8289251),
    (2, 61440, "top5", 5, 3338270050207201229, 105424, 105031, 8285232),
    (2, 61440, "threshold", 7225, 15294691054065634973, 105628, 97164, 8285028),
    (2, 61440, "min_length", 1, 7083858988070088455, 94795, 94380, 6329525),
    (2, 61440, "max_length", 1, 1646876268994879953, 37358, 37248, 978578),
    (4, 0, "mss", 1, 7730611147777718451, 163131, 162506, 8227525),
    (4, 0, "top5", 5, 16258964841331180506, 184320, 182694, 8206336),
    (4, 0, "threshold", 22490, 3912548075583070190, 123598, 98409, 8267058),
    (4, 0, "min_length", 1, 2788788277683038769, 162552, 159764, 6261768),
    (4, 0, "max_length", 1, 7730611147777718451, 60179, 59426, 955757),
    (4, 30001, "mss", 1, 5501983562542390684, 205023, 204238, 8185633),
    (4, 30001, "top5", 5, 3845748275078491465, 216433, 214613, 8174223),
    (4, 30001, "threshold", 58506, 10506366517212403574, 142604, 81681, 8248052),
    (4, 30001, "min_length", 1, 13119008185422372771, 176995, 175552, 6247325),
    (4, 30001, "max_length", 1, 5501983562542390684, 68557, 67699, 947379),
    (4, 61440, "mss", 1, 6429400215141565657, 145427, 144565, 8245229),
    (4, 61440, "top5", 5, 12735873123967535218, 159048, 157270, 8231608),
    (4, 61440, "threshold", 34139, 13861389139105372918, 128280, 91867, 8262376),
    (4, 61440, "min_length", 1, 3227603096169787440, 173895, 171481, 6250425),
    (4, 61440, "max_length", 1, 6429400215141565657, 55386, 54452, 960550),
];

#[test]
fn specialized_kernels_reproduce_the_golden_stream() {
    for layout in [CountsLayout::Flat, CountsLayout::Blocked] {
        let got: Vec<Row> = [2, 4].iter().flat_map(|&k| stream(k, layout)).collect();
        assert_eq!(got.len(), EXPECTED.len(), "{layout:?}: row count");
        for (g, e) in got.iter().zip(EXPECTED) {
            assert_eq!(g, e, "{layout:?}: k = {}, window {}, {}", e.0, e.1, e.2);
        }
    }
}
