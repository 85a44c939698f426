//! The workloads: the documents a run serves and the operation stream
//! it sends, both derived from the seed alone, plus the reference
//! answers every reply is checked against.
//!
//! Sizes and query kinds come from the ROADMAP's perf-ladder matrix
//! (n in {4k, 64k, 1M} x k in {2, 4} x {mss, top, threshold} x {cache
//! hit, cache miss, cold mmap}) and its baseline table (merged top-5
//! over 6 documents of n = 4096). Every query is one of the paper's
//! problems over 4096 symbols: a whole `hit` document, or a 4096-symbol
//! window of a 65,536-symbol `miss` or `live` document. So `hit` and
//! `miss` ask the same problems and differ only in the result cache.

use sigstr_core::{Answer, Engine, Model, Query, Scored, Sequence};
use sigstr_corpus::merge_ranked;

/// Documents per workload, as in the baseline table's router row.
const DOCS: usize = 6;
/// Symbols per `hit` document: the matrix's 4k.
const HIT_N: usize = 4_096;
/// Symbols per `miss` and `live` document at creation: the matrix's 64k.
const MISS_N: usize = 65_536;
/// Window queries cover this many symbols: the size of a `hit` document.
pub const WINDOW: usize = 4_096;
/// `t` of every top-t query, single-document and merged.
pub const TOP_T: usize = 5;
/// Symbols per live append. Not from the matrix, which has no writes: a
/// short record, so the append path rather than the watch re-scoring
/// sets the cost.
const APPEND_LEN: usize = 4;
/// Live tails freeze by size at this many symbols. The shipped policy
/// (64 KiB or 2 s) would freeze by the clock, or not at all within a
/// run; one window's worth keeps freezes in every run and their count
/// a function of the operations sent.
pub const FREEZE_TAIL: usize = WINDOW;

/// The threshold of threshold queries and live watches: significance
/// at family-wise level 0.05 over the 4096·4097/2 substrings of a
/// query, Bonferroni-corrected, i.e. the χ² value (k − 1 degrees of
/// freedom) a single substring exceeds with probability 5.96·10⁻⁹ under
/// the null model. On iid documents the answer is then almost always
/// empty (at most one item over 1000 documents of each k). An
/// uncorrected 10⁻⁵ gave some k = 4 documents thousands of answers,
/// and the seeds that drew one read a 3x higher p99.
pub fn alpha(k: usize) -> f64 {
    match k {
        2 => 33.848_007_294_100_31,
        4 => 41.190_240_803_981_396,
        _ => unreachable!("workloads use k = 2 and k = 4"),
    }
}

/// xorshift64* — small, fast and fully determined by the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Whole-document mss, top-t and threshold queries on `hit`
    /// documents plus merged top-t: after warm-up the result cache
    /// answers everything, so the serving layers dominate.
    Hit,
    /// The same problems over windows at random offsets of `miss`
    /// documents, all of alphabet size `k`: every request misses the
    /// result cache and runs the pruned scan kernel. One k per workload,
    /// because a k = 4 scan costs about 3.5x a k = 2 scan, and a mix
    /// would put the median on the seam between the two.
    Miss { k: usize },
    /// Appends to live documents, each followed by a top-t query over
    /// the newest frozen window: the write path, watches, freezes.
    Live,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "hit" => Some(Workload::Hit),
            "miss-k2" => Some(Workload::Miss { k: 2 }),
            "miss-k4" => Some(Workload::Miss { k: 4 }),
            "live" => Some(Workload::Live),
            _ => None,
        }
    }
}

/// One document: its initial content and how it is served.
#[derive(Debug, Clone)]
pub struct Doc {
    pub name: String,
    pub k: usize,
    pub symbols: Vec<u8>,
    /// The byte each symbol is written as in live appends.
    pub alphabet: &'static [u8],
    pub live: bool,
}

impl Doc {
    pub fn sequence(&self) -> Sequence {
        Sequence::from_symbols(self.symbols.clone(), self.k).expect("symbols fit the alphabet")
    }

    pub fn model(&self) -> Model {
        Model::uniform(self.k).expect("k >= 2")
    }
}

/// Draw `n` iid uniform symbols: the null model itself, the case the
/// paper's O(n^1.5) scan bound is stated for. Structure would make the
/// work per query depend on where the seed happened to plant it.
fn draw_symbols(rng: &mut Rng, k: usize, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.below(k) as u8).collect()
}

fn alphabet(k: usize) -> &'static [u8] {
    if k == 2 {
        b"01"
    } else {
        b"ACGT"
    }
}

/// The documents of a workload. Names are fixed (the consistent-hash
/// ring must place documents on both shards; `main` checks it), the
/// content comes from the seed. `hit` and `live` alternate k = 2 and
/// k = 4.
pub fn documents(workload: Workload, seed: u64) -> Vec<Doc> {
    let mut rng = Rng::new(seed ^ 0xd0c5);
    let (prefix, n, live) = match workload {
        Workload::Hit => ("doc", HIT_N, false),
        Workload::Miss { .. } => ("doc", MISS_N, false),
        Workload::Live => ("live", MISS_N, true),
    };
    (0..DOCS)
        .map(|i| {
            let k = match workload {
                Workload::Miss { k } => k,
                _ => 2 + 2 * (i % 2),
            };
            Doc {
                name: format!("{prefix}{i}"),
                k,
                symbols: draw_symbols(&mut rng, k, n),
                alphabet: alphabet(k),
                live,
            }
        })
        .collect()
}

/// One client operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// A single-document query.
    Query { doc: usize, query: Query },
    /// A corpus-wide merged top-t.
    MergedTop { t: usize },
    /// Append `data` (text in the document's alphabet) to a live
    /// document, then query [`window_query`] over its newest frozen
    /// symbols. After the append the stream holds `expect_n` symbols.
    Append {
        doc: usize,
        data: String,
        expect_n: usize,
    },
}

/// The query a live operation sends once its append reports the frozen
/// length.
pub fn window_query(frozen: usize) -> Query {
    Query::top_t(TOP_T).in_range(frozen - WINDOW, frozen)
}

/// The problem of kind `kind` (0 mss, 1 top-t, 2 threshold) on a
/// document of alphabet size `k`.
fn problem(kind: usize, k: usize) -> Query {
    match kind {
        0 => Query::mss(),
        1 => Query::top_t(TOP_T),
        _ => Query::above_threshold(alpha(k)),
    }
}

/// A random problem over a [`WINDOW`] at a random offset of a random
/// document. Offsets rarely repeat, so the result cache misses.
fn window_problem(rng: &mut Rng, docs: &[Doc]) -> Op {
    let doc = rng.below(docs.len());
    let l = rng.below(docs[doc].symbols.len() - WINDOW + 1);
    Op::Query {
        doc,
        query: problem(rng.below(3), docs[doc].k).in_range(l, l + WINDOW),
    }
}

/// The operation stream of one run. Every layer of the ladder gets a
/// fresh stream from the same seed, so all layers see the same
/// operations in the same order.
#[derive(Debug, Clone)]
pub struct OpStream {
    workload: Workload,
    seed: u64,
    rng: Rng,
    /// `hit`'s key set: every problem on every document, whole, plus
    /// the merged top-t.
    hit_keys: Vec<Op>,
    /// Live documents' full content (initial plus appended), as symbols.
    pub content: Vec<Vec<u8>>,
    alphabets: Vec<&'static [u8]>,
}

impl OpStream {
    pub fn new(workload: Workload, seed: u64, docs: &[Doc]) -> OpStream {
        let mut hit_keys: Vec<Op> = docs
            .iter()
            .enumerate()
            .flat_map(|(doc, d)| {
                (0..3).map(move |kind| Op::Query {
                    doc,
                    query: problem(kind, d.k),
                })
            })
            .collect();
        hit_keys.push(Op::MergedTop { t: TOP_T });
        OpStream {
            workload,
            seed,
            rng: Rng::new(seed ^ 0x0b5),
            hit_keys,
            content: docs.iter().map(|d| d.symbols.clone()).collect(),
            alphabets: docs.iter().map(|d| d.alphabet).collect(),
        }
    }

    /// Operations that load every document and fill the caches a
    /// workload relies on; set-up runs them before anything is timed.
    /// `miss` warms with windows of its own, so the measured operations
    /// still miss the result cache.
    pub fn warmup(&self, docs: &[Doc]) -> Vec<Op> {
        match self.workload {
            Workload::Hit => self.hit_keys.clone(),
            Workload::Miss { .. } => {
                let mut rng = Rng::new(self.seed ^ 0x3a53);
                (0..docs.len())
                    .map(|doc| {
                        let l = rng.below(docs[doc].symbols.len() - WINDOW + 1);
                        Op::Query {
                            doc,
                            query: problem(0, docs[doc].k).in_range(l, l + WINDOW),
                        }
                    })
                    .collect()
            }
            Workload::Live => docs
                .iter()
                .enumerate()
                .map(|(doc, d)| Op::Query {
                    doc,
                    query: window_query(d.symbols.len()),
                })
                .collect(),
        }
    }

    pub fn next_op(&mut self, docs: &[Doc]) -> Op {
        match self.workload {
            Workload::Hit => self.hit_keys[self.rng.below(self.hit_keys.len())].clone(),
            Workload::Miss { .. } => window_problem(&mut self.rng, docs),
            Workload::Live => {
                // A random document each time: round-robin appends would
                // fill every tail in lockstep and freeze them all at once.
                let doc = self.rng.below(docs.len());
                let k = docs[doc].k;
                let symbols: Vec<u8> = (0..APPEND_LEN).map(|_| self.rng.below(k) as u8).collect();
                let data = symbols
                    .iter()
                    .map(|&s| self.alphabets[doc][s as usize] as char)
                    .collect();
                self.content[doc].extend_from_slice(&symbols);
                Op::Append {
                    doc,
                    data,
                    expect_n: self.content[doc].len(),
                }
            }
        }
    }
}

/// What a layer answered, kept for a sample of operations and checked
/// after the timed window.
#[derive(Debug, Clone)]
pub enum Reply {
    Answer {
        doc: usize,
        query: Query,
        answer: Answer,
    },
    /// Merged hits as `(document name, item)`.
    Hits {
        t: usize,
        hits: Vec<(String, Scored)>,
    },
    /// A live append reported stream length `n`; the follow-up query's
    /// answer rides along.
    Appended {
        doc: usize,
        n: usize,
        expect_n: usize,
        query: Query,
        answer: Answer,
    },
}

/// Reference engines, built in the benchmark process from the content
/// the benchmark itself generated.
pub struct Reference {
    names: Vec<String>,
    engines: Vec<Engine>,
}

impl Reference {
    /// `content[i]` is document `i`'s full symbol stream (for live
    /// documents the longest stream any layer appended).
    pub fn new(docs: &[Doc], content: &[Vec<u8>]) -> Reference {
        let engines = docs
            .iter()
            .zip(content)
            .map(|(doc, symbols)| {
                let seq = Sequence::from_symbols(symbols.clone(), doc.k)
                    .expect("symbols fit the alphabet");
                Engine::new(&seq, doc.model()).expect("reference engine")
            })
            .collect();
        Reference {
            names: docs.iter().map(|d| d.name.clone()).collect(),
            engines,
        }
    }

    pub fn answer(&self, doc: usize, query: &Query) -> Answer {
        self.engines[doc].answer(query).expect("reference query")
    }

    /// The merged top-t in document-name order (the names sort as the
    /// documents are numbered).
    pub fn merged(&self, t: usize) -> Vec<(String, Scored)> {
        let tops: Vec<_> = self
            .engines
            .iter()
            .map(|e| e.top_t(t).expect("reference top-t").items)
            .collect();
        let per_doc: Vec<(usize, &str, &[Scored])> = tops
            .iter()
            .enumerate()
            .map(|(i, items)| (i, self.names[i].as_str(), items.as_slice()))
            .collect();
        merge_ranked(&per_doc, t)
            .into_iter()
            .map(|hit| (hit.name, hit.item))
            .collect()
    }

    /// Check one reply: answers must equal the reference bit for bit,
    /// scan counters included.
    pub fn check(&self, reply: &Reply) -> Result<(), String> {
        match reply {
            Reply::Answer { doc, query, answer } => {
                let want = self.answer(*doc, query);
                same_answer(answer, &want)
                    .map_err(|e| format!("{} {query:?}: {e}", self.names[*doc]))
            }
            Reply::Hits { t, hits } => {
                let want = self.merged(*t);
                let bits = |v: &[(String, Scored)]| -> Vec<(String, usize, usize, u64)> {
                    v.iter()
                        .map(|(n, s)| (n.clone(), s.start, s.end, s.chi_square.to_bits()))
                        .collect()
                };
                if bits(hits) == bits(&want) {
                    Ok(())
                } else {
                    Err(format!("merged top-{t}: {hits:?} != {want:?}"))
                }
            }
            Reply::Appended {
                doc,
                n,
                expect_n,
                query,
                answer,
            } => {
                if n != expect_n {
                    return Err(format!(
                        "{}: append reported n = {n}, expected {expect_n}",
                        self.names[*doc]
                    ));
                }
                let want = self.answer(*doc, query);
                same_answer(answer, &want)
                    .map_err(|e| format!("{} {query:?}: {e}", self.names[*doc]))
            }
        }
    }
}

fn same_answer(got: &Answer, want: &Answer) -> Result<(), String> {
    let bits = |a: &Answer| -> Vec<(usize, usize, u64)> {
        a.items()
            .iter()
            .map(|s| (s.start, s.end, s.chi_square.to_bits()))
            .collect()
    };
    if got == want && bits(got) == bits(want) {
        Ok(())
    } else {
        Err(format!("got {got:?}, want {want:?}"))
    }
}
