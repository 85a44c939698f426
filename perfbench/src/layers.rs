//! One entry point per layer. Each runs the same [`Op`]s and times only
//! the call into its layer, so the ladder's rungs differ by exactly the
//! layer added on top of the one below.

use std::time::Instant;

use sigstr_core::{Answer, Engine, Query, Scored};
use sigstr_corpus::{merge_ranked, Corpus};
use sigstr_server::client::ClientConn;
use sigstr_server::json::Json;
use sigstr_server::wire;

use crate::workload::{window_query, Doc, Op, Reply, WINDOW};

/// One timed operation.
pub struct Timed {
    pub ns: u64,
    /// Kept for the correctness check when the caller asked for it.
    pub reply: Option<Reply>,
    /// Substrings the scans behind this operation examined (engine
    /// layers only; 0 where the layer does not expose scan counters).
    pub examined: u64,
    /// Σ len^1.5 over the scanned ranges, the paper's cost yardstick.
    pub n15: f64,
}

pub trait Layer {
    fn run(&mut self, op: &Op, keep: bool) -> Result<Timed, String>;
}

fn nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn range_n15(range: Option<(usize, usize)>, n: usize) -> f64 {
    let len = range.map_or(n, |(l, r)| r - l);
    (len as f64).powf(1.5)
}

/// The engine directly: `clear` empties the result cache before each
/// operation, which leaves the scan kernel alone on the timed path.
pub struct EngineLayer {
    engines: Vec<Engine>,
    names: Vec<String>,
    clear: bool,
}

impl EngineLayer {
    pub fn new(docs: &[Doc], clear: bool) -> EngineLayer {
        EngineLayer {
            engines: docs
                .iter()
                .map(|d| Engine::new(&d.sequence(), d.model()).expect("engine builds"))
                .collect(),
            names: docs.iter().map(|d| d.name.clone()).collect(),
            clear,
        }
    }

    /// `(hits, misses)` of the result caches, summed over documents.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.engines
            .iter()
            .map(Engine::cache_stats)
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }
}

impl Layer for EngineLayer {
    fn run(&mut self, op: &Op, keep: bool) -> Result<Timed, String> {
        match op {
            Op::MergedTop { t } => {
                if self.clear {
                    self.engines.iter().for_each(Engine::clear_cache);
                }
                let start = Instant::now();
                let tops = self
                    .engines
                    .iter()
                    .map(|e| e.top_t(*t))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?;
                let per_doc: Vec<(usize, &str, &[Scored])> = tops
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (i, self.names[i].as_str(), r.items.as_slice()))
                    .collect();
                let hits = merge_ranked(&per_doc, *t);
                let ns = nanos(start);
                Ok(Timed {
                    ns,
                    examined: tops.iter().map(|r| r.stats.examined).sum(),
                    n15: self.engines.iter().map(|e| range_n15(None, e.n())).sum(),
                    reply: keep.then(|| Reply::Hits {
                        t: *t,
                        hits: hits.into_iter().map(|h| (h.name, h.item)).collect(),
                    }),
                })
            }
            Op::Query { doc, query } => self.query(*doc, *query, keep),
            // Below the corpus there is no append path: the engine
            // layers answer the live workload's window query over the
            // document as created.
            Op::Append { doc, .. } => {
                let query = window_query(self.engines[*doc].n());
                self.query(*doc, query, keep)
            }
        }
    }
}

impl EngineLayer {
    fn query(&self, doc: usize, query: Query, keep: bool) -> Result<Timed, String> {
        let engine = &self.engines[doc];
        if self.clear {
            engine.clear_cache();
        }
        let start = Instant::now();
        let answer = engine.answer(&query).map_err(|e| e.to_string())?;
        let ns = nanos(start);
        Ok(Timed {
            ns,
            examined: answer.stats().examined,
            n15: range_n15(query.range, engine.n()),
            reply: keep.then_some(Reply::Answer { doc, query, answer }),
        })
    }
}

/// A corpus opened in this process: snapshot loading, the warm-engine
/// cache, and the live write path, without HTTP.
pub struct CorpusLayer {
    corpus: Corpus,
    names: Vec<String>,
}

impl CorpusLayer {
    pub fn new(corpus: Corpus, docs: &[Doc]) -> CorpusLayer {
        CorpusLayer {
            corpus,
            names: docs.iter().map(|d| d.name.clone()).collect(),
        }
    }
}

impl Layer for CorpusLayer {
    fn run(&mut self, op: &Op, keep: bool) -> Result<Timed, String> {
        let start = Instant::now();
        let reply = match op {
            Op::Query { doc, query } => {
                let answer = self
                    .corpus
                    .query(&self.names[*doc], query)
                    .map_err(|e| e.to_string())?;
                Reply::Answer {
                    doc: *doc,
                    query: *query,
                    answer,
                }
            }
            Op::MergedTop { t } => {
                let hits = self.corpus.top_t_merged(*t).map_err(|e| e.to_string())?;
                Reply::Hits {
                    t: *t,
                    hits: hits.into_iter().map(|h| (h.name, h.item)).collect(),
                }
            }
            Op::Append {
                doc,
                data,
                expect_n,
            } => {
                let name = &self.names[*doc];
                let outcome = self
                    .corpus
                    .append_live(name, data.as_bytes())
                    .map_err(|e| e.to_string())?;
                let query = window_query(outcome.n - outcome.tail);
                let answer = self.corpus.query(name, &query).map_err(|e| e.to_string())?;
                Reply::Appended {
                    doc: *doc,
                    n: outcome.n,
                    expect_n: *expect_n,
                    query,
                    answer,
                }
            }
        };
        let ns = nanos(start);
        Ok(Timed {
            ns,
            reply: keep.then_some(reply),
            examined: 0,
            n15: 0.0,
        })
    }
}

/// A keep-alive HTTP client against one server or router.
pub struct HttpLayer {
    conn: ClientConn,
    names: Vec<String>,
}

impl HttpLayer {
    pub fn connect(addr: &str, docs: &[Doc]) -> Result<HttpLayer, String> {
        Ok(HttpLayer {
            conn: ClientConn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?,
            names: docs.iter().map(|d| d.name.clone()).collect(),
        })
    }

    /// One request; anything but `200` is an error. Returns the body
    /// undecoded, so callers can stop their clock before parsing it.
    pub fn call(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> Result<String, String> {
        let response = self
            .conn
            .request(method, target, body)
            .map_err(|e| format!("{method} {target}: {e}"))?;
        let text = String::from_utf8(response.body)
            .map_err(|_| format!("{method} {target}: body is not UTF-8"))?;
        if response.status != 200 {
            return Err(format!("{method} {target}: {} {text}", response.status));
        }
        Ok(text)
    }

    fn query_body(&self, doc: usize, query: &Query) -> String {
        Json::Obj(vec![
            ("doc".into(), Json::Str(self.names[doc].clone())),
            ("query".into(), wire::query_to_json(query)),
        ])
        .encode()
        .expect("finite query parameters")
    }
}

pub fn decode(text: &str) -> Result<Json, String> {
    Json::decode(text.trim()).map_err(|e| e.to_string())
}

fn answer_of(text: &str) -> Result<Answer, String> {
    wire::answer_from_json(decode(text)?.get("answer").ok_or("reply has no `answer`")?)
}

fn field_usize(json: &Json, key: &str) -> Result<usize, String> {
    json.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("reply has no integer `{key}`"))
}

impl Layer for HttpLayer {
    fn run(&mut self, op: &Op, keep: bool) -> Result<Timed, String> {
        let (ns, reply) = match op {
            Op::Query { doc, query } => {
                let body = self.query_body(*doc, query);
                let start = Instant::now();
                let text = self.call("POST", "/v1/query", Some(&body))?;
                let ns = nanos(start);
                let reply = if keep {
                    Some(Reply::Answer {
                        doc: *doc,
                        query: *query,
                        answer: answer_of(&text)?,
                    })
                } else {
                    None
                };
                (ns, reply)
            }
            Op::MergedTop { t } => {
                let target = format!("/v1/merged/top?t={t}");
                let start = Instant::now();
                let text = self.call("GET", &target, None)?;
                let ns = nanos(start);
                let reply = if keep {
                    let hits = decode(&text)?
                        .get("hits")
                        .and_then(Json::as_array)
                        .ok_or("merged reply has no `hits`")?
                        .iter()
                        .map(|h| wire::hit_from_json(h).map(|h| (h.name, h.item)))
                        .collect::<Result<Vec<_>, _>>()?;
                    Some(Reply::Hits { t: *t, hits })
                } else {
                    None
                };
                (ns, reply)
            }
            Op::Append {
                doc,
                data,
                expect_n,
            } => {
                let target = format!("/v1/documents/{}/append", self.names[*doc]);
                let body = Json::Obj(vec![("data".into(), Json::Str(data.clone()))])
                    .encode()
                    .expect("string body");
                let start = Instant::now();
                let appended = decode(&self.call("POST", &target, Some(&body))?)?;
                let n = field_usize(&appended, "n")?;
                let frozen = n
                    .checked_sub(field_usize(&appended, "tail")?)
                    .filter(|&f| f >= WINDOW)
                    .ok_or_else(|| format!("append reply has a bad geometry: {appended:?}"))?;
                let query = window_query(frozen);
                let query_body = self.query_body(*doc, &query);
                let text = self.call("POST", "/v1/query", Some(&query_body))?;
                let ns = nanos(start);
                let reply = if keep {
                    Some(Reply::Appended {
                        doc: *doc,
                        n,
                        expect_n: *expect_n,
                        query,
                        answer: answer_of(&text)?,
                    })
                } else {
                    None
                };
                (ns, reply)
            }
        };
        Ok(Timed {
            ns,
            reply,
            examined: 0,
            n15: 0.0,
        })
    }
}
