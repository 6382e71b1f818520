//! Query recording and replay — the substrate for *resumable* crawls.
//!
//! The paper's cost model exists because servers meter queries per client
//! per period (§1.1). A crawler that exhausts today's quota mid-crawl
//! should not re-pay tomorrow for answers it already holds: since the
//! server is deterministic (re-issuing a query returns the same
//! response), yesterday's recorded responses can be replayed locally.
//!
//! * [`Recorder`] transparently persists every `(query, outcome)` pair
//!   flowing through it into a [`QueryCache`];
//! * [`Replayer`] answers queries from a cache first and only forwards
//!   misses to the inner (typically budget-limited) database.
//!
//! Stacking `Recorder<Replayer<Budgeted<…>>>` day after day yields a
//! deterministic checkpoint/restart loop: each day the crawl replays its
//! previous prefix for free and extends it by one quota's worth of new
//! queries (exercised by `tests/resume.rs` and the `resumable_crawl`
//! example).

use std::collections::HashMap;

use hdc_types::{DbError, HiddenDatabase, Predicate, Query, QueryOutcome, Schema, Tuple, Value};

/// A persisted set of query responses.
#[derive(Clone, Default, Debug)]
pub struct QueryCache {
    map: HashMap<Query, QueryOutcome>,
}

impl QueryCache {
    /// An empty cache.
    pub fn new() -> Self {
        QueryCache::default()
    }

    /// Number of cached responses.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a recorded response.
    pub fn get(&self, q: &Query) -> Option<&QueryOutcome> {
        self.map.get(q)
    }

    /// Records a response (last write wins; with a deterministic server
    /// all writes for a query are identical anyway).
    pub fn insert(&mut self, q: Query, outcome: QueryOutcome) {
        self.map.insert(q, outcome);
    }

    /// Absorbs every entry of `other`.
    pub fn merge(&mut self, other: QueryCache) {
        self.map.extend(other.map);
    }

    /// Serializes the cache to a writer in a line-oriented text format,
    /// so an interrupted crawl survives a process restart (the multi-day
    /// workflow of `tests/resume.rs` made durable).
    ///
    /// Format, one record per cached query:
    /// ```text
    /// Q <pred>…          preds: "*" | "e<val>" | "r<lo>,<hi>"
    /// O <0|1>            overflow bit
    /// T <val>…           one line per returned tuple: "i<int>" | "c<cat>"
    /// ```
    /// Entries are written in a canonical (sorted) order so equal caches
    /// serialize identically.
    pub fn save<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "hdc-query-cache v1")?;
        let mut entries: Vec<(&Query, &QueryOutcome)> = self.map.iter().collect();
        entries.sort_by_key(|(q, _)| format!("{q}"));
        for (q, out) in entries {
            write!(w, "Q")?;
            for &p in q.preds() {
                match p {
                    Predicate::Any => write!(w, " *")?,
                    Predicate::Eq(v) => write!(w, " e{v}")?,
                    Predicate::Range { lo, hi } => write!(w, " r{lo},{hi}")?,
                }
            }
            writeln!(w)?;
            writeln!(w, "O {}", u8::from(out.overflow))?;
            for t in &out.tuples {
                write!(w, "T")?;
                for v in t.iter() {
                    write!(w, " {}", v.token())?;
                }
                writeln!(w)?;
            }
        }
        Ok(())
    }

    /// Deserializes a cache written by [`QueryCache::save`].
    pub fn load<R: std::io::BufRead>(r: R) -> std::io::Result<QueryCache> {
        use std::io::{Error, ErrorKind};
        let bad = |msg: &str| Error::new(ErrorKind::InvalidData, msg.to_string());

        let mut lines = r.lines();
        match lines.next() {
            Some(Ok(header)) if header == "hdc-query-cache v1" => {}
            _ => return Err(bad("missing or unsupported cache header")),
        }
        let mut cache = QueryCache::new();
        let mut current: Option<(Query, bool, Vec<Tuple>)> = None;
        for line in lines {
            let line = line?;
            if line.is_empty() {
                continue;
            }
            let Some((tag, rest)) = line.split_at_checked(1) else {
                return Err(bad(&format!("unknown record {line:?}")));
            };
            let rest = rest.trim_start();
            match tag {
                "Q" => {
                    if let Some((q, overflow, tuples)) = current.take() {
                        cache.insert(q, QueryOutcome { tuples, overflow });
                    }
                    let preds = rest
                        .split_whitespace()
                        .map(parse_pred)
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| bad(&e))?;
                    current = Some((Query::new(preds), false, Vec::new()));
                }
                "O" => {
                    let entry = current.as_mut().ok_or_else(|| bad("O before Q"))?;
                    entry.1 = match rest {
                        "0" => false,
                        "1" => true,
                        other => return Err(bad(&format!("bad overflow bit {other:?}"))),
                    };
                }
                "T" => {
                    let entry = current.as_mut().ok_or_else(|| bad("T before Q"))?;
                    let values = rest
                        .split_whitespace()
                        .map(|tok| {
                            Value::from_token(tok)
                                .ok_or_else(|| bad(&format!("bad value token {tok:?}")))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    entry.2.push(Tuple::new(values));
                }
                other => return Err(bad(&format!("unknown record tag {other:?}"))),
            }
        }
        if let Some((q, overflow, tuples)) = current.take() {
            cache.insert(q, QueryOutcome { tuples, overflow });
        }
        Ok(cache)
    }
}

fn parse_pred(token: &str) -> Result<Predicate, String> {
    if token == "*" {
        return Ok(Predicate::Any);
    }
    let (kind, rest) = token
        .split_at_checked(1)
        .ok_or_else(|| format!("unknown predicate token {token:?}"))?;
    match kind {
        "e" => rest
            .parse()
            .map(Predicate::Eq)
            .map_err(|e| format!("bad Eq {token:?}: {e}")),
        "r" => {
            let (lo, hi) = rest
                .split_once(',')
                .ok_or_else(|| format!("bad Range {token:?}"))?;
            Ok(Predicate::Range {
                lo: lo
                    .parse()
                    .map_err(|e| format!("bad Range lo {token:?}: {e}"))?,
                hi: hi
                    .parse()
                    .map_err(|e| format!("bad Range hi {token:?}: {e}"))?,
            })
        }
        _ => Err(format!("unknown predicate token {token:?}")),
    }
}

/// Records every response passing through to the inner database.
#[derive(Debug)]
pub struct Recorder<D> {
    inner: D,
    cache: QueryCache,
}

impl<D: HiddenDatabase> Recorder<D> {
    /// Starts recording on top of `inner` with an empty cache.
    pub fn new(inner: D) -> Self {
        Self::with_cache(inner, QueryCache::new())
    }

    /// Starts recording into an existing cache (appending).
    pub fn with_cache(inner: D, cache: QueryCache) -> Self {
        Recorder { inner, cache }
    }

    /// Returns the recorded cache, dropping the connection.
    pub fn into_cache(self) -> QueryCache {
        self.cache
    }

    /// The recorded cache so far.
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// The inner database.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: HiddenDatabase> HiddenDatabase for Recorder<D> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn query(&mut self, q: &Query) -> Result<QueryOutcome, DbError> {
        let out = self.inner.query(q)?;
        self.cache.insert(q.clone(), out.clone());
        Ok(out)
    }

    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
}

/// Serves queries from a cache first; only misses reach the inner
/// database (and its budget).
#[derive(Debug)]
pub struct Replayer<D> {
    inner: D,
    cache: QueryCache,
    hits: u64,
}

impl<D: HiddenDatabase> Replayer<D> {
    /// Replays `cache` over `inner`.
    pub fn new(inner: D, cache: QueryCache) -> Self {
        Replayer {
            inner,
            cache,
            hits: 0,
        }
    }

    /// Queries answered locally from the cache.
    pub fn cache_hits(&self) -> u64 {
        self.hits
    }

    /// Decomposes into the inner database and the cache.
    pub fn into_parts(self) -> (D, QueryCache) {
        (self.inner, self.cache)
    }

    /// The inner database.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Mutable access to the inner database (e.g. to advance a
    /// [`crate::DailyQuota`] clock between crawl attempts).
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }
}

impl<D: HiddenDatabase> HiddenDatabase for Replayer<D> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn query(&mut self, q: &Query) -> Result<QueryOutcome, DbError> {
        if let Some(out) = self.cache.get(q) {
            self.hits += 1;
            return Ok(out.clone());
        }
        let out = self.inner.query(q)?;
        // A replayer also records, so the next day inherits today's work
        // without stacking another Recorder.
        self.cache.insert(q.clone(), out.clone());
        Ok(out)
    }

    fn queries_issued(&self) -> u64 {
        self.inner.queries_issued()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budgeted;
    use crate::server::{HiddenDbServer, ServerConfig};
    use hdc_types::tuple::int_tuple;
    use hdc_types::Predicate;

    fn server() -> HiddenDbServer {
        let schema = hdc_types::Schema::builder()
            .numeric("a", 0, 99)
            .build()
            .unwrap();
        let rows = (0..100).map(|x| int_tuple(&[x])).collect();
        HiddenDbServer::new(schema, rows, ServerConfig { k: 10, seed: 1 }).unwrap()
    }

    fn q(lo: i64, hi: i64) -> Query {
        Query::new(vec![Predicate::Range { lo, hi }])
    }

    #[test]
    fn recorder_captures_everything() {
        let mut rec = Recorder::new(server());
        let a = rec.query(&q(0, 5)).unwrap();
        let b = rec.query(&q(10, 90)).unwrap();
        let cache = rec.into_cache();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&q(0, 5)), Some(&a));
        assert_eq!(cache.get(&q(10, 90)), Some(&b));
    }

    #[test]
    fn replayer_serves_hits_without_touching_inner() {
        let mut rec = Recorder::new(server());
        let recorded = rec.query(&q(0, 5)).unwrap();
        let cache = rec.into_cache();

        // Inner budget 0: any forwarded query would fail.
        let mut replay = Replayer::new(Budgeted::new(server(), 0), cache);
        let out = replay.query(&q(0, 5)).unwrap();
        assert_eq!(out, recorded);
        assert_eq!(replay.cache_hits(), 1);
        // A miss hits the (empty) budget.
        assert!(matches!(
            replay.query(&q(6, 7)),
            Err(DbError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn replayer_extends_its_own_cache() {
        let mut replay = Replayer::new(server(), QueryCache::new());
        replay.query(&q(0, 5)).unwrap();
        assert_eq!(replay.cache_hits(), 0);
        replay.query(&q(0, 5)).unwrap();
        assert_eq!(replay.cache_hits(), 1, "second ask is a hit");
        let (_, cache) = replay.into_parts();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn replayed_answers_match_live_answers() {
        // Determinism end-to-end: record, then replay against a fresh
        // server and compare with live responses.
        let queries: Vec<Query> = vec![q(0, 99), q(5, 20), q(50, 50), q(90, 99)];
        let mut rec = Recorder::new(server());
        let recorded: Vec<QueryOutcome> = queries.iter().map(|x| rec.query(x).unwrap()).collect();
        let mut live = server();
        for (x, out) in queries.iter().zip(&recorded) {
            assert_eq!(&live.query(x).unwrap(), out);
        }
    }

    #[test]
    fn cache_save_load_roundtrip() {
        let mut rec = Recorder::new(server());
        rec.query(&q(0, 99)).unwrap(); // overflow (k = 10 < 100 rows)
        rec.query(&q(5, 9)).unwrap(); // resolved with tuples
        rec.query(&q(200, 300)).unwrap(); // resolved empty
        let cache = rec.into_cache();

        let mut buf = Vec::new();
        cache.save(&mut buf).unwrap();
        let loaded = QueryCache::load(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(loaded.len(), cache.len());
        for probe in [q(0, 99), q(5, 9), q(200, 300)] {
            assert_eq!(loaded.get(&probe), cache.get(&probe), "{probe}");
        }
    }

    #[test]
    fn cache_serialization_is_canonical() {
        // Two caches with the same content but different insertion order
        // serialize to identical bytes.
        let mut rec = Recorder::new(server());
        let a = rec.query(&q(0, 3)).unwrap();
        let b = rec.query(&q(4, 7)).unwrap();

        let mut c1 = QueryCache::new();
        c1.insert(q(0, 3), a.clone());
        c1.insert(q(4, 7), b.clone());
        let mut c2 = QueryCache::new();
        c2.insert(q(4, 7), b);
        c2.insert(q(0, 3), a);
        let mut s1 = Vec::new();
        let mut s2 = Vec::new();
        c1.save(&mut s1).unwrap();
        c2.save(&mut s2).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn cache_save_mixed_value_kinds() {
        use hdc_types::tuple::cat_tuple;
        let mut cache = QueryCache::new();
        let query = Query::new(vec![Predicate::Eq(3), Predicate::Any]);
        let outcome = QueryOutcome::resolved(vec![
            cat_tuple(&[3, 0]),
            Tuple::new(vec![Value::Cat(3), Value::Cat(9)]),
        ]);
        cache.insert(query.clone(), outcome.clone());
        let mut buf = Vec::new();
        cache.save(&mut buf).unwrap();
        let loaded = QueryCache::load(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(loaded.get(&query), Some(&outcome));
    }

    #[test]
    fn cache_load_rejects_garbage() {
        for garbage in [
            "",
            "not a cache",
            "hdc-query-cache v1\nX nonsense",
            "hdc-query-cache v1\nO 1",
            "hdc-query-cache v1\nQ zz",
            "hdc-query-cache v1\nQ *\nO 7",
            // Non-ASCII first bytes: split points that are not char
            // boundaries must be errors, not panics.
            "hdc-query-cache v1\né",
            "hdc-query-cache v1\nQ é1",
            "hdc-query-cache v1\nQ *\nO 0\nT é1",
            "hdc-query-cache v1\nQ *\nO 0\nT c+1",
        ] {
            let r = std::io::BufReader::new(garbage.as_bytes());
            assert!(QueryCache::load(r).is_err(), "accepted {garbage:?}");
        }
    }

    #[test]
    fn cache_merge() {
        let mut a = QueryCache::new();
        a.insert(q(0, 1), QueryOutcome::resolved(vec![]));
        let mut b = QueryCache::new();
        b.insert(q(2, 3), QueryOutcome::resolved(vec![int_tuple(&[2])]));
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
    }
}
