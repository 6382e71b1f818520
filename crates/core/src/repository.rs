//! Checkpoint/resume for crawls: durable progress at shard boundaries.
//!
//! A long crawl dies for boring reasons — the process is killed, the
//! machine reboots, a per-identity quota runs dry mid-plan. Because a
//! sharded plan is a list of *independent* shards whose query sequences
//! depend only on the shard spec and the database (the scheduler's
//! determinism contract, see [`crate::sharded`]), everything a finished
//! shard produced stays valid across a crash: re-running the remaining
//! shards and concatenating in plan order reconstructs exactly the
//! report an uninterrupted crawl would have produced.
//!
//! [`CrawlRepository`] is the persistence seam: after every completed
//! shard the crawl stores a [`CrawlCheckpoint`] — the plan's shard
//! signatures plus one [`ShardSnapshot`] per finished shard — and on
//! startup it loads the checkpoint and skips every shard already
//! snapshotted. Two implementations ship: [`MemoryRepository`] (tests,
//! and processes that resume within their own lifetime) and
//! [`JsonFileRepository`] (a JSON file written atomically via a
//! temp-file rename, so a crash mid-store never corrupts the previous
//! checkpoint).
//!
//! The checkpoint embeds the plan's [`ShardSpec`
//! signatures](crate::ShardSpec::signature): resuming against a
//! different schema, session count, or oversubscription factor is a
//! plan mismatch (the shards would not partition the same space) and
//! surfaces as a typed [`RepositoryError::PlanMismatch`] — see
//! [`CrawlCheckpoint::verify_plan`] — rather than silently merging
//! mismatched bags. Drivers turn it into a clean [`crate::CrawlError`]
//! so a worker joining a fleet with a stale plan retires gracefully
//! instead of aborting the process.
//!
//! Since the distributed-coordination work a snapshot may also be
//! **partial**: [`ShardSnapshot::frontier`] carries a crawler-specific
//! resume cursor (the number of completed root values of a resumable
//! shard — see [`crate::ResumableShard`]). Partial snapshots exist so a
//! crash mid-heavy-shard replays only the un-checkpointed suffix; the
//! single-process drivers ignore them on restore (they re-crawl the
//! whole shard, which is always correct) while the `hdc-coord` lease
//! coordinator hands them to the salvaging peer.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use hdc_types::json::{self, Json};
use hdc_types::{Tuple, Value};

use crate::report::CrawlMetrics;

/// Everything one finished shard contributed to the crawl: its position
/// in the plan, its full query accounting, and its extracted tuples.
///
/// A snapshot is sufficient to replay the shard's merge contribution
/// without touching the database — the determinism contract guarantees
/// re-crawling the shard would reproduce exactly these values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// The shard's position in the plan (0-based).
    pub index: usize,
    /// Queries the shard's crawl charged.
    pub queries: u64,
    /// Resolved query outcomes.
    pub resolved: u64,
    /// Overflowed query outcomes.
    pub overflowed: u64,
    /// Oracle-pruned queries (answered locally, never charged).
    pub pruned: u64,
    /// In-progress resume cursor: `None` for a *complete* shard,
    /// `Some(c)` for a partial snapshot covering the shard's first `c`
    /// root values (the crawler-specific boundary exposed by
    /// [`crate::ResumableShard`]). The accounting and tuples of a
    /// partial snapshot describe exactly that prefix; a salvaging peer
    /// crawls the suffix and merges. Absent from checkpoints written
    /// before this field existed, which parse as complete.
    pub frontier: Option<u64>,
    /// Per-mechanism counters.
    pub metrics: CrawlMetrics,
    /// The tuples the shard extracted, in extraction order.
    pub tuples: Vec<Tuple>,
}

impl ShardSnapshot {
    /// Whether this snapshot describes a finished shard (no in-progress
    /// frontier).
    pub fn is_complete(&self) -> bool {
        self.frontier.is_none()
    }
}

/// A typed checkpoint-compatibility failure: the durable state cannot be
/// merged into the crawl being resumed. Distinct from I/O or parse
/// errors — the file is intact; it just describes a *different* crawl.
#[derive(Debug)]
pub enum RepositoryError {
    /// The checkpoint was taken for a different plan (schema, session
    /// count, or oversubscription changed): resuming would merge shards
    /// that do not partition the same data space.
    PlanMismatch {
        /// The plan the resuming crawl computed.
        expected: Vec<String>,
        /// The plan embedded in the checkpoint.
        found: Vec<String>,
    },
    /// A snapshot's plan index exceeds the plan it claims to belong to —
    /// an internally inconsistent checkpoint.
    SnapshotOutOfPlan {
        /// The offending snapshot's plan index.
        index: usize,
        /// The plan's shard count.
        plan_len: usize,
    },
}

impl std::fmt::Display for RepositoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepositoryError::PlanMismatch { expected, found } => write!(
                f,
                "checkpoint plan mismatch: the checkpoint was taken for a \
                 different plan (schema, sessions, or oversubscription \
                 changed) — expected {} shard(s), found {}; resuming would \
                 merge mismatched shards",
                expected.len(),
                found.len()
            ),
            RepositoryError::SnapshotOutOfPlan { index, plan_len } => write!(
                f,
                "checkpoint snapshot index {index} out of plan ({plan_len} shard(s))"
            ),
        }
    }
}

impl std::error::Error for RepositoryError {}

/// A resumable crawl's durable state: the plan it was cut into and the
/// shards finished so far.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrawlCheckpoint {
    /// One [`crate::ShardSpec::signature`] per shard, in plan order.
    /// Resume verifies this against the freshly computed plan.
    pub plan: Vec<String>,
    /// Finished shards, in completion order (not plan order).
    pub shards: Vec<ShardSnapshot>,
}

impl CrawlCheckpoint {
    /// An empty checkpoint for a plan.
    pub fn new(plan: Vec<String>) -> Self {
        CrawlCheckpoint {
            plan,
            shards: Vec::new(),
        }
    }

    /// Whether the shard at `index` has a snapshot.
    pub fn has_shard(&self, index: usize) -> bool {
        self.shards.iter().any(|s| s.index == index)
    }

    /// Verifies this checkpoint can be merged into a crawl whose plan is
    /// `plan`: the embedded signatures must match exactly and every
    /// snapshot index must lie inside the plan. The typed error lets
    /// drivers retire cleanly (print the hint, keep the fleet alive)
    /// instead of panicking on a stale checkpoint.
    pub fn verify_plan(&self, plan: &[String]) -> Result<(), RepositoryError> {
        if self.plan != plan {
            return Err(RepositoryError::PlanMismatch {
                expected: plan.to_vec(),
                found: self.plan.clone(),
            });
        }
        for s in &self.shards {
            if s.index >= plan.len() {
                return Err(RepositoryError::SnapshotOutOfPlan {
                    index: s.index,
                    plan_len: plan.len(),
                });
            }
        }
        Ok(())
    }

    /// Serializes to the `hdc-crawl-checkpoint` JSON format (version 1).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"format\": \"hdc-crawl-checkpoint\", \"version\": 1,\n");
        out.push_str(" \"plan\": [");
        for (i, sig) in self.plan.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json::quote(sig));
        }
        out.push_str("],\n \"shards\": [");
        for (i, s) in self.shards.iter().enumerate() {
            out.push_str(if i > 0 { ",\n  " } else { "\n  " });
            let _ = write!(
                out,
                "{{\"index\": {}, \"queries\": {}, \"resolved\": {}, \
                 \"overflowed\": {}, \"pruned\": {}, ",
                s.index, s.queries, s.resolved, s.overflowed, s.pruned,
            );
            if let Some(frontier) = s.frontier {
                // Emitted only for partial snapshots, so complete
                // checkpoints stay byte-compatible with old readers.
                let _ = write!(out, "\"frontier\": {frontier}, ");
            }
            let _ = write!(
                out,
                "\"metrics\": {}, \"tuples\": [",
                metrics_json(&s.metrics),
            );
            for (j, t) in s.tuples.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push('[');
                for (v, value) in t.values().iter().enumerate() {
                    if v > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\"", value.token());
                }
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push_str("]}\n");
        out
    }

    /// Parses the `hdc-crawl-checkpoint` JSON format.
    pub fn from_json(text: &str) -> io::Result<Self> {
        Self::from_tree(&json::parse(text).map_err(invalid)?)
    }

    /// Decodes an already-parsed checkpoint document — the entry point
    /// for a checkpoint embedded in a larger message, so the message is
    /// parsed once.
    pub fn from_tree(doc: &Json) -> io::Result<Self> {
        let format = field(doc, "format")?
            .as_str()
            .ok_or_else(|| invalid("format"))?;
        if format != "hdc-crawl-checkpoint" {
            return Err(invalid(format!("unknown format {format:?}")));
        }
        let version = field(doc, "version")?
            .as_int()
            .ok_or_else(|| invalid("version"))?;
        if version != 1 {
            return Err(invalid(format!("unsupported version {version}")));
        }
        let plan = array(doc, "plan")?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| invalid("plan entries must be strings"))
            })
            .collect::<io::Result<Vec<String>>>()?;
        let shards = array(doc, "shards")?
            .iter()
            .map(snapshot_from_tree)
            .collect::<io::Result<Vec<ShardSnapshot>>>()?;
        Ok(CrawlCheckpoint { plan, shards })
    }
}

fn snapshot_from_tree(s: &Json) -> io::Result<ShardSnapshot> {
    let tuples = array(s, "tuples")?
        .iter()
        .map(|tv| {
            let vals = tv
                .as_arr()
                .ok_or_else(|| invalid("tuple must be an array"))?
                .iter()
                .map(|v| {
                    v.as_str()
                        .and_then(Value::from_token)
                        .ok_or_else(|| invalid(format!("bad value token {v:?}")))
                })
                .collect::<io::Result<Vec<Value>>>()?;
            Ok(Tuple::new(vals))
        })
        .collect::<io::Result<Vec<Tuple>>>()?;
    Ok(ShardSnapshot {
        index: usize::try_from(int_field(s, "index")?).map_err(|_| invalid("index"))?,
        queries: int_field(s, "queries")?,
        resolved: int_field(s, "resolved")?,
        overflowed: int_field(s, "overflowed")?,
        pruned: int_field(s, "pruned")?,
        // Absent in pre-frontier checkpoints: a complete shard.
        frontier: match s.get("frontier") {
            Some(_) => Some(int_field(s, "frontier")?),
            None => None,
        },
        metrics: parse_metrics(field(s, "metrics")?)?,
        tuples,
    })
}

fn metrics_json(m: &CrawlMetrics) -> String {
    // Destructure so a new counter is a compile error here, not a field
    // silently dropped from every checkpoint.
    let CrawlMetrics {
        two_way_splits,
        three_way_splits,
        slice_fetches,
        slice_overflows,
        local_answers,
        leaf_subcrawls,
        slice_cache_hits,
        barrier_pivots,
        barrier_deep_tuples,
        transient_retries,
    } = m;
    format!(
        "{{\"two_way_splits\": {two_way_splits}, \"three_way_splits\": {three_way_splits}, \
         \"slice_fetches\": {slice_fetches}, \"slice_overflows\": {slice_overflows}, \
         \"local_answers\": {local_answers}, \"leaf_subcrawls\": {leaf_subcrawls}, \
         \"slice_cache_hits\": {slice_cache_hits}, \"barrier_pivots\": {barrier_pivots}, \
         \"barrier_deep_tuples\": {barrier_deep_tuples}, \"transient_retries\": {transient_retries}}}"
    )
}

fn parse_metrics(m: &Json) -> io::Result<CrawlMetrics> {
    Ok(CrawlMetrics {
        two_way_splits: int_field(m, "two_way_splits")?,
        three_way_splits: int_field(m, "three_way_splits")?,
        slice_fetches: int_field(m, "slice_fetches")?,
        slice_overflows: int_field(m, "slice_overflows")?,
        local_answers: int_field(m, "local_answers")?,
        leaf_subcrawls: int_field(m, "leaf_subcrawls")?,
        slice_cache_hits: int_field(m, "slice_cache_hits")?,
        barrier_pivots: int_field(m, "barrier_pivots")?,
        barrier_deep_tuples: int_field(m, "barrier_deep_tuples")?,
        transient_retries: int_field(m, "transient_retries")?,
    })
}

fn invalid(msg: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Object field lookup; a non-object or a missing key is an error.
fn field<'a>(obj: &'a Json, key: &str) -> io::Result<&'a Json> {
    obj.get(key)
        .ok_or_else(|| invalid(format!("missing field {key:?}")))
}

fn array<'a>(obj: &'a Json, key: &str) -> io::Result<&'a [Json]> {
    field(obj, key)?
        .as_arr()
        .ok_or_else(|| invalid(format!("{key} must be an array")))
}

fn int_field(obj: &Json, key: &str) -> io::Result<u64> {
    field(obj, key)?
        .as_u64()
        .ok_or_else(|| invalid(format!("field {key:?} must be a non-negative integer")))
}

/// Where a resumable crawl keeps its checkpoint.
///
/// `Send` because the sharded crawl stores checkpoints from worker
/// threads (serialized through a mutex — implementations never see
/// concurrent calls). Mid-crawl store failures do not kill the crawl
/// (the crawl itself is fine; only resumability degrades) but are
/// surfaced at the end as a [`crate::CrawlError::Db`] so they cannot
/// pass silently.
pub trait CrawlRepository: Send {
    /// Loads the previously stored checkpoint, or `None` when no
    /// checkpoint exists (a fresh crawl).
    fn load(&mut self) -> io::Result<Option<CrawlCheckpoint>>;

    /// Durably replaces the checkpoint. Called once per completed shard,
    /// with the complete accumulated state each time — a store is a full
    /// overwrite, never an append.
    fn store(&mut self, checkpoint: &CrawlCheckpoint) -> io::Result<()>;
}

/// An in-process [`CrawlRepository`]: survives between crawls in one
/// process (tests, and drivers that retry a budget-limited crawl in a
/// loop), not across a real crash.
#[derive(Clone, Debug, Default)]
pub struct MemoryRepository {
    saved: Option<CrawlCheckpoint>,
}

impl MemoryRepository {
    /// An empty repository.
    pub fn new() -> Self {
        MemoryRepository::default()
    }

    /// The stored checkpoint, if any — handy for assertions.
    pub fn saved(&self) -> Option<&CrawlCheckpoint> {
        self.saved.as_ref()
    }
}

impl CrawlRepository for MemoryRepository {
    fn load(&mut self) -> io::Result<Option<CrawlCheckpoint>> {
        Ok(self.saved.clone())
    }

    fn store(&mut self, checkpoint: &CrawlCheckpoint) -> io::Result<()> {
        self.saved = Some(checkpoint.clone());
        Ok(())
    }
}

/// A [`CrawlRepository`] backed by one JSON file, written **atomically
/// and durably**: the checkpoint is serialized to `<path>.tmp`, fsynced,
/// renamed over the target, and the parent directory is fsynced so the
/// rename itself survives power loss — not just a process crash. A
/// failure at any point leaves the previous checkpoint intact: the file
/// is always either absent or a complete, parseable checkpoint.
#[derive(Clone, Debug)]
pub struct JsonFileRepository {
    path: PathBuf,
}

impl JsonFileRepository {
    /// A repository at `path`. The file need not exist yet.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        JsonFileRepository { path: path.into() }
    }

    /// The checkpoint file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl CrawlRepository for JsonFileRepository {
    fn load(&mut self) -> io::Result<Option<CrawlCheckpoint>> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        CrawlCheckpoint::from_json(&text).map(Some)
    }

    fn store(&mut self, checkpoint: &CrawlCheckpoint) -> io::Result<()> {
        use std::io::Write as _;
        let mut tmp = self.path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(checkpoint.to_json().as_bytes())?;
        // The tmp file's *contents* must be on disk before the rename
        // publishes it, or a power cut could promote an empty file.
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, &self.path)?;
        // And the rename itself must be durable: fsync the directory
        // entry, or power loss after "successful" store could resurrect
        // the previous checkpoint (silent progress rollback).
        #[cfg(unix)]
        {
            let parent = match self.path.parent() {
                Some(p) if !p.as_os_str().is_empty() => p,
                _ => Path::new("."),
            };
            std::fs::File::open(parent)?.sync_all()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_types::tuple::{cat_tuple, int_tuple};

    fn sample() -> CrawlCheckpoint {
        CrawlCheckpoint {
            plan: vec!["cat:0=[0,2]".into(), "cat:0=[1]".into()],
            shards: vec![ShardSnapshot {
                index: 1,
                queries: 42,
                resolved: 30,
                overflowed: 12,
                pruned: 3,
                frontier: None,
                metrics: CrawlMetrics {
                    two_way_splits: 1,
                    three_way_splits: 2,
                    slice_fetches: 3,
                    slice_overflows: 4,
                    local_answers: 5,
                    leaf_subcrawls: 6,
                    slice_cache_hits: 7,
                    barrier_pivots: 8,
                    barrier_deep_tuples: 9,
                    transient_retries: 10,
                },
                tuples: vec![
                    cat_tuple(&[1, 2]),
                    int_tuple(&[-7, 9_999_999_999]),
                    cat_tuple(&[1, 2]), // duplicates are part of the bag
                ],
            }],
        }
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let checkpoint = sample();
        let parsed = CrawlCheckpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(parsed, checkpoint);
    }

    /// A file from the version-1 writer as it stood before checkpoints
    /// moved to the shared JSON codec (a real `plan_oversubscribed` plan,
    /// complete and partial shards) still loads, and is re-serialized
    /// byte for byte.
    #[test]
    fn earlier_written_file_loads_and_rewrites_byte_identically() {
        let text = include_str!("../tests/data/checkpoint-v1.json");
        let checkpoint = CrawlCheckpoint::from_json(text).unwrap();
        let schema = hdc_types::Schema::builder()
            .categorical("make", 5)
            .numeric("price", -50, 199)
            .build()
            .unwrap();
        let plan: Vec<String> = crate::Sharded::plan_oversubscribed(&schema, 2, 2)
            .iter()
            .map(crate::ShardSpec::signature)
            .collect();
        assert_eq!(checkpoint.plan, plan);
        assert_eq!(checkpoint.shards.len(), 3);
        assert_eq!(checkpoint.shards[2].frontier, Some(1));
        assert_eq!(checkpoint.to_json(), text);
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let checkpoint = CrawlCheckpoint::new(vec!["num:0=[0,9]".into()]);
        let parsed = CrawlCheckpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(parsed, checkpoint);
        assert!(!checkpoint.has_shard(0));
    }

    #[test]
    fn partial_snapshot_frontier_roundtrips() {
        let mut checkpoint = sample();
        checkpoint.shards[0].frontier = Some(3);
        assert!(!checkpoint.shards[0].is_complete());
        let text = checkpoint.to_json();
        assert!(text.contains("\"frontier\": 3"));
        let parsed = CrawlCheckpoint::from_json(&text).unwrap();
        assert_eq!(parsed, checkpoint);
        // Complete snapshots omit the key entirely, so old readers (and
        // old files) interoperate.
        let complete = sample();
        assert!(!complete.to_json().contains("frontier"));
        assert!(complete.shards[0].is_complete());
    }

    #[test]
    fn verify_plan_catches_mismatch_and_bad_indices() {
        let checkpoint = sample();
        let plan = checkpoint.plan.clone();
        assert!(checkpoint.verify_plan(&plan).is_ok());
        let err = checkpoint.verify_plan(&["num:0=[0,9]".to_owned()]).unwrap_err();
        assert!(matches!(err, RepositoryError::PlanMismatch { .. }));
        assert!(err.to_string().contains("plan mismatch"));
        let short = &plan[..1];
        let err = checkpoint.verify_plan(short).unwrap_err();
        // shards[0].index == 1, plan of 1 shard: both mismatch and
        // out-of-plan apply; the plan check fires first.
        assert!(matches!(err, RepositoryError::PlanMismatch { .. }));
        let mut inconsistent = sample();
        inconsistent.plan.truncate(1);
        inconsistent.plan[0] = "cat:0=[0,2]".to_owned();
        let err = inconsistent
            .verify_plan(&["cat:0=[0,2]".to_owned()])
            .unwrap_err();
        assert!(matches!(
            err,
            RepositoryError::SnapshotOutOfPlan { index: 1, plan_len: 1 }
        ));
    }

    #[test]
    fn garbage_and_wrong_formats_are_rejected() {
        assert!(CrawlCheckpoint::from_json("not json").is_err());
        assert!(CrawlCheckpoint::from_json("{}").is_err());
        assert!(CrawlCheckpoint::from_json(
            "{\"format\": \"something-else\", \"version\": 1, \"plan\": [], \"shards\": []}"
        )
        .is_err());
        assert!(CrawlCheckpoint::from_json(
            "{\"format\": \"hdc-crawl-checkpoint\", \"version\": 9, \"plan\": [], \"shards\": []}"
        )
        .is_err());
    }

    #[test]
    fn memory_repository_roundtrips() {
        let mut repo = MemoryRepository::new();
        assert!(repo.load().unwrap().is_none());
        let checkpoint = sample();
        repo.store(&checkpoint).unwrap();
        assert_eq!(repo.load().unwrap().unwrap(), checkpoint);
        assert!(repo.saved().unwrap().has_shard(1));
    }

    #[test]
    fn file_repository_roundtrips_and_overwrites_atomically() {
        let path = std::env::temp_dir().join(format!(
            "hdc-checkpoint-test-{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut repo = JsonFileRepository::new(&path);
        assert!(repo.load().unwrap().is_none(), "missing file is a fresh crawl");

        let mut checkpoint = sample();
        repo.store(&checkpoint).unwrap();
        assert_eq!(repo.load().unwrap().unwrap(), checkpoint);

        // A second store replaces the first completely.
        checkpoint.shards[0].queries = 99;
        repo.store(&checkpoint).unwrap();
        assert_eq!(repo.load().unwrap().unwrap().shards[0].queries, 99);
        // No temp file is left behind.
        assert!(!path.with_extension("json.tmp").exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_file_is_an_error_not_a_fresh_crawl() {
        let path = std::env::temp_dir().join(format!(
            "hdc-checkpoint-corrupt-{}.json",
            std::process::id()
        ));
        std::fs::write(&path, "{\"truncated").unwrap();
        let mut repo = JsonFileRepository::new(&path);
        assert!(repo.load().is_err(), "corruption must be loud");
        let _ = std::fs::remove_file(&path);
    }
}
