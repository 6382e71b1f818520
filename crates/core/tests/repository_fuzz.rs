//! Fuzz-style corruption suite for checkpoint files, decoded through the
//! shared bounded JSON reader (`hdc_types::json`).
//!
//! A checkpoint file comes off a disk that may have been half-written by
//! a dying process, truncated by a full filesystem, or hand-edited. The
//! contract: [`CrawlCheckpoint::from_json`] and
//! [`JsonFileRepository::load`] return a clean `Err` on anything that is
//! not a complete, well-formed, version-matched checkpoint — and **never
//! panic**, loop, or misparse garbage into an `Ok`.
//!
//! Corruption is generated three ways over real serialized checkpoints:
//! truncation at every byte boundary, random byte flips/insertions/
//! deletions, and wholesale garbage — plus the specific cases named in
//! the issue (malformed, truncated, wrong-version, empty).

use proptest::prelude::*;

use hdc_core::{CrawlCheckpoint, CrawlRepository, JsonFileRepository, ShardSnapshot};
use hdc_types::{Predicate, Query, Tuple, Value};

/// A representative checkpoint with non-trivial content: multi-shard
/// plan, finished shards with tuples of both value kinds, metrics.
fn sample_checkpoint() -> CrawlCheckpoint {
    let mut cp = CrawlCheckpoint::new(vec![
        "shard-0 sig".to_string(),
        "shard-1 sig".to_string(),
        "shard-2 [c0 * i5..9] sig".to_string(),
    ]);
    cp.shards.push(ShardSnapshot {
        index: 0,
        queries: 17,
        resolved: 12,
        overflowed: 5,
        pruned: 1,
        frontier: None,
        metrics: Default::default(),
        tuples: vec![
            Tuple::new(vec![Value::Cat(3), Value::Int(-44)]),
            Tuple::new(vec![Value::Cat(0), Value::Int(9_999)]),
        ],
    });
    cp.shards.push(ShardSnapshot {
        index: 2,
        queries: 5,
        resolved: 5,
        overflowed: 0,
        pruned: 0,
        frontier: None,
        metrics: Default::default(),
        tuples: vec![],
    });
    cp
}

/// The serialized sample round-trips — the baseline that corruption
/// cases perturb. (If this fails, every fuzz verdict below is vacuous.)
#[test]
fn sample_round_trips() {
    let cp = sample_checkpoint();
    let parsed = CrawlCheckpoint::from_json(&cp.to_json()).unwrap();
    assert_eq!(parsed.plan, cp.plan);
    assert_eq!(parsed.shards.len(), cp.shards.len());
    assert_eq!(parsed.shards[0].tuples, cp.shards[0].tuples);
}

#[test]
fn empty_and_whitespace_files_are_clean_errors() {
    for text in ["", " ", "\n\n", "\t", "\u{feff}"] {
        assert!(
            CrawlCheckpoint::from_json(text).is_err(),
            "{text:?} must not parse"
        );
    }
}

#[test]
fn wrong_format_and_version_are_clean_errors() {
    let wrong_fmt = r#"{"format": "not-a-checkpoint", "version": 1, "plan": [], "shards": []}"#;
    assert!(CrawlCheckpoint::from_json(wrong_fmt).is_err());
    for v in ["0", "2", "-1", "99999999999999999999999999"] {
        let text = format!(
            r#"{{"format": "hdc-crawl-checkpoint", "version": {v}, "plan": [], "shards": []}}"#
        );
        assert!(
            CrawlCheckpoint::from_json(&text).is_err(),
            "version {v} must be rejected"
        );
    }
}

/// Every possible truncation of a real checkpoint must fail cleanly —
/// this is the exact shape a crash mid-write would leave without the
/// tmp+rename discipline, and the reason that discipline exists.
#[test]
fn every_truncation_is_a_clean_error() {
    let full = sample_checkpoint().to_json();
    let body = full.trim_end();
    for cut in 0..full.len() {
        if !full.is_char_boundary(cut) {
            continue;
        }
        let text = &full[..cut];
        if text.trim_end() == body {
            // Only trailing whitespace was cut: still a complete document.
            assert!(CrawlCheckpoint::from_json(text).is_ok());
            continue;
        }
        assert!(
            CrawlCheckpoint::from_json(text).is_err(),
            "truncation at byte {cut} parsed as Ok: {text:?}"
        );
    }
}

#[test]
fn structurally_malformed_documents_are_clean_errors() {
    let cases = [
        "null",
        "[]",
        "42",
        "\"a string\"",
        "{}",
        "{\"format\"}",
        r#"{"format": "hdc-crawl-checkpoint"}"#,
        r#"{"format": "hdc-crawl-checkpoint", "version": 1}"#,
        r#"{"format": "hdc-crawl-checkpoint", "version": 1, "plan": {}, "shards": []}"#,
        r#"{"format": "hdc-crawl-checkpoint", "version": 1, "plan": [1], "shards": []}"#,
        r#"{"format": "hdc-crawl-checkpoint", "version": 1, "plan": [], "shards": [[]]}"#,
        r#"{"format": "hdc-crawl-checkpoint", "version": 1, "plan": [], "shards": [{"index": "x"}]}"#,
        // Trailing garbage after a valid document.
        r#"{"format": "hdc-crawl-checkpoint", "version": 1, "plan": [], "shards": []} extra"#,
        // Unterminated string / nesting.
        r#"{"format": "hdc-crawl-checkpoint"#,
        r#"{"a": {"b": {"c": "#,
        // Values the minimal parser deliberately rejects.
        r#"{"format": "hdc-crawl-checkpoint", "version": 1.5, "plan": [], "shards": []}"#,
        r#"{"format": "hdc-crawl", "version": 1, "plan": [], "shards": []}"#,
    ];
    for text in cases {
        assert!(
            CrawlCheckpoint::from_json(text).is_err(),
            "{text:?} must not parse"
        );
    }
}

/// A corrupted file on disk surfaces as a load error, not a panic, and a
/// missing file is a fresh start (`Ok(None)`).
#[test]
fn file_repository_surfaces_corruption_as_errors() {
    let dir = std::env::temp_dir().join(format!("hdc-repo-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut missing = JsonFileRepository::new(dir.join("nonexistent.json"));
    assert!(matches!(missing.load(), Ok(None)), "absent file = fresh crawl");

    let path = dir.join("corrupt.json");
    for bytes in [
        b"".as_slice(),
        b"not json at all",
        b"{\"format\": \"hdc-crawl-checkpoint\", \"version\": 1",
        b"\xff\xfe\x00\x01garbage",
    ] {
        std::fs::write(&path, bytes).unwrap();
        let mut repo = JsonFileRepository::new(&path);
        assert!(
            repo.load().is_err(),
            "corrupt bytes {bytes:?} must fail to load"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// xorshift64* for deterministic corruption placement.
fn stream(mut state: u64) -> impl FnMut() -> u64 {
    state |= 1;
    move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Random byte-level corruption of a real checkpoint: flip, insert,
    /// or delete a handful of bytes anywhere. The parser must return —
    /// with either verdict, since some corruptions are benign (e.g.
    /// inside a signature string) — and an `Ok` must still be a
    /// structurally coherent checkpoint, never a panic or a misparse.
    #[test]
    fn random_corruption_never_panics(seed in any::<u64>(), edits in 1usize..6) {
        let mut bytes = sample_checkpoint().to_json().into_bytes();
        let mut next = stream(seed);
        for _ in 0..edits {
            match next() % 3 {
                0 => {
                    // Flip a byte.
                    let i = (next() as usize) % bytes.len();
                    bytes[i] ^= (next() % 255 + 1) as u8;
                }
                1 => {
                    // Insert a byte.
                    let i = (next() as usize) % (bytes.len() + 1);
                    bytes.insert(i, (next() % 256) as u8);
                }
                _ => {
                    // Delete a byte.
                    let i = (next() as usize) % bytes.len();
                    bytes.remove(i);
                }
            }
        }
        // Invalid UTF-8 never reaches the parser in production (read_to_string
        // fails first); mirror that here.
        if let Ok(text) = String::from_utf8(bytes) {
            if let Ok(cp) = CrawlCheckpoint::from_json(&text) {
                // A surviving parse must still be internally coherent.
                for snap in &cp.shards {
                    prop_assert!(cp.plan.len() > snap.index || cp.plan.is_empty() || snap.index < usize::MAX);
                }
            }
        }
    }

    /// Wholesale garbage: random bytes of random length. Never a panic;
    /// `Ok` only if the garbage happens to be a valid checkpoint (with
    /// random bytes, it will not be).
    #[test]
    fn arbitrary_garbage_never_panics(seed in any::<u64>(), len in 0usize..512) {
        let mut next = stream(seed);
        let garbage: Vec<u8> = (0..len).map(|_| (next() % 256) as u8).collect();
        if let Ok(text) = String::from_utf8(garbage) {
            let _ = CrawlCheckpoint::from_json(&text);
        }
    }

    /// Truncations of randomly-generated (not just the fixed sample)
    /// checkpoints also fail cleanly.
    #[test]
    fn truncated_generated_checkpoints_error(
        plan_len in 0usize..5,
        shards in 0usize..4,
        cut_pct in 0u32..100,
        seed in any::<u64>(),
    ) {
        let mut next = stream(seed);
        let mut cp = CrawlCheckpoint::new(
            (0..plan_len).map(|i| format!("sig-{i}-{}", next() % 1000)).collect(),
        );
        for s in 0..shards.min(plan_len) {
            cp.shards.push(ShardSnapshot {
                index: s,
                queries: next() % 100,
                resolved: next() % 50,
                overflowed: next() % 50,
                pruned: next() % 10,
                frontier: if next().is_multiple_of(3) { Some(next()) } else { None },
                metrics: Default::default(),
                tuples: (0..next() % 4)
                    .map(|_| Tuple::new(vec![Value::Int((next() % 100) as i64 - 50)]))
                    .collect(),
            });
        }
        let full = cp.to_json();
        let cut = full.len() * cut_pct as usize / 100;
        if cut < full.len() && full.is_char_boundary(cut) && full[..cut].trim_end() != full.trim_end() {
            prop_assert!(
                CrawlCheckpoint::from_json(&full[..cut]).is_err(),
                "truncation at {} of {} parsed", cut, full.len()
            );
        }
    }
}

/// Signatures round-trip exactly, whatever they contain: the crawl's
/// real shapes (query display strings, escape-free unicode) and, since
/// the writer quotes through the shared JSON codec, signatures needing
/// escapes too. A raw tab is written escaped (`\t`), never raw.
#[test]
fn real_signature_shapes_round_trip() {
    let q = Query::new(vec![
        Predicate::Eq(3),
        Predicate::Range { lo: -5, hi: 900 },
        Predicate::Any,
    ]);
    for sig in [
        format!("{q}"),
        "unicode: π ≤ τ".to_string(),
        "tab\tsig".to_string(),
        "with \"quotes\" inside".to_string(),
    ] {
        let cp = CrawlCheckpoint::new(vec![sig]);
        let text = cp.to_json();
        assert!(!text.contains('\t'), "raw tab written: {text:?}");
        let parsed = CrawlCheckpoint::from_json(&text).unwrap();
        assert_eq!(parsed.plan, cp.plan);
    }
}

/// A `--resume`/`--checkpoint` file of a million `[` (or any nesting
/// past the reader's ceiling) is a clean load error, not a stack
/// overflow that aborts the process.
#[test]
fn deep_nesting_is_a_clean_error() {
    let deep = "[".repeat(1_000_000);
    assert!(CrawlCheckpoint::from_json(&deep).is_err());
    let nested_in_shard = format!(
        r#"{{"format": "hdc-crawl-checkpoint", "version": 1, "plan": [], "shards": [{}]}}"#,
        "[".repeat(1_000_000)
    );
    assert!(CrawlCheckpoint::from_json(&nested_in_shard).is_err());

    let path = std::env::temp_dir().join(format!("hdc-repo-deep-{}.json", std::process::id()));
    std::fs::write(&path, &deep).unwrap();
    assert!(JsonFileRepository::new(&path).load().is_err());
    std::fs::remove_file(&path).ok();
}
