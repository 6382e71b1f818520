//! Hostile-input regression suite for the wire-served coordinator.
//!
//! The coordinator shares its listener with the data plane
//! (`hdc serve --coordinate`), so one bad request that panics or
//! overflows the stack takes the whole fleet down. The contract: every
//! malformed, oversized, out-of-range, mistyped, or replayed control
//! request is answered 4xx with a JSON `{"error":…}` body, the process
//! keeps serving, and a worker running concurrently still finishes
//! bit-identical to a solo crawl in both bag and charged cost.
//!
//! The worker cannot drain the plan before the hostile cases are done:
//! the attacker holds a lease on one shard (leased like any worker) and
//! completes it only after sending them, so every case races live
//! fleet traffic.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use hdc_coord::protocol;
use hdc_coord::{
    drive_worker, Coordinator, CoordinatorConfig, LeaseDecision, LeaseGrant, LeaseRepository,
    MemoryLeaseRepository, WireLeaseRepository, WorkerConfig,
};
use hdc_core::{
    snapshot_of_report, CrawlCheckpoint, CrawlMetrics, CrawlRepository, JsonFileRepository,
    ResumableShard, ShardSnapshot, ShardSpec, Sharded,
};
use hdc_net::http::{self, Request};
use hdc_net::{HttpConnector, RouteExt, ServeOptions, WireServer};
use hdc_server::{HiddenDbServer, ServerConfig, SharedServer};
use hdc_types::{Schema, Tuple, TupleBag, Value};

const K: usize = 10;
const SEED: u64 = 5;

/// Five "make" values × a numeric "price": a plan of categorical
/// shards, each resumable at its root values.
fn instance() -> (Schema, Vec<Tuple>) {
    let schema = Schema::builder()
        .categorical("make", 5)
        .numeric("price", 0, 199)
        .build()
        .unwrap();
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let tuples = (0..300)
        .map(|_| {
            Tuple::new(vec![
                Value::Cat((next() % 5) as u32),
                Value::Int((next() % 200) as i64),
            ])
        })
        .collect();
    (schema, tuples)
}

fn local_db(schema: &Schema, tuples: &[Tuple]) -> HiddenDbServer {
    HiddenDbServer::new(
        schema.clone(),
        tuples.to_vec(),
        ServerConfig { k: K, seed: SEED },
    )
    .unwrap()
}

/// The solo baseline: every shard crawled on one in-process connection.
fn solo(plan: &[ShardSpec], schema: &Schema, tuples: &[Tuple]) -> (u64, TupleBag) {
    let mut db = local_db(schema, tuples);
    let mut queries = 0;
    let mut bag = Vec::new();
    for spec in plan {
        let report = spec.crawl(&mut db, schema).unwrap();
        queries += report.queries;
        bag.extend(report.tuples);
    }
    (queries, TupleBag::from_tuples(bag))
}

/// One request on a fresh connection: `(status, body)`.
fn send(addr: &str, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    http::write_request(&mut stream, method, path, body).unwrap();
    stream.flush().unwrap();
    let resp = http::read_response(&mut BufReader::new(stream)).unwrap();
    (
        resp.status,
        String::from_utf8_lossy(&resp.body).into_owned(),
    )
}

/// Asserts a 4xx with a JSON error body, then that the server still
/// answers the plan.
fn refused(addr: &str, path: &str, body: &[u8], what: &str) -> String {
    let (status, text) = send(addr, "POST", path, body);
    assert!(
        (400..500).contains(&status),
        "{what}: answered {status} {text}"
    );
    assert!(text.starts_with("{\"error\":"), "{what}: body {text}");
    let (alive, _) = send(addr, "GET", "/plan", b"");
    assert_eq!(alive, 200, "{what}: server stopped serving");
    protocol::error_message(&text)
}

fn deep(prefix: &str) -> Vec<u8> {
    let mut body = prefix.as_bytes().to_vec();
    body.extend(std::iter::repeat_n(b'[', 2_000_000));
    body
}

fn snapshot(index: usize, frontier: Option<u64>) -> ShardSnapshot {
    ShardSnapshot {
        index,
        queries: 1,
        resolved: 1,
        overflowed: 0,
        pruned: 0,
        frontier,
        metrics: CrawlMetrics::default(),
        tuples: Vec::new(),
    }
}

#[test]
fn hostile_requests_get_4xx_while_a_fleet_finishes_exactly() {
    let (schema, tuples) = instance();
    let plan = Sharded::plan_oversubscribed(&schema, 2, 2);
    let sigs: Vec<String> = plan.iter().map(ShardSpec::signature).collect();
    let (solo_queries, solo_bag) = solo(&plan, &schema, &tuples);

    let (coordinator, _) = Coordinator::new(
        sigs.clone(),
        CoordinatorConfig {
            ttl: Duration::from_secs(60),
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let coordinator = Arc::new(coordinator);
    let shared = SharedServer::new(
        schema.clone(),
        tuples.clone(),
        ServerConfig { k: K, seed: SEED },
    )
    .unwrap();
    let server = WireServer::start(
        "127.0.0.1:0",
        shared,
        ServeOptions {
            extension: Some(Arc::clone(&coordinator) as Arc<dyn RouteExt>),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();

    // The attacker leases a shard like any worker, and holds it.
    let (status, body) = send(
        &addr,
        "POST",
        "/lease",
        protocol::lease_request("mallory").as_bytes(),
    );
    assert_eq!(status, 200);
    let grant: LeaseGrant = match protocol::parse_lease_answer(&body, &sigs).unwrap() {
        LeaseDecision::Grant(g) => *g,
        other => panic!("expected a grant, got {other:?}"),
    };
    let (index, lease) = (grant.index, grant.lease);
    let points = plan[index]
        .resume_points()
        .expect("categorical shards resume") as u64;

    std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let connector = HttpConnector::new(&addr).unwrap();
            let mut repo = WireLeaseRepository::connect(&addr).unwrap();
            let cfg = WorkerConfig {
                name: "honest".into(),
                wait_cap_ms: 5,
                ..WorkerConfig::default()
            };
            drive_worker(&mut repo, &mut connector.db(0), &schema, &cfg).unwrap()
        });

        // The exact ROADMAP repro: the old text verb line, then two
        // million openers.
        refused(&addr, "/heartbeat", &deep("0 1\n"), "roadmap repro");
        // Its JSON-framed equivalent, on the attacker's live lease.
        let framed = format!("{{\"index\":{index},\"lease\":{lease},\"checkpoint\":");
        refused(&addr, "/heartbeat", &deep(&framed), "framed repro");
        // Deep nesting on every route that reads a body.
        for path in ["/lease", "/heartbeat", "/complete"] {
            refused(&addr, path, &deep(""), path);
            refused(&addr, path, &deep("{\"worker\":"), path);
            refused(&addr, path, &deep(&framed), path);
        }
        // Indices at or past the plan, and values overflowing u64.
        let n = sigs.len();
        let big = "18446744073709551616";
        let huge = "1000000000000000000000000000000000000000000";
        for body in [
            format!("{{\"index\":{n},\"lease\":{lease}}}"),
            format!("{{\"index\":{big},\"lease\":{lease}}}"),
            format!("{{\"index\":{huge},\"lease\":{lease}}}"),
            format!("{{\"index\":-1,\"lease\":{lease}}}"),
            format!("{{\"index\":{index},\"lease\":{big}}}"),
            format!("{{\"index\":{index},\"lease\":-1}}"),
        ] {
            refused(&addr, "/heartbeat", body.as_bytes(), &body);
            refused(&addr, "/complete", body.as_bytes(), &body);
        }
        let beyond = protocol::report_request(n, lease, &sigs, Some(&snapshot(n, None)));
        refused(
            &addr,
            "/complete",
            beyond.as_bytes(),
            "complete past the plan",
        );
        // Wrong field types and shapes.
        for (path, body) in [
            ("/lease", "[]".to_string()),
            ("/lease", "{\"worker\":5}".to_string()),
            ("/lease", "mallory".to_string()),
            ("/lease", String::new()),
            (
                "/heartbeat",
                format!("{{\"index\":\"{index}\",\"lease\":{lease}}}"),
            ),
            (
                "/heartbeat",
                format!("{{\"index\":{index},\"lease\":true}}"),
            ),
            (
                "/heartbeat",
                format!("{{\"index\":{index},\"lease\":{lease},\"checkpoint\":\"x\"}}"),
            ),
            (
                "/heartbeat",
                format!("{{\"index\":{index},\"lease\":{lease},\"checkpoint\":{{}}}}"),
            ),
            ("/heartbeat", "{\"index\":null}".to_string()),
            (
                "/complete",
                format!("{{\"index\":{index},\"lease\":{lease}}}"),
            ),
            (
                "/complete",
                format!("{{\"index\":[{index}],\"lease\":{lease}}}"),
            ),
        ] {
            refused(&addr, path, body.as_bytes(), &format!("{path} {body}"));
        }
        let mut bad_tuple = CrawlCheckpoint::new(sigs.clone());
        bad_tuple.shards.push(snapshot(index, None));
        let doc = bad_tuple
            .to_json()
            .replace("\"tuples\": []", "\"tuples\": [[5]]");
        let body = format!("{{\"index\":{index},\"lease\":{lease},\"checkpoint\":{doc}}}");
        refused(&addr, "/complete", body.as_bytes(), "mistyped tuple value");
        // Salvage-slot poisoning: frontiers outside 1..=resume_points.
        for f in [0, points + 1, u64::MAX] {
            let body =
                protocol::report_request(index, lease, &sigs, Some(&snapshot(index, Some(f))));
            let msg = refused(
                &addr,
                "/heartbeat",
                body.as_bytes(),
                &format!("frontier {f}"),
            );
            assert!(msg.contains("frontier"), "{msg}");
        }
        // A snapshot of another plan: 409 with the operator's hint.
        let foreign =
            protocol::report_request(0, lease, &["cat:0=[9]".into()], Some(&snapshot(0, None)));
        let msg = refused(&addr, "/complete", foreign.as_bytes(), "foreign plan");
        assert!(msg.starts_with("mismatch: "), "{msg}");

        // The attacker finishes its shard honestly; replaying the
        // accepted completion is refused and counts nothing twice.
        let report = plan[index]
            .crawl(&mut local_db(&schema, &tuples), &schema)
            .unwrap();
        let done = protocol::report_request(
            index,
            lease,
            &sigs,
            Some(&snapshot_of_report(index, &report, None)),
        );
        let (status, answer) = send(&addr, "POST", "/complete", done.as_bytes());
        assert_eq!(status, 200, "{answer}");
        assert_eq!(
            protocol::parse_complete_answer(&answer).unwrap(),
            Some(report.tuples.len() as u64)
        );
        refused(&addr, "/complete", done.as_bytes(), "replayed complete");

        let honest = worker.join().unwrap();
        assert!(honest.shards_completed > 0);
    });

    assert!(coordinator.is_drained());
    let outcome = coordinator.outcome();
    let cp = coordinator.checkpoint();
    let fleet_bag = TupleBag::from_tuples(cp.shards.iter().flat_map(|s| s.tuples.clone()));
    assert_eq!(outcome.queries, solo_queries, "fleet cost ≡ solo exactly");
    assert_eq!(outcome.tuples, tuples.len() as u64);
    assert!(fleet_bag.multiset_eq(&solo_bag), "fleet bag ≡ solo bag");
    server.shutdown().unwrap();
}

/// Every coordinator answer, success or refusal, is JSON.
#[test]
fn every_route_answers_json() {
    let (schema, _) = instance();
    let sigs: Vec<String> = Sharded::plan_oversubscribed(&schema, 2, 2)
        .iter()
        .map(ShardSpec::signature)
        .collect();
    let (coordinator, _) = Coordinator::new(sigs, CoordinatorConfig::default()).unwrap();
    let request = |method: &str, path: &str, body: &str| Request {
        method: method.into(),
        path: path.into(),
        body: body.as_bytes().to_vec(),
    };
    for req in [
        request("GET", "/plan", ""),
        request("GET", "/checkpoint", ""),
        request("POST", "/lease", "{\"worker\":\"w\"}"),
        request("POST", "/lease", "garbage"),
        request("POST", "/heartbeat", "{\"index\":0,\"lease\":1}"),
        request("POST", "/heartbeat", "[[["),
        request("POST", "/complete", "{\"index\":0,\"lease\":1}"),
    ] {
        let resp = coordinator.handle(&req).expect("coordinator route");
        assert_eq!(resp.content_type, http::CONTENT_TYPE_JSON, "{req:?}");
        let text = std::str::from_utf8(&resp.body).unwrap();
        assert!(
            hdc_types::json::parse(text).is_ok(),
            "{req:?} answered {text}"
        );
    }
}

/// A salvage slot already holding an out-of-range frontier (restored
/// from a checkpoint) neither panics the worker nor corrupts the bag:
/// the worker declines the resume, recrawls the shard from root 0, and
/// banks frontiers counted from 0.
#[test]
fn poisoned_salvage_slot_recrawls_the_shard_whole() {
    let (schema, tuples) = instance();
    let plan = Sharded::plan_oversubscribed(&schema, 2, 2);
    let sigs: Vec<String> = plan.iter().map(ShardSpec::signature).collect();
    let (solo_queries, solo_bag) = solo(&plan, &schema, &tuples);

    let mut repo = MemoryLeaseRepository::new(sigs.clone(), Duration::from_secs(60));
    let mut poisoned = CrawlCheckpoint::new(sigs);
    poisoned.shards.push(snapshot(0, Some(u64::MAX)));
    repo.store(&poisoned).unwrap();

    let cfg = WorkerConfig {
        name: "salvager".into(),
        ..WorkerConfig::default()
    };
    let report = drive_worker(&mut repo, &mut local_db(&schema, &tuples), &schema, &cfg).unwrap();
    assert_eq!(
        report.shards_resumed, 0,
        "an out-of-range frontier is not resumed"
    );
    assert!(repo.is_drained());
    let cp = repo.checkpoint();
    let queries: u64 = cp.shards.iter().map(|s| s.queries).sum();
    let bag = TupleBag::from_tuples(cp.shards.iter().flat_map(|s| s.tuples.clone()));
    assert_eq!(queries, solo_queries);
    assert!(bag.multiset_eq(&solo_bag));
    assert!(matches!(
        repo.lease("late").unwrap(),
        LeaseDecision::Drained
    ));
}

/// A restarted coordinator applies the same frontier rule to the
/// partials it restores: one no peer can resume from is dropped, not
/// banked, so a poisoned checkpoint file cannot poison the salvage slot.
#[test]
fn restored_out_of_range_frontier_is_not_banked() {
    let (schema, _) = instance();
    let sigs: Vec<String> = Sharded::plan_oversubscribed(&schema, 2, 2)
        .iter()
        .map(ShardSpec::signature)
        .collect();
    let path =
        std::env::temp_dir().join(format!("hdc-hostile-restore-{}.json", std::process::id()));
    let mut cp = CrawlCheckpoint::new(sigs.clone());
    cp.shards.push(snapshot(0, Some(u64::MAX)));
    cp.shards.push(snapshot(1, Some(1)));
    JsonFileRepository::new(&path).store(&cp).unwrap();

    let (coordinator, _) = Coordinator::new(
        sigs,
        CoordinatorConfig {
            checkpoint: Some(path.clone()),
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let mut repo = coordinator.repo();
    for (index, frontier) in [(0, None), (1, Some(1))] {
        match repo.lease("w").unwrap() {
            LeaseDecision::Grant(g) => {
                assert_eq!(g.index, index);
                assert_eq!(g.partial.and_then(|p| p.frontier), frontier);
            }
            other => panic!("expected a grant, got {other:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}
