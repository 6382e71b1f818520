//! Every request and answer body of the endpoints tabled in
//! [`crate::coordinator`], encoded and decoded here only, through the
//! bounded [`hdc_types::json`] reader: a hostile body is a 4xx, never a
//! panic. [`crate::WireLeaseRepository`] is the client side.

use std::io;

use hdc_core::{CrawlCheckpoint, ResumableShard, ShardSnapshot, ShardSpec};
use hdc_net::http::Response;
use hdc_types::json::{self, Json};

use crate::lease::{LeaseDecision, LeaseGrant};

/// Format identifier of the `GET /plan` document.
pub const FORMAT: &str = "hdc-coord";
/// Protocol version, checked by the client on `GET /plan`.
pub const VERSION: i128 = 2;

/// A request the coordinator refuses: the status and the message it
/// answers as `{"error":…}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rejection {
    /// HTTP status: 400 malformed, 409 plan mismatch, 500 internal.
    pub status: u16,
    /// What went wrong, for the operator.
    pub message: String,
}

impl Rejection {
    /// A malformed request (400).
    pub fn bad(message: impl Into<String>) -> Self {
        Rejection::new(400, message)
    }

    /// A refusal with an explicit status.
    pub fn new(status: u16, message: impl Into<String>) -> Self {
        Rejection {
            status,
            message: message.into(),
        }
    }

    /// The `{"error":…}` response.
    pub fn into_response(self) -> Response {
        Response::json(
            self.status,
            format!("{{\"error\":{}}}", json::quote(&self.message)).into_bytes(),
        )
    }
}

/// The message of an error answer: its `error` field, or the raw body
/// when it is not one (a proxy's page, a truncated answer).
pub fn error_message(body: &str) -> String {
    json::parse(body)
        .ok()
        .and_then(|v| v.get("error")?.as_str().map(str::to_owned))
        .unwrap_or_else(|| body.trim().to_string())
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn document(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    json::parse(text).map_err(|e| format!("bad JSON body: {e}"))
}

fn uint(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("field {key:?} must be an integer in 0..=u64::MAX"))
}

/// Field `index`, checked against the plan.
fn plan_index(v: &Json, plan: &[String]) -> Result<usize, String> {
    let index = uint(v, "index")?;
    usize::try_from(index)
        .ok()
        .filter(|&i| i < plan.len())
        .ok_or_else(|| format!("index {index} out of plan ({} shards)", plan.len()))
}

// ------------------------------------------------------------ GET /plan

/// The `GET /plan` answer.
pub fn plan_answer(plan: &[String], ttl_ms: u64, done: usize) -> String {
    let sigs: Vec<String> = plan.iter().map(|s| json::quote(s)).collect();
    format!(
        "{{\"format\":{},\"version\":{VERSION},\"ttl_ms\":{ttl_ms},\"done\":{done},\"plan\":[{}]}}",
        json::quote(FORMAT),
        sigs.join(",")
    )
}

/// Decodes a `GET /plan` answer into `(plan, ttl_ms)`.
pub fn parse_plan(body: &str) -> io::Result<(Vec<String>, u64)> {
    let v = json::parse(body).ok().filter(|v| {
        v.get("format").and_then(Json::as_str) == Some(FORMAT)
            && v.get("version").and_then(Json::as_int) == Some(VERSION)
    });
    let v = v.ok_or_else(|| {
        invalid(format!(
            "not an {FORMAT} v{VERSION} plan — is the server running with --coordinate?"
        ))
    })?;
    let ttl_ms = uint(&v, "ttl_ms").map_err(invalid)?;
    let plan = v
        .get("plan")
        .and_then(Json::as_arr)
        .ok_or_else(|| invalid("plan must be an array".into()))?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_owned)
                .ok_or_else(|| invalid("plan entries must be strings".into()))
        })
        .collect::<io::Result<Vec<String>>>()?;
    Ok((plan, ttl_ms))
}

// ----------------------------------------------------------- POST /lease

/// The `POST /lease` request.
pub fn lease_request(worker: &str) -> String {
    format!("{{\"worker\":{}}}", json::quote(worker))
}

/// Decodes a `POST /lease` request into the worker's display name.
pub fn parse_lease_request(body: &[u8]) -> Result<String, Rejection> {
    let v = document(body).map_err(Rejection::bad)?;
    v.get("worker")
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| Rejection::bad("field \"worker\" must be a string"))
}

/// The `POST /lease` answer. A salvaged partial travels as a
/// one-snapshot checkpoint of `plan`.
pub fn lease_answer(decision: &LeaseDecision, plan: &[String]) -> String {
    match decision {
        LeaseDecision::Grant(g) => {
            let mut body = format!(
                "{{\"grant\":{{\"index\":{},\"lease\":{},\"ttl_ms\":{}",
                g.index, g.lease, g.ttl_ms
            );
            if let Some(p) = &g.partial {
                body.push_str(",\"partial\":");
                body.push_str(&one_snapshot(plan, p));
            }
            body.push_str("}}");
            body
        }
        LeaseDecision::Wait { retry_ms } => format!("{{\"wait\":{retry_ms}}}"),
        LeaseDecision::Drained => "{\"drained\":true}".to_string(),
    }
}

/// Decodes a `POST /lease` answer; the grant's signature comes from the
/// client's copy of `plan`.
pub fn parse_lease_answer(body: &str, plan: &[String]) -> io::Result<LeaseDecision> {
    let v = json::parse(body).map_err(|e| invalid(format!("bad lease answer: {e}")))?;
    if let Some(g) = v.get("grant") {
        let index = plan_index(g, plan).map_err(invalid)?;
        let partial = match g.get("partial") {
            Some(cp) => Some(carried_snapshot(cp, plan, index).map_err(|r| invalid(r.message))?),
            None => None,
        };
        return Ok(LeaseDecision::Grant(Box::new(LeaseGrant {
            index,
            signature: plan[index].clone(),
            lease: uint(g, "lease").map_err(invalid)?,
            ttl_ms: uint(g, "ttl_ms").map_err(invalid)?,
            partial,
        })));
    }
    if v.get("wait").is_some() {
        let retry_ms = uint(&v, "wait").map_err(invalid)?;
        return Ok(LeaseDecision::Wait { retry_ms });
    }
    if v.get("drained").and_then(Json::as_bool) == Some(true) {
        return Ok(LeaseDecision::Drained);
    }
    Err(invalid(format!("unrecognized lease answer {body:?}")))
}

// ------------------------------------------ POST /heartbeat, /complete

/// The `POST /heartbeat` (snapshot optional) and `POST /complete`
/// (snapshot required) request.
pub fn report_request(
    index: usize,
    lease: u64,
    plan: &[String],
    snapshot: Option<&ShardSnapshot>,
) -> String {
    let mut body = format!("{{\"index\":{index},\"lease\":{lease}");
    if let Some(s) = snapshot {
        body.push_str(",\"checkpoint\":");
        body.push_str(&one_snapshot(plan, s));
    }
    body.push('}');
    body
}

/// Decodes a `POST /heartbeat` request into `(index, lease, partial)`:
/// the index lies in the plan, and any carried snapshot is partial,
/// with a frontier inside the shard's resume range.
pub fn parse_heartbeat(
    body: &[u8],
    plan: &[String],
) -> Result<(usize, u64, Option<ShardSnapshot>), Rejection> {
    let (index, lease, snapshot) = parse_report(body, plan)?;
    if let Some(s) = &snapshot {
        match s.frontier {
            None => return Err(Rejection::bad("heartbeat snapshot must be partial")),
            Some(f) if !frontier_in_range(plan, index, f) => {
                return Err(Rejection::bad(format!(
                    "frontier {f} outside the resume range of shard {index}"
                )))
            }
            Some(_) => {}
        }
    }
    Ok((index, lease, snapshot))
}

/// Whether a peer can resume shard `index` from `frontier`, i.e. it lies
/// in `1..=resume_points()` of the shard's parsed signature.
pub(crate) fn frontier_in_range(plan: &[String], index: usize, frontier: u64) -> bool {
    let points = plan
        .get(index)
        .and_then(|sig| ShardSpec::parse_signature(sig))
        .and_then(|spec| spec.resume_points())
        .unwrap_or(0);
    (1..=points as u64).contains(&frontier)
}

/// Decodes a `POST /complete` request into `(index, lease, snapshot)`.
pub fn parse_complete(
    body: &[u8],
    plan: &[String],
) -> Result<(usize, u64, ShardSnapshot), Rejection> {
    match parse_report(body, plan)? {
        (index, lease, Some(s)) => Ok((index, lease, s)),
        _ => Err(Rejection::bad("complete requires a snapshot")),
    }
}

fn parse_report(
    body: &[u8],
    plan: &[String],
) -> Result<(usize, u64, Option<ShardSnapshot>), Rejection> {
    let v = document(body).map_err(Rejection::bad)?;
    let index = plan_index(&v, plan).map_err(Rejection::bad)?;
    let lease = uint(&v, "lease").map_err(Rejection::bad)?;
    let snapshot = match v.get("checkpoint") {
        Some(cp) => Some(carried_snapshot(cp, plan, index)?),
        None => None,
    };
    Ok((index, lease, snapshot))
}

/// A one-snapshot checkpoint of `plan` (every carried snapshot embeds
/// the plan, so each message re-validates the plan fingerprint).
fn one_snapshot(plan: &[String], snapshot: &ShardSnapshot) -> String {
    let mut cp = CrawlCheckpoint::new(plan.to_vec());
    cp.shards.push(snapshot.clone());
    cp.to_json()
}

/// The snapshot inside a carried checkpoint: the plan must match (409
/// otherwise, with the `mismatch:` hint) and it must hold exactly one
/// shard, the one at `index`.
fn carried_snapshot(cp: &Json, plan: &[String], index: usize) -> Result<ShardSnapshot, Rejection> {
    let cp = CrawlCheckpoint::from_tree(cp)
        .map_err(|e| Rejection::bad(format!("bad snapshot payload: {e}")))?;
    cp.verify_plan(plan)
        .map_err(|e| Rejection::new(409, format!("mismatch: {e}")))?;
    let mut shards = cp.shards.into_iter();
    match (shards.next(), shards.next()) {
        (Some(s), None) if s.index == index => Ok(s),
        _ => Err(Rejection::bad(format!(
            "the checkpoint must hold exactly one snapshot, of shard {index}"
        ))),
    }
}

/// The `POST /heartbeat` answer: whether the lease is still held.
pub fn held_answer(held: bool) -> String {
    format!("{{\"held\":{held}}}")
}

/// Decodes a `POST /heartbeat` answer.
pub fn parse_held(body: &str) -> io::Result<bool> {
    json::parse(body)
        .ok()
        .and_then(|v| v.get("held").and_then(Json::as_bool))
        .ok_or_else(|| invalid(format!("unrecognized heartbeat answer {body:?}")))
}

/// The `POST /complete` answer: `Some(new tuples)` when accepted,
/// `None` when the lease had been reclaimed.
pub fn complete_answer(new: Option<u64>) -> String {
    match new {
        Some(n) => format!("{{\"new\":{n}}}"),
        None => "{\"lost\":true}".to_string(),
    }
}

/// Decodes a `POST /complete` answer.
pub fn parse_complete_answer(body: &str) -> io::Result<Option<u64>> {
    let unrecognized = || invalid(format!("unrecognized complete answer {body:?}"));
    let v = json::parse(body).map_err(|_| unrecognized())?;
    if v.get("lost").and_then(Json::as_bool) == Some(true) {
        return Ok(None);
    }
    uint(&v, "new").map(Some).map_err(|_| unrecognized())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::CrawlMetrics;
    use hdc_types::tuple::cat_tuple;

    fn plan() -> Vec<String> {
        vec!["cat:0=[0, 1, 2]".into(), "cat:0=[3]".into()]
    }

    fn partial(index: usize, frontier: Option<u64>) -> ShardSnapshot {
        ShardSnapshot {
            index,
            queries: 4,
            resolved: 3,
            overflowed: 1,
            pruned: 0,
            frontier,
            metrics: CrawlMetrics::default(),
            tuples: vec![cat_tuple(&[0, 1])],
        }
    }

    #[test]
    fn every_message_round_trips() {
        let plan = plan();
        let (back, ttl) = parse_plan(&plan_answer(&plan, 1500, 1)).unwrap();
        assert_eq!((back, ttl), (plan.clone(), 1500));

        assert_eq!(
            parse_lease_request(lease_request("al \"ice\"").as_bytes()).unwrap(),
            "al \"ice\""
        );
        let grant = LeaseDecision::Grant(Box::new(LeaseGrant {
            index: 0,
            signature: plan[0].clone(),
            lease: 7,
            ttl_ms: 900,
            partial: Some(partial(0, Some(2))),
        }));
        match parse_lease_answer(&lease_answer(&grant, &plan), &plan).unwrap() {
            LeaseDecision::Grant(g) => {
                assert_eq!((g.index, g.lease, g.ttl_ms), (0, 7, 900));
                assert_eq!(g.signature, plan[0]);
                assert_eq!(g.partial, Some(partial(0, Some(2))));
            }
            other => panic!("{other:?}"),
        }
        let wait = lease_answer(&LeaseDecision::Wait { retry_ms: 12 }, &plan);
        assert!(matches!(
            parse_lease_answer(&wait, &plan).unwrap(),
            LeaseDecision::Wait { retry_ms: 12 }
        ));
        let drained = lease_answer(&LeaseDecision::Drained, &plan);
        assert!(matches!(
            parse_lease_answer(&drained, &plan).unwrap(),
            LeaseDecision::Drained
        ));

        let beat = report_request(0, 7, &plan, Some(&partial(0, Some(3))));
        assert_eq!(
            parse_heartbeat(beat.as_bytes(), &plan).unwrap(),
            (0, 7, Some(partial(0, Some(3))))
        );
        let bare = report_request(1, 8, &plan, None);
        assert_eq!(
            parse_heartbeat(bare.as_bytes(), &plan).unwrap(),
            (1, 8, None)
        );
        let done = report_request(1, 8, &plan, Some(&partial(1, None)));
        assert_eq!(
            parse_complete(done.as_bytes(), &plan).unwrap(),
            (1, 8, partial(1, None))
        );

        for held in [true, false] {
            assert_eq!(parse_held(&held_answer(held)).unwrap(), held);
        }
        for new in [Some(0), Some(41), None] {
            assert_eq!(parse_complete_answer(&complete_answer(new)).unwrap(), new);
        }
        let refusal = Rejection::new(409, "mismatch: other plan").into_response();
        assert_eq!(refusal.status, 409);
        assert_eq!(
            error_message(std::str::from_utf8(&refusal.body).unwrap()),
            "mismatch: other plan"
        );
        assert_eq!(error_message("plain text\n"), "plain text");
    }

    #[test]
    fn reports_are_checked_against_the_plan() {
        let plan = plan();
        let status = |body: &str| parse_heartbeat(body.as_bytes(), &plan).unwrap_err().status;
        assert_eq!(status("{\"index\":2,\"lease\":1}"), 400);
        assert_eq!(status("{\"index\":0,\"lease\":-1}"), 400);
        assert_eq!(status("{\"index\":0,\"lease\":18446744073709551616}"), 400);
        assert_eq!(status("{\"index\":\"0\",\"lease\":1}"), 400);
        // Frontiers: shard 0 has three resume points, so 1..=3.
        for f in [0, 4, u64::MAX] {
            let body = report_request(0, 1, &plan, Some(&partial(0, Some(f))));
            assert_eq!(status(&body), 400, "frontier {f}");
        }
        let complete = report_request(0, 1, &plan, Some(&partial(0, None)));
        assert_eq!(status(&complete), 400, "heartbeat with a complete snapshot");
        let wrong_shard = report_request(0, 1, &plan, Some(&partial(1, Some(1))));
        assert_eq!(status(&wrong_shard), 400);
        let foreign = report_request(0, 1, &["other".into()], Some(&partial(0, Some(1))));
        let err = parse_heartbeat(foreign.as_bytes(), &plan).unwrap_err();
        assert_eq!(err.status, 409);
        assert!(err.message.starts_with("mismatch: "), "{}", err.message);
        assert!(parse_complete(b"{\"index\":0,\"lease\":1}", &plan).is_err());
    }
}
