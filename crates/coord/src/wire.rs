//! The worker-side wire client for the coordination protocol: a
//! [`LeaseRepository`] that speaks HTTP to a [`crate::Coordinator`]
//! mounted on `hdc serve --coordinate`.
//!
//! One short-lived TCP connection per verb (the `hdc stop` idiom):
//! lease traffic is rare — once per shard plus one heartbeat per root
//! value — so connection reuse buys nothing and statelessness keeps
//! worker crash behavior trivial.

use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use hdc_core::{CrawlCheckpoint, CrawlRepository, ShardSnapshot};
use hdc_net::http;

use crate::lease::{LeaseDecision, LeaseRepository};
use crate::protocol;

/// Per-request socket timeout: a coordinator that stalls longer than
/// this counts as unreachable.
const WIRE_TIMEOUT: Duration = Duration::from_secs(30);

/// A [`LeaseRepository`] over HTTP. Construction fetches the plan from
/// `GET /plan`, so a connected client always knows every shard
/// signature and the lease TTL.
#[derive(Clone, Debug)]
pub struct WireLeaseRepository {
    addr: String,
    plan: Vec<String>,
    ttl_ms: u64,
}

impl WireLeaseRepository {
    /// Connects to a coordinator at `url` (`http://host:port`, scheme
    /// optional) and fetches its plan.
    pub fn connect(url: &str) -> io::Result<Self> {
        let addr = url
            .trim()
            .trim_start_matches("http://")
            .trim_end_matches('/')
            .to_string();
        let mut client = WireLeaseRepository {
            addr,
            plan: Vec::new(),
            ttl_ms: 0,
        };
        let body = client.call("GET", "/plan", b"")?;
        (client.plan, client.ttl_ms) = protocol::parse_plan(&body)?;
        Ok(client)
    }

    /// The lease TTL the coordinator advertises.
    pub fn ttl_ms(&self) -> u64 {
        self.ttl_ms
    }

    /// One request/response round trip on a fresh connection. Non-2xx
    /// responses become errors carrying the server's message (so the
    /// `409 mismatch: …` plan hint reaches the operator verbatim).
    fn call(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<String> {
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(WIRE_TIMEOUT))?;
        stream.set_write_timeout(Some(WIRE_TIMEOUT))?;
        http::write_request(&mut stream, method, path, body)?;
        stream.flush()?;
        let mut reader = BufReader::new(stream);
        let resp = http::read_response(&mut reader)?;
        let text = String::from_utf8_lossy(&resp.body).into_owned();
        if resp.status / 100 != 2 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "coordinator answered {} on {path}: {}",
                    resp.status,
                    protocol::error_message(&text)
                ),
            ));
        }
        Ok(text)
    }
}

impl CrawlRepository for WireLeaseRepository {
    fn load(&mut self) -> io::Result<Option<CrawlCheckpoint>> {
        let body = self.call("GET", "/checkpoint", b"")?;
        Ok(Some(CrawlCheckpoint::from_json(&body)?))
    }

    fn store(&mut self, _checkpoint: &CrawlCheckpoint) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "wire lease clients report work via complete(), not store()",
        ))
    }
}

impl LeaseRepository for WireLeaseRepository {
    fn plan(&mut self) -> io::Result<Vec<String>> {
        Ok(self.plan.clone())
    }

    fn lease(&mut self, worker: &str) -> io::Result<LeaseDecision> {
        let body = self.call("POST", "/lease", protocol::lease_request(worker).as_bytes())?;
        protocol::parse_lease_answer(&body, &self.plan)
    }

    fn heartbeat(
        &mut self,
        index: usize,
        lease: u64,
        partial: Option<&ShardSnapshot>,
    ) -> io::Result<bool> {
        let body = protocol::report_request(index, lease, &self.plan, partial);
        protocol::parse_held(&self.call("POST", "/heartbeat", body.as_bytes())?)
    }

    fn complete(
        &mut self,
        index: usize,
        lease: u64,
        snapshot: ShardSnapshot,
    ) -> io::Result<Option<u64>> {
        let body = protocol::report_request(index, lease, &self.plan, Some(&snapshot));
        protocol::parse_complete_answer(&self.call("POST", "/complete", body.as_bytes())?)
    }
}
