//! The serving stack under test (`PlanService` behind a loopback
//! `PlanServer`) and the client side that sends requests and checks every
//! answer.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use dae_dvfs::obs::plan_hash;
use dae_dvfs::{
    PlanArtifact, PlanRegistry, PlanServer, PlanService, PlannerKey, ServerConfig, ServiceConfig,
    ServiceStats,
};
use repro_bench::httpc::{Client, HttpResponse};

use crate::common::{ns32, parse_receipt, Checks, Rec, NO_PATH};
use crate::tenants::{Answer, Req, Tenant};

/// Load shape sized for a 2-core machine: service and server run 2
/// workers each, and at most 2 client connections are open.
pub const SERVICE_WORKERS: usize = 2;
pub const SERVER_WORKERS: usize = 2;
pub const CLIENTS: usize = 2;

pub fn service_config() -> ServiceConfig {
    ServiceConfig::default().with_workers(SERVICE_WORKERS)
}

pub fn server_config() -> ServerConfig {
    ServerConfig::default().with_workers(SERVER_WORKERS)
}

/// What one serving session returned.
pub struct Served<R> {
    pub out: R,
    /// Service counters after the drain.
    pub stats: ServiceStats,
    /// Registry open plus `attach_registry` re-validation, seconds.
    pub attach_s: f64,
}

/// Builds a service over `tenants` (with the registry at `registry`
/// attached, if any), serves it on a loopback port, and runs `f` against
/// it. Routes are the tenant names.
pub fn serve<R: Send>(
    tenants: &[Tenant],
    config: ServiceConfig,
    registry: Option<&Path>,
    f: impl FnOnce(&PlanService, SocketAddr, &[PlannerKey]) -> R + Send,
) -> Served<R> {
    let mut service = PlanService::new(config).expect("service config validates");
    let keys: Vec<PlannerKey> = tenants
        .iter()
        .map(|t| service.register(t.planner.clone()))
        .collect();
    let mut attach_s = 0.0;
    if let Some(dir) = registry {
        let t = Instant::now();
        service
            .attach_registry(PlanRegistry::open(dir).expect("registry opens"))
            .expect("registry re-validates");
        attach_s = t.elapsed().as_secs_f64();
    }
    let out = service.run(|svc| {
        let mut server = PlanServer::new(svc, server_config()).expect("server config validates");
        for (t, key) in tenants.iter().zip(&keys) {
            server = server.route(&t.name, *key).expect("route registers");
        }
        server
            .serve(|handle| f(svc, handle.addr(), &keys))
            .expect("server binds a loopback port")
    });
    Served {
        out,
        stats: service.stats(),
        attach_s,
    }
}

/// The first answer seen for one request fingerprint.
pub struct Known {
    pub hash: u64,
    pub body: Vec<u8>,
    pub req: Req,
}

/// One client connection plus the answers it has checked.
pub struct Conn {
    addr: SocketAddr,
    client: Option<Client>,
    pub known: HashMap<u64, Known>,
    pub checks: Checks,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Self {
        Conn {
            addr,
            client: Client::connect(addr).ok(),
            known: HashMap::new(),
            checks: Checks::default(),
        }
    }

    /// One round trip, (re)connecting first if no connection is open; the
    /// connect is not timed.
    fn send(&mut self, body: &str) -> std::io::Result<(HttpResponse, u32)> {
        if self.client.is_none() {
            self.client = Some(Client::connect(self.addr)?);
        }
        let client = self.client.as_mut().expect("connected above");
        let t = Instant::now();
        let response = client.post("/v1/plan", body)?;
        Ok((response, ns32(t.elapsed())))
    }

    /// Closes the connection (before a pause, or so the server's drain need
    /// not wait out its keep-alive read timeout); the checked answers are
    /// kept, and the next request opens a fresh connection.
    pub fn close(&mut self) {
        self.client = None;
    }

    /// Sends one plan request and checks the answer: a 200 with a receipt
    /// whose `hash=` is the FNV-1a of the body, and, for a fingerprint
    /// seen before, the same bytes as then. Transport errors and non-200s
    /// come back as records with `ok == false`; nothing is retried.
    pub fn post(&mut self, req: &Req, body: &str) -> Rec {
        let mut rec = Rec {
            path: NO_PATH,
            ..Rec::default()
        };
        let response = match self.send(body) {
            Ok((response, lat_ns)) => {
                rec.lat_ns = lat_ns;
                response
            }
            Err(_) => {
                self.client = None;
                return rec;
            }
        };
        if response.status != 200 {
            return rec;
        }
        let Some(r) = response.receipt.as_deref().and_then(parse_receipt) else {
            self.checks
                .check(false, || "200 answer without a parseable receipt".into());
            return rec;
        };
        rec.total_ns = u32::try_from(r.total_ns).unwrap_or(u32::MAX);
        rec.solve_ns = u32::try_from(r.solve_ns).unwrap_or(u32::MAX);
        rec.path = r.path;
        rec.ok = true;
        match self.known.get(&r.fp) {
            Some(k) => self
                .checks
                .check(k.body == response.body && k.hash == r.hash, || {
                    format!(
                        "fp {:016x}: bytes or receipt hash differ from the first answer",
                        r.fp
                    )
                }),
            None => {
                let hash = plan_hash(&response.body);
                self.checks.check(hash == r.hash, || {
                    format!("fp {:016x}: receipt hash does not match the body", r.fp)
                });
                self.known.insert(
                    r.fp,
                    Known {
                        hash,
                        body: response.body,
                        req: *req,
                    },
                );
            }
        }
        rec
    }
}

/// Merges the answers several connections saw, checking that every
/// fingerprint carried the same bytes on all of them.
pub fn merge(conns: Vec<Conn>, checks: &mut Checks) -> HashMap<u64, Known> {
    let mut all: HashMap<u64, Known> = HashMap::new();
    for conn in conns {
        checks.absorb(conn.checks);
        for (fp, k) in conn.known {
            match all.get(&fp) {
                Some(seen) => checks.check(seen.hash == k.hash, || {
                    format!("fp {fp:016x}: different bytes on different connections")
                }),
                None => {
                    all.insert(fp, k);
                }
            }
        }
    }
    all
}

/// Parses every distinct answer and checks that its plan meets the
/// requested canonical window; returns the answers for the energy metric.
pub fn check_plans(
    known: &HashMap<u64, Known>,
    tenants: &[Tenant],
    checks: &mut Checks,
) -> Vec<Answer> {
    let mut answers = Vec::with_capacity(known.len());
    for (fp, k) in known {
        let text = String::from_utf8_lossy(&k.body);
        match PlanArtifact::from_json(&text) {
            Ok(artifact) => {
                let answer = Answer::of_artifact(k.req.tenant, &artifact);
                checks.check(answer.meets_window(), || {
                    format!("fp {fp:016x}: plan misses its window")
                });
                checks.check(
                    artifact.qos_secs.to_bits() == k.req.window(tenants).to_bits(),
                    || format!("fp {fp:016x}: plan answers a different window"),
                );
                answers.push(answer);
            }
            Err(e) => checks.check(false, || format!("fp {fp:016x}: unparseable body: {e}")),
        }
    }
    answers
}
