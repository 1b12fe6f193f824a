//! `compare_serve`: an in-process `Server` driven over real sockets by a
//! closed loop of clients, in two phases.
//!
//! - Cold, `nproc` clients: `/compare` requests (all 11 trackers, 25
//!   nodes, the service's default grid, engine omitted) whose spec is new
//!   to the service.
//! - Warm, one client: already-cached `/whatif` and `/compare` bodies
//!   repeated, with one `GET /metrics` every 50 requests.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use eh_fleet::{FleetContext, FleetRunner, TrackerKind};
use eh_serve::metrics::names;
use eh_serve::{ComputeEngine, Json, Op, ServeConfig, Server, ServiceMetrics, WhatIfRequest};
use eh_units::Lux;

use crate::golden::{self, Observed};
use crate::http::{self, Reply};
use crate::stats::{self, Outcome};
use crate::trace::Tracer;
use crate::{header, Run, SIM_WORKERS};

/// Share of `--seconds` given to the cold phase; the warm phase gets the
/// rest.
const COLD_SHARE: f64 = 0.8;
/// Warm-phase clients. One: with several, a cached request's ~100 µs is
/// mostly the scheduler's hand-offs between client, accept and worker
/// threads on a small host, and throughput swings with other load.
const WARM_CLIENTS: usize = 1;
/// `serve.warm_rps` is the median over windows of this many seconds of
/// the requests completed in each.
const RPS_WINDOW_S: f64 = 0.1;
/// Traced runs time the in-process parse and canonicalize steps on this
/// many warm bodies, after the warm phase.
const PARSE_PROBES: usize = 2000;
/// One `GET /metrics` per this many warm requests.
const METRICS_EVERY: u64 = 50;
/// Trackers whose `/whatif` replies are cached during set-up (cheap
/// ones, so set-up stays dominated by the warm-up `/compare`).
const WHATIF_TRACKERS: [&str; 3] = ["focv", "perturb-observe", "fixed-voltage"];
/// Operation ids of the traced probes, clear of request ids.
const PROBE_OP: u64 = 1 << 40;

/// A request the warm phase repeats, with the reply it must get.
struct Cached {
    path: &'static str,
    body: String,
    reply: String,
}

/// The running service and the replies cached during set-up.
pub struct Prepared {
    server: Server,
    cached: Vec<Cached>,
}

fn nodes(run: &Run) -> u32 {
    if run.smoke {
        4
    } else {
        25
    }
}

fn compare_body(run: &Run, i: u64) -> String {
    format!("{{\"nodes\":{},\"seed\":{}}}", nodes(run), run.op_seed(i))
}

fn spill_dir(run: &Run) -> std::path::PathBuf {
    run.out.join(format!("spill-{}", std::process::id()))
}

/// Checks a `/compare` reply: 200, every tracker, the requested size.
fn check_compare(run: &Run, reply: &Reply, want_cache: &str) -> Result<Vec<Json>, String> {
    if reply.status != 200 {
        return Err(format!("status {}: {}", reply.status, reply.body));
    }
    if reply.cache != want_cache {
        return Err(format!(
            "x-cache {} where {want_cache} was due",
            reply.cache
        ));
    }
    let parsed = Json::parse(&reply.body).map_err(|e| format!("reply is not JSON: {e}"))?;
    let Some(Json::Arr(trackers)) = parsed.get("trackers") else {
        return Err("reply has no trackers array".to_owned());
    };
    if trackers.len() != TrackerKind::ALL.len() {
        return Err(format!(
            "{} trackers, not {}",
            trackers.len(),
            TrackerKind::ALL.len()
        ));
    }
    let want = f64::from(nodes(run));
    if let Some(t) = trackers
        .iter()
        .find(|t| t.get("nodes").and_then(Json::as_f64) != Some(want))
    {
        return Err(format!(
            "a tracker reports {:?} nodes, not {want}",
            t.get("nodes")
        ));
    }
    Ok(trackers.clone())
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Result<Reply, String> {
    http::request(addr, "POST", path, body, &Tracer::new(false), 0)
}

/// Spawns the service and caches one `/compare` and a few `/whatif`
/// replies for the warm-up spec.
pub fn setup(run: &Run) -> Result<Prepared, String> {
    let mut config = ServeConfig::default_local();
    config.http_workers = header::http_workers(run);
    config.sim_workers = SIM_WORKERS;
    config.spill_dir = spill_dir(run);
    let server = Server::spawn(config).map_err(|e| format!("spawning the service: {e}"))?;
    let addr = server.addr();

    let body = compare_body(run, 0);
    let reply = post(addr, "/compare", &body)?;
    check_compare(run, &reply, "miss").map_err(|e| format!("warm-up /compare: {e}"))?;
    let mut cached = vec![Cached {
        path: "/compare",
        body,
        reply: reply.body,
    }];
    for tracker in WHATIF_TRACKERS {
        let body = format!(
            "{{\"nodes\":{},\"seed\":{},\"tracker\":\"{tracker}\"}}",
            nodes(run),
            run.op_seed(0)
        );
        let reply = post(addr, "/whatif", &body)?;
        if reply.status != 200 {
            return Err(format!(
                "warm-up /whatif {tracker}: status {}",
                reply.status
            ));
        }
        cached.push(Cached {
            path: "/whatif",
            body,
            reply: reply.body,
        });
    }
    Ok(Prepared { server, cached })
}

/// Runs `client` on `n` threads, each with its own tracer, and returns
/// their results after absorbing their spans.
fn clients<T: Send>(
    n: usize,
    tracer: &Tracer,
    client: impl Fn(&Tracer) -> Vec<T> + Sync,
) -> Vec<T> {
    let per_thread: Vec<(Vec<T>, Tracer)> = std::thread::scope(|scope| {
        let client = &client;
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let tr = tracer.child();
                scope.spawn(move || (client(&tr), tr))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = Vec::new();
    for (results, tr) in per_thread {
        tracer.absorb(tr);
        out.extend(results);
    }
    out
}

/// The compute path without sockets, tracker by tracker, and the exact
/// PV solver over a log-lux sweep of the fleet's domain (1 lx – 100 klx).
fn trace_compute(run: &Run, tracer: &Tracer) -> Result<(), String> {
    let op = PROBE_OP;
    let json = Json::parse(&compare_body(run, 0)).map_err(|e| e.to_string())?;
    let req = WhatIfRequest::from_json(Op::Compare, &json, 10_000).map_err(|e| e.to_string())?;
    {
        let _probe = tracer.enter("probe.compute", op);
        let engine = ComputeEngine::new(
            SIM_WORKERS,
            8,
            spill_dir(run),
            Arc::new(ServiceMetrics::new()),
        );
        tracer
            .span("serve.compute", op, || engine.compare(&req))
            .map_err(|e| e.to_string())?;
    }
    let spec = req.to_spec().map_err(|e| e.to_string())?;
    {
        let _probe = tracer.enter("probe.trackers", op + 1);
        let ctx = tracer
            .span("fleet.prepare", op + 1, || FleetContext::prepare(&spec))
            .map_err(|e| e.to_string())?;
        let runner = FleetRunner::new(SIM_WORKERS).with_shard_size(req.shard_size);
        for kind in TrackerKind::ALL {
            let name: &'static str = Box::leak(crate::layers::tracker_span(kind).into_boxed_str());
            tracer
                .span(name, op + 1, || {
                    runner.run_engine_prepared(&ctx, kind, req.engine)
                })
                .map_err(|e| e.to_string())?;
        }
    }
    let _probe = tracer.enter("probe.pv", op + 2);
    for k in 0..=50 {
        let lux = Lux::new(10f64.powf(f64::from(k) / 10.0));
        tracer
            .span("pv.mpp", op + 2, || spec.cell.mpp(lux))
            .map_err(|e| e.to_string())?;
        tracer
            .span("pv.voc", op + 2, || spec.cell.open_circuit_voltage(lux))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The parse and canonicalize steps of one warm body, in-process.
fn trace_parse(path: &str, body: &str, tracer: &Tracer, op: u64) -> Result<(), String> {
    let _probe = tracer.enter("probe.parse", op);
    let opkind = if path == "/compare" {
        Op::Compare
    } else {
        Op::WhatIf
    };
    let req = tracer.span("serve.parse", op, || {
        let json = Json::parse(body)?;
        WhatIfRequest::from_json(opkind, &json, 10_000).map_err(|e| e.to_string())
    })?;
    tracer.span("serve.canonical", op, || {
        std::hint::black_box(req.canonical_json());
        std::hint::black_box(req.hash());
    });
    Ok(())
}

fn observed(trackers: &[Json]) -> Vec<Observed> {
    let mut obs = Vec::new();
    for (kind, t) in TrackerKind::ALL.iter().zip(trackers) {
        let count = |key: &str| t.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let label = kind.label();
        obs.push(Observed::count(
            format!("{label}.net_negative"),
            count("net_negative") as usize,
        ));
        obs.push(Observed::count(
            format!("{label}.brown_outs"),
            count("brown_outs") as usize,
        ));
        let p50 = t
            .get("net_j")
            .and_then(|p| p.get("p50"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        obs.push(Observed::energy(format!("{label}.net_j_p50"), p50));
    }
    obs
}

/// The pinned operation, untimed: the first timed `/compare` of the
/// full-size default-seed run, checked like every cold reply and compared
/// with `golden.json`. It is a cache hit only if this run sent it already.
fn pinned(run: &Run, addr: SocketAddr) -> Result<(), String> {
    let pinned = run.pinned();
    let body = compare_body(&pinned, 1);
    let want_cache = if body == compare_body(run, 1) {
        "hit"
    } else {
        "miss"
    };
    let reply = post(addr, "/compare", &body)?;
    let trackers = check_compare(&pinned, &reply, want_cache)?;
    let obs = observed(&trackers);
    println!("golden observed compare_serve: {}", golden::render(&obs));
    golden::check("compare_serve", &obs)
}

enum WarmKind {
    Cached,
    Metrics,
}

/// Drives the cold then the warm phase.
pub fn measure(run: &Run, prepared: Prepared, tracer: &Tracer) -> Outcome {
    let Prepared { server, mut cached } = prepared;
    let addr = server.addr();
    let mut outcome = Outcome::default();

    // Cold phase: every /compare spec is new to the service.
    let next = AtomicU64::new(1);
    let cold_start = Instant::now();
    let cold_deadline = run.seconds * COLD_SHARE;
    let mut cold = clients(header::http_workers(run), tracer, |tr| {
        let mut out = Vec::new();
        while cold_start.elapsed().as_secs_f64() < cold_deadline {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let body = compare_body(run, i);
            let t0 = Instant::now();
            let reply = {
                let _op = tr.enter("op.cold", i);
                http::request(addr, "POST", "/compare", &body, tr, i)
            };
            out.push((i, t0.elapsed().as_secs_f64(), body, reply));
        }
        out
    });
    let cold_wall = cold_start.elapsed().as_secs_f64();
    cold.sort_by_key(|c| c.0);
    let mut cold_lat = Vec::new();
    for (_, lat, body, reply) in cold {
        let failure = match reply.and_then(|r| check_compare(run, &r, "miss").map(|_| r)) {
            Ok(reply) => {
                cold_lat.push(lat);
                cached.push(Cached {
                    path: "/compare",
                    body,
                    reply: reply.body,
                });
                None
            }
            Err(e) => Some(e),
        };
        outcome.record("cold", failure);
    }

    if tracer.enabled() {
        let failure = trace_compute(run, tracer).err();
        outcome.record("probe", failure);
    }

    // Warm phase: cached bodies, byte-identical to their cold replies.
    let next = AtomicU64::new(0);
    let warm_start = Instant::now();
    let warm_deadline = run.seconds * (1.0 - COLD_SHARE);
    let cached = &cached;
    let warm = clients(WARM_CLIENTS, tracer, |tr| {
        let mut out = Vec::new();
        while warm_start.elapsed().as_secs_f64() < warm_deadline {
            let j = next.fetch_add(1, Ordering::Relaxed);
            let op = PROBE_OP * 2 + j;
            let t0 = Instant::now();
            if j % METRICS_EVERY == METRICS_EVERY - 1 {
                let reply = {
                    let _op = tr.enter("op.metrics", op);
                    http::request(addr, "GET", "/metrics", "", tr, op)
                };
                let lat = t0.elapsed().as_secs_f64();
                let failure = reply.and_then(|r| match Json::parse(&r.body) {
                    Ok(_) if r.status == 200 => Ok(()),
                    _ => Err(format!("/metrics status {}: {}", r.status, r.body)),
                });
                let done = warm_start.elapsed().as_secs_f64();
                out.push((WarmKind::Metrics, done, lat, failure.err()));
                continue;
            }
            let c = &cached[(j / METRICS_EVERY + j) as usize % cached.len()];
            let reply = {
                let _op = tr.enter("op.warm", op);
                http::request(addr, "POST", c.path, &c.body, tr, op)
            };
            let lat = t0.elapsed().as_secs_f64();
            let failure = reply
                .and_then(|r| {
                    if r.status != 200 || r.cache != "hit" {
                        Err(format!(
                            "{} status {} x-cache {}",
                            c.path, r.status, r.cache
                        ))
                    } else if r.body != c.reply {
                        Err(format!("{} reply differs from its cold reply", c.path))
                    } else {
                        Ok(())
                    }
                })
                .err();
            let done = warm_start.elapsed().as_secs_f64();
            out.push((WarmKind::Cached, done, lat, failure));
        }
        out
    });
    // Requests completed per throughput window, over the whole windows
    // of the phase.
    let mut per_window = vec![0.0; (warm_deadline / RPS_WINDOW_S) as usize];
    let mut warm_lat = Vec::new();
    for (kind, done, lat, failure) in &warm {
        if let Some(w) = per_window.get_mut((done / RPS_WINDOW_S) as usize) {
            *w += 1.0;
        }
        match kind {
            WarmKind::Cached => {
                warm_lat.push(*lat);
                outcome.record("warm", failure.clone());
            }
            WarmKind::Metrics => outcome.record("metrics", failure.clone()),
        }
    }

    let metrics = server.metrics();
    let ratio = |hits: &str, misses: &str| {
        let (h, m) = (metrics.counter(hits), metrics.counter(misses));
        (h as f64 / (h + m).max(1) as f64, (h + m) as usize)
    };
    if tracer.enabled() {
        // After the warm phase, so its traffic runs unperturbed.
        for k in 0..PARSE_PROBES {
            let c = &cached[k % cached.len()];
            let failure = trace_parse(c.path, &c.body, tracer, PROBE_OP * 3 + k as u64).err();
            outcome.record("probe", failure);
        }
    }
    let m = &mut outcome.metrics;
    if tracer.enabled() {
        m.put(
            "serve.warm_rps",
            stats::median(&per_window) / RPS_WINDOW_S,
            "1/s",
            per_window.len(),
        );
        let (r, n) = ratio(names::CACHE_HITS, names::CACHE_MISSES);
        m.put("serve.cache_hit_ratio", r, "ratio", n);
        let (r, n) = ratio(names::CONTEXT_HITS, names::CONTEXT_MISSES);
        m.put("serve.context_hit_ratio", r, "ratio", n);
    } else {
        let days = (cold_lat.len() * nodes(run) as usize * TrackerKind::ALL.len()) as f64;
        m.put(
            "node_days_per_s",
            days / cold_wall,
            "node-days/s",
            cold_lat.len(),
        );
        m.put("cold_s_p50", stats::median(&cold_lat), "s", cold_lat.len());
        m.put(
            "warm_p50_us",
            stats::median(&warm_lat) * 1e6,
            "us",
            warm_lat.len(),
        );
    }
    outcome.samples.insert("cold_s", cold_lat);
    outcome.samples.insert("warm_s", warm_lat);
    // Last, so its request does not count in the traced hit ratios.
    outcome.record("golden", pinned(run, addr).err());
    server.shutdown();
    let _ = std::fs::remove_dir_all(spill_dir(run));
    outcome
}
