//! `whatif_serve`: analysts asking what-if questions of a resident daemon.
//!
//! An in-process `bsld_serve::Server` (2 connection workers, 1 simulation
//! thread per request) answers two client connections over its Unix
//! socket. Each client runs a closed loop — it sends the next query only
//! when the previous reply arrived — over a 1 000-job CTC cell under the
//! BSLD policy. Each client's query stream is drawn from the seed:
//!
//! * 70 % `novel` — a never-asked `bsld_th` / `wq` override: the workload
//!   cache hits, the cell simulates;
//! * 20 % `repeat` — an exact repeat of one of the client's recent
//!   queries: the result cache hits;
//! * 10 % `miss` — a never-asked workload seed: the workload is generated,
//!   then the cell simulates.
//!
//! Checks: every reply is `ok`; a repeat's table and CSV equal the first
//! reply's byte for byte; a sample of novel and miss replies equals a
//! one-shot `Scenario::run` of the same cell rendered through the same
//! report path; and the measured mix (and the daemon's result-cache hits)
//! match the intended one, so a stream bug cannot turn the workload into
//! all hits.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bsld_core::scenario::{OutputSpec, ScenarioSet};
use bsld_core::{sweep_report, CellOutcome, WqThreshold};
use bsld_metrics::Json;
use bsld_serve::{Client, Overrides, ServeConfig, Server, StateConfig};

use crate::out::{peak_rss_mb, splitmix64, Ops, Report};
use crate::spans::{median, percentile};
use crate::RunArgs;

/// Set-ups before the measurement, and again after it (the reported
/// `setup_s` is the median of all). Set-up takes milliseconds, so samples
/// from both ends of the run keep one moment of the host's speed from
/// setting it.
const SETUPS_EACH_SIDE: usize = 8;
/// Client connections.
const CLIENTS: u64 = 2;
/// A repeat re-asks one of the client's last this-many distinct queries.
const HISTORY: usize = 16;
/// Every this-many-th novel or miss reply is checked against a one-shot run.
const SAMPLE_EVERY: usize = 40;
/// Completions per block for `round_s`.
const BLOCK: usize = 100;
/// Intended shares of the mix, in percent.
const NOVEL_PCT: u64 = 70;
const REPEAT_PCT: u64 = 20;
/// Largest tolerated gap between a measured and an intended share.
const SHARE_TOLERANCE: f64 = 0.03;

/// The base scenario: one cell, so every override addresses one cell. Its
/// workload seed is fixed — the analyst studies one workload — while the
/// query stream (overrides, repeats, miss seeds) is drawn from the run's
/// seed; a per-seed base workload would move the simulation cost, and so
/// every serve figure, by a tenth from one seed to the next.
fn base_scn(seed: u64) -> String {
    format!(
        "scenario = whatif\nworkload = synthetic\nprofile = ctc\njobs = 1000\n\
         seed = {seed}\npolicy = bsld:2/NO\n"
    )
}

/// The class of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Fresh policy override.
    Novel,
    /// Exact repeat.
    Repeat,
    /// Fresh workload seed.
    Miss,
}

impl Class {
    const ALL: [Class; 3] = [Class::Novel, Class::Repeat, Class::Miss];

    fn name(self) -> &'static str {
        match self {
            Class::Novel => "novel",
            Class::Repeat => "repeat",
            Class::Miss => "miss",
        }
    }
}

/// One client's seeded query stream.
pub struct Stream {
    rng: u64,
    client: u64,
    base_seed: u64,
    sent: u64,
    history: VecDeque<(Overrides, usize)>,
}

impl Stream {
    /// The stream of client `client` under `seed`.
    pub fn new(seed: u64, client: u64) -> Stream {
        let mut rng = seed ^ (client + 1).wrapping_mul(0xd1b5_4a32_d192_ed03);
        splitmix64(&mut rng);
        Stream {
            rng,
            client,
            base_seed: seed,
            sent: 0,
            history: VecDeque::new(),
        }
    }

    /// The next query: its class, overrides and, for a repeat, the index
    /// of the query it repeats in this client's sequence.
    pub fn next_query(&mut self) -> (Class, Overrides, Option<usize>) {
        let index = self.sent as usize;
        // Unique across clients and queries, so novel and miss queries are
        // never answered from the result cache.
        let unique = self.sent * CLIENTS + self.client + 1;
        self.sent += 1;
        let roll = splitmix64(&mut self.rng) % 100;
        let pick = splitmix64(&mut self.rng);
        if (NOVEL_PCT..NOVEL_PCT + REPEAT_PCT).contains(&roll) && !self.history.is_empty() {
            let (ov, of) = self.history[pick as usize % self.history.len()].clone();
            return (Class::Repeat, ov, Some(of));
        }
        let (class, ov) = if roll >= NOVEL_PCT + REPEAT_PCT {
            let ov = Overrides {
                seed: Some(self.base_seed.wrapping_add(unique)),
                ..Overrides::default()
            };
            (Class::Miss, ov)
        } else {
            let wq = match pick % 4 {
                0 => WqThreshold::NoLimit,
                1 => WqThreshold::Limit(0),
                2 => WqThreshold::Limit(4),
                _ => WqThreshold::Limit(16),
            };
            let ov = Overrides {
                bsld_th: Some(1.2 + ((pick >> 8) % 2000) as f64 * 1e-3 + unique as f64 * 1e-9),
                wq: Some(wq),
                ..Overrides::default()
            };
            (Class::Novel, ov)
        };
        if self.history.len() == HISTORY {
            self.history.pop_front();
        }
        self.history.push_back((ov.clone(), index));
        (class, ov, None)
    }
}

/// A daemon running on its own thread.
struct Daemon {
    socket: PathBuf,
    thread: JoinHandle<Result<(), bsld_serve::ServeError>>,
}

impl Daemon {
    fn start(socket: &Path) -> Result<Daemon, String> {
        let cfg = ServeConfig {
            socket: socket.to_path_buf(),
            workers: 2,
            state: StateConfig {
                threads: 1,
                ..StateConfig::default()
            },
        };
        let server = Server::bind(cfg).map_err(|e| e.to_string())?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon {
            socket: socket.to_path_buf(),
            thread,
        })
    }

    fn stop(self) -> Result<(), String> {
        let mut c = Client::connect(&self.socket)?;
        c.shutdown()?;
        drop(c);
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| e.to_string())
    }
}

/// Stands a daemon up: bind, start, connect the clients, and answer the
/// base query once (generating the base workload).
fn set_up(socket: &Path, scn: &str) -> Result<(Daemon, Vec<Client>), String> {
    let d = Daemon::start(socket)?;
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        clients.push(Client::connect(socket)?);
    }
    let reply = clients[0].run(scn, &Overrides::default())?;
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("base query failed: {}", reply.render()));
    }
    Ok((d, clients))
}

/// The reply payload a client acts on.
fn payload(reply: &Json) -> Option<(String, String)> {
    let table = reply.get("table")?.as_str()?.to_string();
    let csv = reply.get("csv")?.as_str()?.to_string();
    Some((table, csv))
}

/// A finished query.
struct Done {
    class: Class,
    latency_s: f64,
    /// Completion instant, seconds since the measurement start.
    at_s: f64,
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    done: Vec<Done>,
    ops: Ops,
    /// `(overrides, table, csv)` of sampled novel and miss replies.
    samples: Vec<(Overrides, String, String)>,
}

fn client_loop(
    mut client: Client,
    mut stream: Stream,
    scn: &str,
    start: Instant,
    stop: &AtomicBool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut replies: VecDeque<(usize, (String, String))> = VecDeque::new();
    let mut fresh = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let (class, ov, repeats) = stream.next_query();
        let index = (stream.sent - 1) as usize;
        let t = Instant::now();
        let reply = client.run(scn, &ov);
        let latency_s = t.elapsed().as_secs_f64();
        let check = reply.and_then(|reply| {
            if reply.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!("error reply: {}", reply.render()));
            }
            let cached = reply.get("cached").and_then(Json::as_u64);
            let body = payload(&reply).ok_or("reply without table/csv")?;
            match repeats {
                Some(of) => {
                    if cached != Some(1) {
                        return Err("repeat was not answered from the result cache".into());
                    }
                    match replies.iter().find(|(i, _)| *i == of) {
                        Some((_, first)) if *first != body => {
                            Err("repeat reply differs from the first reply".into())
                        }
                        Some(_) => Ok(()),
                        None => Err("repeat of a query no longer remembered".into()),
                    }
                }
                None => {
                    if cached != Some(0) {
                        return Err(format!("{} query hit the result cache", class.name()));
                    }
                    if fresh.is_multiple_of(SAMPLE_EVERY) {
                        log.samples.push((ov, body.0.clone(), body.1.clone()));
                    }
                    fresh += 1;
                    if replies.len() == HISTORY {
                        replies.pop_front();
                    }
                    replies.push_back((index, body));
                    Ok(())
                }
            }
        });
        log.ops.record(class.name(), check);
        log.done.push(Done {
            class,
            latency_s,
            at_s: start.elapsed().as_secs_f64(),
        });
    }
    log
}

/// The one-shot answer to `ov` on the base scenario, rendered as the
/// daemon renders it.
fn one_shot(scn: &str, ov: &Overrides) -> Result<(String, String), String> {
    let mut set = ScenarioSet::parse(scn).map_err(|e| e.to_string())?;
    ov.apply(&mut set)?;
    set.base.output = OutputSpec::default();
    let cells = set.expand().map_err(|e| e.to_string())?;
    let rows: Vec<(String, Result<CellOutcome, String>)> = cells
        .iter()
        .map(|sc| {
            let out = sc
                .run()
                .map(|r| CellOutcome::of(&r))
                .map_err(|e| e.to_string());
            (sc.name.clone(), out)
        })
        .collect();
    let report = sweep_report(&rows);
    Ok((report.table, report.csv))
}

/// Runs the workload.
pub fn run(args: &RunArgs, work: &Path) -> Result<(Report, Ops), String> {
    let scn = base_scn(crate::expected::DEFAULT_SEED);
    // `work` is relative to the checkout, which keeps the socket path
    // under the 108-byte limit wherever the checkout lives.
    let socket = |k: usize| work.join(format!("serve-{}-{k}.sock", std::process::id()));
    let mut setups = Vec::new();
    let time_set_ups = |first: usize, setups: &mut Vec<f64>| -> Result<(), String> {
        for k in first..first + SETUPS_EACH_SIDE {
            let t = Instant::now();
            let (d, clients) = set_up(&socket(k), &scn)?;
            setups.push(t.elapsed().as_secs_f64());
            drop(clients);
            d.stop()?;
        }
        Ok(())
    };
    time_set_ups(0, &mut setups)?;
    let (daemon, clients) = set_up(&socket(SETUPS_EACH_SIDE), &scn)?;

    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let handles: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(c, client)| {
            let stream = Stream::new(args.seed, c as u64);
            let scn = scn.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || client_loop(client, stream, &scn, start, &stop))
        })
        .collect();
    std::thread::sleep(Duration::from_secs_f64(args.seconds));
    stop.store(true, Ordering::Relaxed);
    let logs: Vec<ClientLog> = handles
        .into_iter()
        .map(|h| {
            h.join().unwrap_or_else(|_| {
                let mut log = ClientLog::default();
                log.ops
                    .record("client", Err("client thread panicked".into()));
                log
            })
        })
        .collect();
    let measured_s = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let server_metrics = Client::connect(&daemon.socket).and_then(|mut c| c.metrics());
    daemon.stop()?;
    time_set_ups(SETUPS_EACH_SIDE + 1, &mut setups)?;

    let mut ops = Ops::default();
    let mut done: Vec<&Done> = Vec::new();
    let mut samples = Vec::new();
    for log in &logs {
        ops.attempted += log.ops.attempted;
        ops.failed += log.ops.failed;
        ops.reasons.extend(log.ops.reasons.iter().cloned());
        done.extend(log.done.iter());
        samples.extend(log.samples.iter());
    }
    for (ov, table, csv) in samples {
        let check = match one_shot(&scn, ov) {
            Ok((t, c)) if t == *table && c == *csv => Ok(()),
            Ok(_) => Err("reply differs from a one-shot run of the same cell".to_string()),
            Err(e) => Err(e),
        };
        ops.record("one-shot sample", check);
    }

    let mut report = Report::default();
    report.put("setup_s", median(&setups).unwrap_or(0.0), "s", setups.len());
    report.put("peak_rss_mb", rss, "MB", 1);
    let mut at: Vec<f64> = done.iter().map(|d| d.at_s).collect();
    at.sort_by(f64::total_cmp);
    let blocks: Vec<f64> = at
        .chunks_exact(BLOCK)
        .skip(1)
        .zip(at.chunks_exact(BLOCK))
        .map(|(b, a)| b[0] - a[0])
        .collect();
    report.put("round_s", median(&blocks).unwrap_or(0.0), "s", blocks.len());

    let mut lat_ms: Vec<f64> = done.iter().map(|d| d.latency_s * 1e3).collect();
    lat_ms.sort_by(f64::total_cmp);
    let n = lat_ms.len();
    let p50 = percentile(&lat_ms, 0.5);
    let p99 = percentile(&lat_ms, 0.99);
    report.put("serve_p50_ms", p50.unwrap_or(0.0), "ms", n);
    report.put("serve_p99_ms", p99.unwrap_or(0.0), "ms", n);
    report.put("serve_qps", n as f64 / measured_s, "1/s", n);
    ops.record(
        "latency sample",
        p99.map(|_| ())
            .ok_or(format!("{n} queries are too few for a p99")),
    );

    // The mix as sent, and as the daemon saw it.
    let share = |c: Class| done.iter().filter(|d| d.class == c).count() as f64 / n.max(1) as f64;
    let mut mix = Ok(());
    for (class, want) in [(Class::Repeat, 0.2), (Class::Miss, 0.1)] {
        if (share(class) - want).abs() > SHARE_TOLERANCE {
            mix = Err(format!(
                "{} share {:.3}, intended {want}",
                class.name(),
                share(class)
            ));
        }
    }
    match &server_metrics {
        Ok(m) => {
            let num = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let (hits, misses) = (num("result_hits"), num("result_misses"));
            let (w_hits, w_misses) = (num("workload_hits"), num("workload_misses"));
            let hit_frac = hits / (hits + misses).max(1.0);
            let repeats = done.iter().filter(|d| d.class == Class::Repeat).count() as f64;
            if hits != repeats {
                mix = Err(format!("{hits} result-cache hits for {repeats} repeats"));
            }
            report.put("serve.result_hit_frac", hit_frac, "frac", 1);
            report.put(
                "serve.workload_hit_frac",
                w_hits / (w_hits + w_misses).max(1.0),
                "frac",
                1,
            );
            report.put(
                "serve.evictions",
                num("result_evictions") + num("workload_evictions"),
                "count",
                1,
            );
            // The daemon's histogram has power-of-two buckets, so its p50
            // is a bucket bound; the transport share uses exact means.
            let run = m.get("latency").and_then(|l| l.get("run"));
            let field = |k: &str| {
                run.and_then(|r| r.get(k))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            report.put("serve.server_p50_ms", field("p50_us") * 1e-3, "ms", n);
            let server_mean_ms = field("sum_us") * 1e-3 / field("count").max(1.0);
            let client_mean_ms = lat_ms.iter().sum::<f64>() / n.max(1) as f64;
            report.put(
                "serve.transport_mean_ms",
                client_mean_ms - server_mean_ms,
                "ms",
                n,
            );
        }
        Err(e) => mix = Err(format!("metrics op failed: {e}")),
    }
    ops.record("query mix", mix);
    for class in Class::ALL {
        let mut v: Vec<f64> = done
            .iter()
            .filter(|d| d.class == class)
            .map(|d| d.latency_s * 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        report.put(
            format!("serve.client_p50_ms.{}", class.name()),
            percentile(&v, 0.5).unwrap_or(0.0),
            "ms",
            v.len(),
        );
    }
    Ok((report, ops))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_and_mixed_as_intended() {
        let draw = |seed| {
            let mut s = Stream::new(seed, 0);
            (0..5000).map(|_| s.next_query()).collect::<Vec<_>>()
        };
        let a = draw(2010);
        assert_eq!(
            a.iter().map(|q| format!("{q:?}")).collect::<Vec<_>>(),
            draw(2010)
                .iter()
                .map(|q| format!("{q:?}"))
                .collect::<Vec<_>>()
        );
        let share = |c: Class| a.iter().filter(|q| q.0 == c).count() as f64 / a.len() as f64;
        assert!((share(Class::Repeat) - 0.2).abs() < 0.02);
        assert!((share(Class::Miss) - 0.1).abs() < 0.02);
    }

    #[test]
    fn repeats_point_at_an_earlier_fresh_query_with_the_same_overrides() {
        let mut s = Stream::new(7, 1);
        let qs: Vec<_> = (0..2000).map(|_| s.next_query()).collect();
        for (i, (class, ov, of)) in qs.iter().enumerate() {
            match (class, of) {
                (Class::Repeat, Some(j)) => {
                    assert!(*j < i);
                    assert!(i - j < 2000);
                    assert_ne!(qs[*j].0, Class::Repeat);
                    assert_eq!(&qs[*j].1, ov);
                }
                (_, None) => {}
                other => panic!("inconsistent query {other:?}"),
            }
        }
    }

    #[test]
    fn fresh_queries_never_collide_across_clients() {
        let mut seen = std::collections::BTreeSet::new();
        for c in 0..CLIENTS {
            let mut s = Stream::new(2010, c);
            for _ in 0..3000 {
                let (class, ov, _) = s.next_query();
                if class != Class::Repeat {
                    assert!(
                        seen.insert(format!("{ov:?}")),
                        "duplicate fresh query {ov:?}"
                    );
                }
            }
        }
    }
}
