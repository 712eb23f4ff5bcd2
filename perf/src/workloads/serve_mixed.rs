//! `serve_mixed`: an in-process daemon under a closed loop of `nproc`
//! keep-alive clients — callers of a compile daemon each wait for their
//! reply — sending a seeded 70/10/10/10 mix of warm compiles, never-seen
//! compiles, `/run`s and `/match`es. `serve::{reactor, conn, http, api}`,
//! `obs::json`, the `engine` hit path and `cache` do the work;
//! convert/codegen appear only on the 10 % misses — the mirror image of
//! `compile_cold`.
//!
//! Two clients, not eighty: on a two-core box a larger closed loop
//! measures the scheduler (BENCH_serve's 80 clients mostly do), and load
//! generation must never use more than `nproc` threads or connections.
//!
//! The whole process — clients, reactor, workers — is confined to one
//! CPU. Across the sandbox's two virtual CPUs every wake-up of the
//! request path (client → reactor → worker → reactor → client) crosses
//! the hypervisor, at a price that swings with the host: unconfined, the
//! same commit served 7 k to 17 k requests/s over an hour, 95 % of a warm
//! compile's latency was transport, and two back-to-back runs differed by
//! 20–30 %. Confined, it serves 24 k requests/s, runs repeat to 1 %, and
//! the daemon's own code is a share of the latency that a change to it
//! can move. Two requests are still in flight and two workers still
//! contend for them; what is given up is their running in parallel.

use super::reference_results;
use crate::gen::{one_liner_source, Digest, Haystack, SplitMix64};
use crate::harness::{confine_to_one_cpu, percentile_ms, Ledger, Tracer, Workload};
use msc_engine::{job_key, CompileCache};
use msc_obs::json::{self, Json};
use msc_regex::Regex;
use msc_serve::client::Client;
use msc_serve::http::{self, Limits, Poll, PushParser};
use msc_serve::{api, ServeOptions, Server, ServerHandle};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub const NAME: &str = "serve_mixed";

/// Requests each client sends per pass, split 70/10/10/10.
const REQUESTS_PER_CLIENT: usize = 4000;
const POOL: usize = 8;
const RUN_PES: usize = 64;
const MATCH_PATTERN: &str = "a[bc]+x";
const MATCH_SHARD_BYTES: usize = 4 << 10;
const MAX_META_STATES: usize = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    CompileHit,
    CompileMiss,
    Run,
    Match,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::CompileHit, Kind::CompileMiss, Kind::Run, Kind::Match];

    fn path(self) -> &'static str {
        match self {
            Kind::CompileHit | Kind::CompileMiss => "/compile",
            Kind::Run => "/run",
            Kind::Match => "/match",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Kind::CompileHit => "serve.compile_hit",
            Kind::CompileMiss => "serve.compile_miss",
            Kind::Run => "serve.run",
            Kind::Match => "serve.match",
        }
    }

    fn percentile_names(self) -> (&'static str, &'static str) {
        match self {
            Kind::CompileHit => ("serve.compile_hit.ms_p50", "serve.compile_hit.ms_p99"),
            Kind::CompileMiss => ("serve.compile_miss.ms_p50", "serve.compile_miss.ms_p99"),
            Kind::Run => ("serve.run.ms_p50", "serve.run.ms_p99"),
            Kind::Match => ("serve.match.ms_p50", "serve.match.ms_p99"),
        }
    }
}

/// One planned request: its kind and, for pool requests, which source.
#[derive(Debug, Clone, Copy)]
struct Planned {
    kind: Kind,
    pool: usize,
}

/// One answered request, as the client saw it.
struct Answer {
    sent: Instant,
    done: Instant,
    /// Status and body; `None` when the connection failed.
    reply: Option<(u16, String)>,
}

/// Everything the seed decides.
struct Inputs {
    pool: Vec<String>,
    compile_bodies: Vec<String>,
    run_bodies: Vec<String>,
    shard: String,
    match_body: String,
    /// Per client, the seeded request order (the same every pass).
    plan: Vec<Vec<Planned>>,
}

impl Inputs {
    fn generate(seed: u64, clients: usize) -> Inputs {
        let mut rng = SplitMix64::new(seed, 2);
        let pool: Vec<String> = (0..POOL)
            .map(|i| one_liner_source(i, (i as u64 / 4) * 1000 + rng.below(1000)))
            .collect();
        let compile_bodies = pool.iter().map(|s| compile_body(s)).collect();
        let run_bodies = pool
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("source", Json::from(s.as_str())),
                    ("pes", Json::from(RUN_PES)),
                ])
                .render()
            })
            .collect();
        let shard = String::from_utf8(Haystack::Dense.generate(seed, MATCH_SHARD_BYTES))
            .expect("the alphabet is ASCII");
        let match_body = Json::obj(vec![
            ("pattern", Json::from(MATCH_PATTERN)),
            ("shards", Json::from(vec![Json::from(shard.as_str())])),
        ])
        .render();
        let plan = (0..clients)
            .map(|_| {
                let mut plan: Vec<Planned> = (0..REQUESTS_PER_CLIENT)
                    .map(|i| Planned {
                        kind: match i % 10 {
                            0 => Kind::CompileMiss,
                            1 => Kind::Run,
                            2 => Kind::Match,
                            _ => Kind::CompileHit,
                        },
                        pool: rng.below(POOL as u64) as usize,
                    })
                    .collect();
                rng.shuffle(&mut plan);
                plan
            })
            .collect();
        Inputs {
            pool,
            compile_bodies,
            run_bodies,
            shard,
            match_body,
            plan,
        }
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for body in self.compile_bodies.iter().chain(&self.run_bodies) {
            d.field(body.as_bytes());
        }
        d.field(self.match_body.as_bytes());
        d.field(miss_source(0).as_bytes());
        for plan in &self.plan {
            for p in plan {
                d.bytes(&[p.kind as u8, p.pool as u8]);
            }
        }
        d.finish()
    }
}

pub struct ServeMixed {
    server: Option<ServerHandle>,
    clients: Vec<Client>,
    inputs: Inputs,
    expected_run: Vec<Vec<i64>>,
    expected_matches: u64,
    /// Miss sources sent so far; each must be new to the daemon.
    misses_sent: u64,
    answers: Vec<Vec<Answer>>,
}

fn compile_body(source: &str) -> String {
    Json::obj(vec![("source", Json::from(source))]).render()
}

/// The `n`-th never-seen source: one more daemon-style one-liner, salted
/// past every pool salt.
fn miss_source(n: u64) -> String {
    one_liner_source(1, 1_000_000 + n)
}

/// The bytes `serve::client::Client` puts on the wire for a POST.
fn wire_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: msc-serve\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

impl ServeMixed {
    fn server(&self) -> &ServerHandle {
        self.server.as_ref().expect("the daemon runs until drop")
    }

    /// One closed-loop pass: every client works through its plan.
    fn drive(&mut self) -> Duration {
        let first_miss = self.misses_sent;
        let misses_per_client = (REQUESTS_PER_CLIENT / 10) as u64;
        self.misses_sent += misses_per_client * self.clients.len() as u64;
        let miss_bodies: Vec<Vec<String>> = (0..self.clients.len() as u64)
            .map(|c| {
                (0..misses_per_client)
                    .map(|i| compile_body(&miss_source(first_miss + c * misses_per_client + i)))
                    .collect()
            })
            .collect();
        let (compile, run, matching) = (
            &self.inputs.compile_bodies,
            &self.inputs.run_bodies,
            &self.inputs.match_body,
        );
        let start = Instant::now();
        self.answers = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&self.inputs.plan)
                .zip(&miss_bodies)
                .map(|((client, plan), misses)| {
                    s.spawn(move || {
                        let mut misses = misses.iter();
                        let mut answers = Vec::with_capacity(plan.len());
                        for p in plan {
                            let body = match p.kind {
                                Kind::CompileHit => &compile[p.pool],
                                Kind::CompileMiss => misses.next().expect("one body per miss"),
                                Kind::Run => &run[p.pool],
                                Kind::Match => matching,
                            };
                            let sent = Instant::now();
                            let reply = client.request("POST", p.kind.path(), Some(body));
                            let done = Instant::now();
                            answers.push(Answer {
                                sent,
                                done,
                                reply: reply.ok().map(|r| (r.status, r.body)),
                            });
                        }
                        answers
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        start.elapsed()
    }

    fn answer_ok(&self, planned: Planned, reply: &Option<(u16, String)>) -> bool {
        let Some((200, body)) = reply else {
            return false;
        };
        let Ok(v) = json::parse(body) else {
            return false;
        };
        let provenance = v.get("provenance").and_then(Json::as_str);
        match planned.kind {
            Kind::CompileHit => matches!(provenance, Some("memory" | "coalesced")),
            Kind::CompileMiss => provenance == Some("fresh"),
            Kind::Run => {
                let results: Option<Vec<i64>> = v
                    .get("results")
                    .and_then(Json::as_arr)
                    .map(|a| a.iter().filter_map(Json::as_i64).collect());
                results.as_ref() == Some(&self.expected_run[planned.pool])
            }
            Kind::Match => {
                v.get("total_matches").and_then(Json::as_u64) == Some(self.expected_matches)
            }
        }
    }
}

impl Drop for ServeMixed {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Workload for ServeMixed {
    const NAME: &'static str = NAME;

    fn setup(seed: u64) -> Self {
        let nproc = crate::nproc();
        confine_to_one_cpu();
        let inputs = Inputs::generate(seed, nproc);
        let expected_run = inputs
            .pool
            .iter()
            .map(|s| reference_results(s, RUN_PES))
            .collect();
        let expected_matches = Regex::new(MATCH_PATTERN)
            .expect("benchmark pattern compiles")
            .find_all(inputs.shard.as_bytes())
            .len() as u64;

        let server = Server::start(ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: nproc,
            engine_threads: 1,
            queue_depth: 256,
            cache_dir: None,
            max_meta_states: MAX_META_STATES,
            ..ServeOptions::default()
        })
        .expect("the daemon binds an ephemeral local port");
        let addr = server.local_addr().to_string();
        let mut clients: Vec<Client> = (0..nproc)
            .map(|_| Client::connect(&addr).expect("connect to the in-process daemon"))
            .collect();
        // Warm every cache the hit path reads: artifacts and the pattern.
        let warm = inputs
            .compile_bodies
            .iter()
            .map(|b| ("/compile", b))
            .chain([("/match", &inputs.match_body)]);
        for (path, body) in warm {
            let r = clients[0]
                .request("POST", path, Some(body))
                .expect("warm-up request");
            assert_eq!(r.status, 200, "warm-up failed: {}", r.body);
        }
        ServeMixed {
            server: Some(server),
            clients,
            inputs,
            expected_run,
            expected_matches,
            misses_sent: 0,
            answers: Vec::new(),
        }
    }

    fn input_digest(&self) -> u64 {
        self.inputs.digest()
    }

    fn ops(&self) -> usize {
        self.inputs.plan.iter().map(Vec::len).sum()
    }

    fn pass(&mut self, latencies: &mut Vec<u64>) -> Duration {
        let wall = self.drive();
        latencies.extend(
            self.answers
                .iter()
                .flatten()
                .map(|a| (a.done - a.sent).as_nanos() as u64),
        );
        wall
    }

    fn check(&mut self, doctor: bool) -> usize {
        if doctor {
            // Corrupt one `/run` reply: the first client's first.
            let first_run = self.inputs.plan[0].iter().position(|p| p.kind == Kind::Run);
            if let Some((_, body)) = first_run.and_then(|i| self.answers[0][i].reply.as_mut()) {
                *body = body.replacen("\"results\":[", "\"results\":[7,", 1);
            }
        }
        let mut failed = self
            .inputs
            .plan
            .iter()
            .zip(&self.answers)
            .flat_map(|(plan, answers)| plan.iter().zip(answers))
            .filter(|(p, a)| !self.answer_ok(**p, &a.reply))
            .count();
        // A shed connection would already read as a failed request; the
        // counter catches one the clients never saw.
        if failed == 0 && self.server().registry().snapshot().counter("serve.shed") > 0 {
            failed = 1;
        }
        failed
    }

    fn traced_pass(&mut self, tr: &mut Tracer, ledger: &mut Ledger) -> Duration {
        // 1. The clients' view: one span per request, named by kind.
        let mirrored = self.drive();
        tr.add_lane_time(mirrored * (self.clients.len() as u32 - 1));
        for (op, (p, a)) in self
            .inputs
            .plan
            .iter()
            .zip(&self.answers)
            .flat_map(|(plan, answers)| plan.iter().zip(answers))
            .enumerate()
        {
            tr.push(p.kind.span(), op as u32, a.sent, a.done);
        }
        for kind in Kind::ALL {
            let mut ns: Vec<u64> = tr
                .spans
                .iter()
                .filter(|s| s.name == kind.span())
                .map(|s| s.ns())
                .collect();
            ns.sort_unstable();
            let (p50, p99) = kind.percentile_names();
            ledger.insert(p50, percentile_ms(&ns, 50.0));
            ledger.insert(p99, percentile_ms(&ns, 99.0));
        }

        // 2. The daemon's own counters, read the way an operator would.
        let metrics = tr.leaf("serve.metrics_get", 0, || {
            self.clients[0].get("/metrics").ok().and_then(|r| r.json())
        });
        let counter = |name: &str| {
            metrics
                .as_ref()
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get(name))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let (hits, misses) = (counter("cache.hit"), counter("cache.miss"));
        ledger.insert("serve.shed", counter("serve.shed"));
        ledger.insert("cache.hit_ratio", hits / (hits + misses));
        ledger.insert("engine.coalesced", counter("engine.coalesced"));
        ledger.insert(
            "serve.wakeups_per_req",
            counter("serve.epoll_wakeups") / counter("serve.requests"),
        );

        // 3. Each layer under the socket, called directly with the same
        // request bytes, one span per call.
        const CALLS: u32 = 2000;
        fn per_call(
            tr: &mut Tracer,
            name: &'static str,
            calls: u32,
            f: &mut dyn FnMut(u32),
        ) -> f64 {
            for i in 0..calls {
                tr.leaf(name, i, || f(i));
            }
            tr.total_ms(name) * 1e3 / calls as f64
        }
        let server = self.server.as_ref().expect("the daemon runs until drop");
        let (engine, regex) = (server.engine(), server.regex());
        let limits = Limits::default();
        let hit_body = &self.inputs.compile_bodies[0];
        let hit_wire = wire_request("/compile", hit_body);
        let hit_json = json::parse(hit_body).expect("own request body");
        let run_json = json::parse(&self.inputs.run_bodies[0]).expect("own request body");
        let match_json = json::parse(&self.inputs.match_body).expect("own request body");
        let hit_job =
            api::job_from_json(&hit_json, "request", MAX_META_STATES).expect("own request decodes");
        let response = api::compile(engine, &hit_json, MAX_META_STATES).expect("warm compile");
        let rendered = response.render();

        let parse_us = per_call(tr, "serve.http.parse", CALLS, &mut |_| {
            let mut parser = PushParser::new();
            parser.feed(black_box(&hit_wire));
            assert!(matches!(parser.poll(&limits), Ok(Poll::Ready(_))));
        });
        let json_parse_us = per_call(tr, "obs.json.parse", CALLS, &mut |_| {
            black_box(json::parse(black_box(hit_body)).is_ok());
        });
        let api_hit_us = per_call(tr, "serve.api.compile_hit", CALLS, &mut |_| {
            black_box(api::compile(engine, &hit_json, MAX_META_STATES).is_ok());
        });
        let render_us = per_call(tr, "obs.json.render", CALLS, &mut |_| {
            black_box(black_box(&response).render());
        });
        let mut sink = Vec::with_capacity(1024);
        let write_us = per_call(tr, "serve.http.write", CALLS, &mut |_| {
            sink.clear();
            http::write_response(
                &mut sink,
                200,
                "OK",
                true,
                &[],
                "application/json",
                rendered.as_bytes(),
            )
            .expect("writing to memory");
            black_box(&sink);
        });
        let first_miss = self.misses_sent;
        self.misses_sent += (CALLS / 10) as u64;
        let miss_jsons: Vec<Json> = (0..(CALLS / 10) as u64)
            .map(|i| Json::obj(vec![("source", Json::from(miss_source(first_miss + i)))]))
            .collect();
        let api_miss_us = per_call(tr, "serve.api.compile_miss", CALLS / 10, &mut |i| {
            black_box(api::compile(engine, &miss_jsons[i as usize], MAX_META_STATES).is_ok());
        });
        let api_run_us = per_call(tr, "serve.api.run", CALLS, &mut |_| {
            black_box(api::run(engine, &run_json, MAX_META_STATES).is_ok());
        });
        let api_match_us = per_call(tr, "serve.api.match", CALLS, &mut |_| {
            black_box(api::find_matches(regex, &match_json).is_ok());
        });
        let engine_hit_us = per_call(tr, "engine.compile.hit", CALLS, &mut |_| {
            black_box(engine.compile(black_box(&hit_job)).is_ok());
        });
        // `engine::CompileCache` on the real artifacts of the pool.
        let artifacts: Vec<_> = self
            .inputs
            .pool
            .iter()
            .map(|src| {
                let job = msc_engine::Job::new("request", src.as_str());
                let compiled = engine.compile(&job).expect("pool sources compile");
                (job_key(&job), compiled.artifact)
            })
            .collect();
        let cache = CompileCache::new(128, None);
        let insert_us = per_call(tr, "cache.insert", CALLS, &mut |i| {
            let (key, artifact) = &artifacts[i as usize % POOL];
            cache.insert(*key, artifact.clone());
        });
        let probe_us = per_call(tr, "cache.probe", CALLS, &mut |i| {
            let (key, _) = &artifacts[i as usize % POOL];
            black_box(cache.probe(*key, &hit_job.gen.costs).is_some());
        });

        ledger.insert("serve.http.parse_us", parse_us);
        ledger.insert("obs.json.parse_us", json_parse_us);
        ledger.insert("obs.json.render_us", render_us);
        ledger.insert("serve.api.compile_hit_us", api_hit_us);
        ledger.insert("serve.api.compile_miss_us", api_miss_us);
        ledger.insert("serve.api.run_us", api_run_us);
        ledger.insert("serve.api.match_us", api_match_us);
        ledger.insert("engine.compile.hit_us", engine_hit_us);
        ledger.insert("cache.probe_us", probe_us);
        ledger.insert("cache.insert_us", insert_us);
        ledger.insert("serve.http.write_us", write_us);
        // What the client's median warm compile spends outside the layers
        // above: reactor, queue hand-off, kernel and the client itself.
        ledger.insert(
            "serve.transport_us",
            ledger["serve.compile_hit.ms_p50"] * 1e3
                - parse_us
                - json_parse_us
                - api_hit_us
                - render_us
                - write_us,
        );
        mirrored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_70_10_10_10_and_seeded() {
        let inputs = Inputs::generate(1, 2);
        for plan in &inputs.plan {
            for (kind, share) in Kind::ALL.iter().zip([7, 1, 1, 1]) {
                let n = plan.iter().filter(|p| p.kind == *kind).count();
                assert_eq!(n, REQUESTS_PER_CLIENT * share / 10);
            }
        }
        // Pinned for two clients, whatever machine runs the test.
        assert_eq!(inputs.digest(), 0xd3ae_b8a6_fc36_a8b5);
        assert_ne!(Inputs::generate(2, 2).digest(), inputs.digest());
    }
}
