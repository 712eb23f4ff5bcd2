//! Cross-commit pin of what the daemon puts on the wire, and of the
//! keys it names artifacts by.
//!
//! A scripted conversation with [`Server::start`] over real sockets —
//! every endpoint kind, every error class the router can produce, a
//! close, and a pipelined burst — is held to the
//! [`msc_cache::content_key`] of each response (status line + headers +
//! body, with the `timings_us` numbers masked — they are wall-clock — and
//! the `key` digits masked and checked against [`job_key`] instead: the
//! key folds in `MSC_MEMORY_BUDGET`, which one CI leg sets), and to the
//! counters the conversation leaves on the registry. The digests
//! were captured on the commit *before* the reactor learned to answer
//! resident compiles itself, so which thread answers is pinned to be
//! invisible from outside.
//!
//! `job_key` literals ride along (at a pinned `memory_budget`): keys
//! name on-disk artifacts across restarts, and every other test only
//! compares keys with each other.

use msc_engine::{job_key, Job};
use msc_serve::{ServeOptions, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const PROG: &str = "main() { poly int x; x = pe_id() * 2 + 1; return(x); }";
const NEVER_SEEN: &str = "main() { poly int y; y = pe_id() * 3 + 2; return(y); }";

fn post(path: &str, content_type: &str, extra: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: msc-serve\r\nContent-Type: {content_type}\r\n\
         {extra}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn compile(source: &str, extra: &str) -> Vec<u8> {
    post(
        "/compile",
        "application/json",
        extra,
        &format!(r#"{{"source":{source:?}}}"#),
    )
}

/// One response off the socket, verbatim: head through the blank line,
/// then `Content-Length` bytes.
fn read_response(reader: &mut BufReader<TcpStream>) -> Option<String> {
    let mut head = String::new();
    let mut length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).ok()? == 0 {
            return None;
        }
        if let Some(v) = line.strip_prefix("Content-Length: ") {
            length = v.trim().parse().ok()?;
        }
        head.push_str(&line);
        if line == "\r\n" {
            break;
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).ok()?;
    Some(head + std::str::from_utf8(&body).ok()?)
}

/// Replace every number inside the `timings_us` object and the 32 key
/// digits with `#`, and restate `Content-Length` for the masked body so
/// a timing that gains a digit does not move the digest.
fn mask(response: &str) -> String {
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("a response has a head");
    let Some(at) = body.find("\"timings_us\":{") else {
        return response.to_string();
    };
    let end = at + body[at..].find('}').expect("the object closes");
    let mut masked = body[..at].replace(&format!("\"{}\"", key_of(body)), "\"#\"");
    let mut in_number = false;
    for ch in body[at..end].chars() {
        if ch.is_ascii_digit() {
            if !in_number {
                masked.push('#');
            }
            in_number = true;
        } else {
            in_number = false;
            masked.push(ch);
        }
    }
    masked.push_str(&body[end..]);
    let head: Vec<String> = head
        .split("\r\n")
        .map(|line| match line.strip_prefix("Content-Length: ") {
            Some(_) => format!("Content-Length: {}", masked.len()),
            None => line.to_string(),
        })
        .collect();
    head.join("\r\n") + "\r\n\r\n" + &masked
}

/// The `key` member of a `/compile` response.
fn key_of(response: &str) -> &str {
    let at = response.find("\"key\":\"").expect("a compile response") + "\"key\":\"".len();
    &response[at..at + 32]
}

fn digest(response: &str) -> String {
    msc_cache::content_key("wire", &[mask(response).as_bytes()]).hex()
}

#[test]
fn the_conversation_reads_the_same_byte_for_byte() {
    let handle = Server::start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 8,
        ..ServeOptions::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.local_addr().to_string();
    let connect = || {
        let s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.set_nodelay(true).unwrap();
        let reader = BufReader::new(s.try_clone().unwrap());
        (s, reader)
    };
    let mut got: Vec<(&str, String)> = Vec::new();

    // One keep-alive connection, one request at a time.
    let (mut s, mut reader) = connect();
    let run_body = format!(r#"{{"source":{PROG:?},"pes":4}}"#);
    let script: Vec<(&str, Vec<u8>)> = vec![
        ("compile cold", compile(PROG, "")),
        ("compile warm", compile(PROG, "")),
        ("run", post("/run", "application/json", "", &run_body)),
        (
            "match",
            post(
                "/match",
                "application/json",
                "",
                r#"{"pattern":"ab+","shards":["xab","bya"]}"#,
            ),
        ),
        (
            "bad json",
            post("/compile", "application/json", "", "{\"source\":"),
        ),
        (
            "wrong content type",
            post("/compile", "text/plain", "", r#"{"source":"x"}"#),
        ),
        ("not found", b"GET /nope HTTP/1.1\r\n\r\n".to_vec()),
        (
            "method not allowed",
            b"DELETE /compile HTTP/1.1\r\n\r\n".to_vec(),
        ),
        (
            "compile warm, close",
            compile(PROG, "Connection: close\r\n"),
        ),
    ];
    for (label, request) in script {
        s.write_all(&request).unwrap();
        let response = read_response(&mut reader).unwrap_or_else(|| panic!("{label}: no answer"));
        got.push((label, response));
    }
    assert!(
        read_response(&mut reader).is_none(),
        "the daemon closes after `Connection: close`"
    );

    // An oversized declared body is refused from the head alone.
    let (mut s, mut reader) = connect();
    s.write_all(
        b"POST /compile HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 99999999\r\n\r\n",
    )
    .unwrap();
    got.push(("oversized body", read_response(&mut reader).unwrap()));
    assert!(read_response(&mut reader).is_none(), "413 closes");

    // Three hits with one never-seen source between them, in one write.
    let (mut s, mut reader) = connect();
    let mut burst = compile(PROG, "");
    burst.extend(compile(NEVER_SEEN, ""));
    burst.extend(compile(PROG, ""));
    burst.extend(compile(PROG, "Connection: close\r\n"));
    s.write_all(&burst).unwrap();
    for label in [
        "pipelined hit 1",
        "pipelined never-seen",
        "pipelined hit 2",
        "pipelined hit 3, close",
    ] {
        let response = read_response(&mut reader).unwrap_or_else(|| panic!("{label}: no answer"));
        got.push((label, response));
    }
    assert!(
        read_response(&mut reader).is_none(),
        "the burst ends closed"
    );

    let want = [
        ("compile cold", "401d5035738c30f6ee83f0038094b07f"),
        ("compile warm", "97bdc0ec644e52d5021df65e4538e02a"),
        ("run", "b6240b7719c2730cf7091f0a66f30e99"),
        ("match", "f32f825f12c3bcec6df1d1b0ee013b9f"),
        ("bad json", "20ddfe36369659ea62ad4eb1339ba965"),
        ("wrong content type", "ce803b2cc7a842e99a2abf5faa574b75"),
        ("not found", "8df3144f8b03a4891c55c193ec3decb5"),
        ("method not allowed", "1868a5bc39d865d08d874b6500a15ce5"),
        ("compile warm, close", "91844dc8bc6b5ebf5ba2c40d43b18f24"),
        ("oversized body", "aa3ca5cc989cbf1881d13f2c57319b9d"),
        ("pipelined hit 1", "97bdc0ec644e52d5021df65e4538e02a"),
        ("pipelined never-seen", "401d5035738c30f6ee83f0038094b07f"),
        ("pipelined hit 2", "97bdc0ec644e52d5021df65e4538e02a"),
        ("pipelined hit 3, close", "91844dc8bc6b5ebf5ba2c40d43b18f24"),
    ];
    let digests: Vec<(&str, String)> = got.iter().map(|(l, r)| (*l, digest(r))).collect();
    let moved: Vec<String> = got
        .iter()
        .zip(&digests)
        .zip(want)
        .filter(|((_, (label, digest)), want)| (*label, digest.as_str()) != *want)
        .map(|(((_, response), _), _)| mask(response))
        .collect();
    assert!(
        moved.is_empty() && got.len() == want.len(),
        "the wire moved; digests now {digests:#?}\nmasked responses that moved:\n{}",
        moved.join("\n----\n")
    );

    // The masked digits are the job's key, whatever the environment
    // makes it.
    let (prog_key, never_seen_key) = (
        job_key(&Job::new("request", PROG)).hex(),
        job_key(&Job::new("request", NEVER_SEEN)).hex(),
    );
    for (label, response) in &got {
        if response.contains("\"key\":") {
            let want = match *label {
                "pipelined never-seen" => &never_seen_key,
                _ => &prog_key,
            };
            assert_eq!(key_of(response), want, "{label}");
        }
    }

    // What the conversation leaves on the registry. The daemon learns of
    // the last close asynchronously: wait for it.
    let registry = handle.registry();
    let deadline = Instant::now() + Duration::from_secs(5);
    while registry.snapshot().counter("serve.conn_state.closed") < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let counters = registry.snapshot();
    let want = [
        ("cache.hit", 6u64),
        ("cache.miss", 2),
        ("cache.insert", 2),
        ("serve.requests", 9),
        ("serve.http_error", 5),
        ("serve.accepted", 3),
        ("serve.shed", 0),
        ("serve.conn_state.reading_head", 14),
        ("serve.conn_state.reading_body", 0),
        ("serve.conn_state.executing", 13),
        ("serve.conn_state.writing", 14),
        ("serve.conn_state.keep_alive", 11),
        ("serve.conn_state.closed", 3),
    ];
    let now = want.map(|(name, _)| (name, counters.counter(name)));
    assert_eq!(now, want, "the conversation's counters moved");
    handle.shutdown();
}

#[test]
fn job_keys_are_the_literals_artifacts_are_filed_under() {
    let default = Job::new("request", PROG);
    let mut compressed = Job::new("request", PROG);
    compressed.convert = msc_core::ConvertOptions::compressed();
    let mut optimized = Job::new("request", PROG);
    optimized.optimize = true;
    optimized.minimize = true;
    let mut jobs = [default, compressed, optimized];
    for job in &mut jobs {
        // `MSC_MEMORY_BUDGET` is part of the options, so of the key.
        job.convert.memory_budget = None;
    }
    let [default, compressed, optimized] = jobs;
    let now = [&default, &compressed, &optimized].map(|job| job_key(job).hex());
    assert_eq!(
        now,
        [
            "f2c06325354c3d1222f7a67285740c5e",
            "1deab2d166ac5f7431dd35061ebd9c99",
            "a2fdab3d5891eccb4dacb95c46fc09fe"
        ],
        "default, compressed, optimize + minimize"
    );
}
