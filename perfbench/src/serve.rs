//! The `serve_mixed` client side: the closed-loop load generator that
//! drives a black-box `gcs serve` daemon, and the in-process measurements
//! of the serve crate's request path (wire parse, hot submit, cold
//! execution) that split a request's latency into layers.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gcs_serve::wire::RequestParser;
use gcs_serve::{JobKind, Scheduler, ServeConfig, Submission};

use crate::json::Obj;

/// SplitMix64: the generator's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The `index`-th fresh single-job `kind=run` spec for `seed`. Distinct
/// indices give distinct job seeds, so every fresh spec misses the cache.
pub fn cold_spec(seed: u64, index: u64) -> String {
    const TOPOLOGIES: [&str; 4] = ["path:8", "ring:8", "grid:3x3", "tree:7"];
    const ALGOS: [&str; 2] = ["aopt", "mingap"];
    let mut rng = Rng::new(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let pick = rng.next_u64();
    let topology = TOPOLOGIES[(pick % 4) as usize];
    let algo = ALGOS[((pick >> 8) % 2) as usize];
    let job_seed = (seed % 1_000_000) * 10_000_000 + index;
    format!(
        "topologies = {topology}\nalgos = {algo}\nseeds = {job_seed}..{}\nhorizon = 30\n",
        job_seed + 1
    )
}

/// The exact bytes the generator sends for a `wait=1` submission.
pub fn request_bytes(spec: &str) -> Vec<u8> {
    format!(
        "POST /v1/jobs?kind=run&wait=1 HTTP/1.1\r\nhost: gcs\r\nconnection: close\r\n\
         content-length: {}\r\n\r\n{spec}",
        spec.len()
    )
    .into_bytes()
}

/// One request's client-side spans.
struct Sample {
    connect: Duration,
    ttfb: Duration,
    total: Duration,
    done: Instant,
}

/// Status and de-chunked body of a response.
fn parse_response(raw: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header terminator")?;
    let head = std::str::from_utf8(&raw[..end]).map_err(|_| "non-UTF-8 response head")?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    let chunked = head.lines().any(|l| {
        l.to_ascii_lowercase()
            .starts_with("transfer-encoding: chunked")
    });
    let mut rest = &raw[end + 4..];
    if !chunked {
        return Ok((status, rest.to_vec()));
    }
    let mut body = Vec::new();
    loop {
        let line_end = rest
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("truncated chunk size")?;
        let size_text = std::str::from_utf8(&rest[..line_end]).map_err(|_| "bad chunk size")?;
        let size = usize::from_str_radix(size_text.trim(), 16).map_err(|_| "bad chunk size")?;
        rest = &rest[line_end + 2..];
        if size == 0 {
            return Ok((status, body));
        }
        if rest.len() < size + 2 {
            return Err("truncated chunk".into());
        }
        body.extend_from_slice(&rest[..size]);
        rest = &rest[size + 2..];
    }
}

/// Sends one request on a fresh connection and reads the response to EOF
/// (streamed results end the connection, so none can be kept alive).
fn send(addr: &str, request: &[u8]) -> Result<(Sample, u16, Vec<u8>), String> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let connect = started.elapsed();
    stream
        .write_all(request)
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::with_capacity(4096);
    let mut buf = [0u8; 16 * 1024];
    let mut ttfb = None;
    loop {
        let n = stream.read(&mut buf).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            break;
        }
        ttfb.get_or_insert_with(|| started.elapsed());
        raw.extend_from_slice(&buf[..n]);
    }
    let done = Instant::now();
    let total = done - started;
    reset(stream);
    let (status, body) = parse_response(&raw)?;
    let sample = Sample {
        connect,
        ttfb: ttfb.unwrap_or(total),
        total,
        done,
    };
    Ok((sample, status, body))
}

/// Closes a connection the daemon has already closed with a reset rather
/// than a FIN. The daemon's side then ends at once instead of lingering in
/// TIME_WAIT for a minute: at ~10k requests a second, those entries would
/// fill the loopback port range and slow the connections of later runs.
fn reset(stream: TcpStream) {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct Linger {
        onoff: i32,
        seconds: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    // Linux values.
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        onoff: 1,
        seconds: 0,
    };
    // SAFETY: the descriptor belongs to `stream`, which stays open for the
    // whole call; `value` points to a live `struct linger` whose size is
    // the length passed. A failure only leaves the default close in place.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        );
    }
}

/// The `"events":N` of a result stream's first job row.
fn job_events(body: &[u8]) -> u64 {
    let text = String::from_utf8_lossy(body);
    text.lines()
        .find(|l| l.contains(r#""kind":"job""#))
        .and_then(|l| l.split(r#""events":"#).nth(1))
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0)
}

#[derive(Default)]
struct Tally {
    hot: Vec<Sample>,
    cold: Vec<Sample>,
    attempted: u64,
    failed: u64,
    rejected: u64,
    mismatched: u64,
    /// Engine events of each cold run, in `cold` order.
    cold_events: Vec<f64>,
    errors: Vec<String>,
}

/// Closed-loop load: each client sends its next request when the previous
/// one completes. Cold requests (the client's next fresh spec) go out at
/// `cold_rate` per second over all clients, so the working set is
/// `cold_rate × seconds` specs however fast the daemon answers; every
/// other request is hot, a replay of a spec some client already ran cold,
/// checked byte for byte against that cold body.
pub fn loadgen(addr: &str, seed: u64, seconds: f64, clients: u64, cold_rate: f64) -> String {
    let started = Instant::now();
    let tally = run_load(addr, seed, seconds, clients, cold_rate);
    let wall = started.elapsed().as_secs_f64();
    let spans = |samples: &[Sample]| {
        let mut o = Obj::new();
        let mut list = |key: &str, f: &dyn Fn(&Sample) -> f64| {
            o.list(key, &samples.iter().map(f).collect::<Vec<_>>());
        };
        list("total_ms", &|s| s.total.as_secs_f64() * 1e3);
        list("connect_ms", &|s| s.connect.as_secs_f64() * 1e3);
        list("ttfb_ms", &|s| (s.ttfb - s.connect).as_secs_f64() * 1e3);
        list("body_ms", &|s| (s.total - s.ttfb).as_secs_f64() * 1e3);
        list("done_s", &|s| (s.done - started).as_secs_f64());
        o
    };
    let mut out = Obj::new();
    out.obj("hot", spans(&tally.hot));
    let mut cold = spans(&tally.cold);
    cold.list("events", &tally.cold_events);
    out.obj("cold", cold);
    out.int("attempted", tally.attempted);
    out.int("failed", tally.failed);
    out.int("rejected", tally.rejected);
    out.int("mismatched", tally.mismatched);
    out.int("clients", clients);
    out.num("wall_s", wall);
    out.strs("errors", &tally.errors);
    out.render()
}

fn run_load(addr: &str, seed: u64, seconds: f64, clients: u64, cold_rate: f64) -> Tally {
    let done: Mutex<Vec<(String, Arc<Vec<u8>>)>> = Mutex::new(Vec::new());
    let tally = Mutex::new(Tally::default());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let cold_every = Duration::from_secs_f64(clients as f64 / cold_rate);
    std::thread::scope(|scope| {
        for client in 0..clients {
            let (done, tally) = (&done, &tally);
            scope.spawn(move || {
                let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(client));
                let mut fresh = 0u64;
                // Clients' cold slots are staggered across one period.
                let mut next_cold = started + cold_every.mul_f64(client as f64 / clients as f64);
                let mut local = Tally::default();
                while Instant::now() < deadline {
                    let replay = {
                        let done = done.lock().expect("no client panics holding the list");
                        (!done.is_empty() && Instant::now() < next_cold)
                            .then(|| done[(rng.next_u64() % done.len() as u64) as usize].clone())
                    };
                    if replay.is_none() {
                        next_cold += cold_every;
                    }
                    local.attempted += 1;
                    let spec = match &replay {
                        Some((spec, _)) => spec.clone(),
                        None => {
                            fresh += 1;
                            cold_spec(seed, client + clients * (fresh - 1))
                        }
                    };
                    let (sample, status, body) = match send(addr, &request_bytes(&spec)) {
                        Ok(r) => r,
                        Err(e) => {
                            local.failed += 1;
                            local.errors.push(e);
                            continue;
                        }
                    };
                    if status != 200 {
                        local.failed += 1;
                        if status == 429 {
                            local.rejected += 1;
                        }
                        local.errors.push(format!("status {status}"));
                        continue;
                    }
                    match replay {
                        Some((_, cold_body)) => {
                            if *cold_body != body {
                                local.mismatched += 1;
                                local.errors.push("hot body differs from cold body".into());
                            }
                            local.hot.push(sample);
                        }
                        None => {
                            local.cold_events.push(job_events(&body) as f64);
                            local.cold.push(sample);
                            done.lock()
                                .expect("no client panics holding the list")
                                .push((spec, Arc::new(body)));
                        }
                    }
                }
                let mut tally = tally.lock().expect("no client panics holding the tally");
                tally.hot.append(&mut local.hot);
                tally.cold.append(&mut local.cold);
                tally.attempted += local.attempted;
                tally.failed += local.failed;
                tally.rejected += local.rejected;
                tally.mismatched += local.mismatched;
                tally.cold_events.append(&mut local.cold_events);
                tally.errors.extend(local.errors.into_iter().take(5));
            });
        }
    });
    tally.into_inner().expect("clients joined")
}

/// Fresh specs the in-process serve measurement executes.
const LAYER_COLD_SPECS: u64 = 40;
/// Cache-hit submissions of each of those specs.
const LAYER_HOT_REPS: u64 = 25;

/// In-process costs of the serve crate's request path on the same kind of
/// specs the generator sends.
pub fn layers(seed: u64, dump_dir: &str) -> Result<String, String> {
    // Wire parse of the exact bytes a hot request sends.
    let request = request_bytes(&cold_spec(seed, 0));
    let parses = 20_000u32;
    let started = Instant::now();
    for _ in 0..parses {
        let mut parser = RequestParser::new();
        parser.feed(std::hint::black_box(&request));
        let parsed = parser.next_request().map_err(|e| e.to_string())?;
        std::hint::black_box(parsed.ok_or("request did not parse")?);
    }
    let wire_parse_us = started.elapsed().as_secs_f64() * 1e6 / f64::from(parses);

    let sched = Scheduler::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_bytes: 64 << 20,
        max_live: 64,
        dump_dir: dump_dir.into(),
        deterministic: true,
    });
    // Indices past anything a load run reaches, so these specs are fresh.
    let specs: Vec<String> = (0..LAYER_COLD_SPECS)
        .map(|i| cold_spec(seed, 5_000_000 + i))
        .collect();
    let mut cold_ms = Vec::new();
    let mut result = Ok(());
    for spec in &specs {
        let started = Instant::now();
        match sched.submit(JobKind::Run, spec, "perfbench") {
            Ok(Submission::Accepted(job)) => {
                let mut offset = 0;
                loop {
                    let (bytes, finished) = job.wait_results(offset, Duration::from_millis(200));
                    offset += bytes.len();
                    if finished {
                        break;
                    }
                }
            }
            Ok(_) => {
                result = Err("a fresh spec was not admitted as a new job".to_string());
                break;
            }
            Err(e) => {
                result = Err(e);
                break;
            }
        }
        cold_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let mut hot_us = Vec::new();
    if result.is_ok() {
        'hot: for _ in 0..LAYER_HOT_REPS {
            for spec in &specs {
                let started = Instant::now();
                match sched.submit(JobKind::Run, spec, "perfbench") {
                    Ok(Submission::Cached(artifact)) => {
                        std::hint::black_box(artifact.results.len());
                    }
                    _ => {
                        result = Err("a completed spec was not served from the cache".into());
                        break 'hot;
                    }
                }
                hot_us.push(started.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    sched.shutdown();
    sched.join();
    result?;
    let mut out = Obj::new();
    out.num("wire_parse_us", wire_parse_us);
    out.list("cold_exec_ms", &cold_ms);
    out.list("submit_hot_us", &hot_us);
    Ok(out.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stand-in daemon that answers its n-th connection with
    /// `replies[n]` and then stops listening.
    fn fake_daemon(replies: Vec<&'static str>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            for reply in replies {
                let (mut stream, _) = listener.accept().unwrap();
                let mut request = Vec::new();
                let mut buf = [0u8; 4096];
                while !String::from_utf8_lossy(&request).contains("horizon = 30") {
                    let n = stream.read(&mut buf).unwrap();
                    request.extend_from_slice(&buf[..n]);
                }
                stream.write_all(reply.as_bytes()).unwrap();
            }
        });
        (addr, handle)
    }

    const OK_A: &str = "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n1\r\nA\r\n0\r\n\r\n";
    const OK_B: &str = "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n1\r\nB\r\n0\r\n\r\n";
    const REFUSED: &str = "HTTP/1.1 429 Too Many Requests\r\ncontent-length: 0\r\n\r\n";

    #[test]
    fn refusals_and_mismatched_replays_count_as_failures() {
        // One cold run (body A), then hot replays: one answered with a
        // different body, two refused; later connections find no daemon.
        let (addr, daemon) = fake_daemon(vec![OK_A, OK_B, REFUSED, REFUSED]);
        let tally = run_load(&addr, 7, 0.3, 1, 1e-3);
        daemon.join().unwrap();
        assert_eq!((tally.cold.len(), tally.hot.len()), (1, 1));
        assert_eq!(tally.mismatched, 1);
        assert_eq!(tally.rejected, 2);
        assert!(
            tally.failed >= 2,
            "refusals and connect errors are failures"
        );
        assert_eq!(tally.attempted, 2 + tally.failed);
    }

    #[test]
    fn chunked_bodies_are_reassembled() {
        let raw = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n";
        assert_eq!(parse_response(raw).unwrap(), (200, b"abcde".to_vec()));
    }

    #[test]
    fn fresh_specs_are_distinct() {
        let specs: std::collections::HashSet<String> = (0..1000).map(|i| cold_spec(3, i)).collect();
        assert_eq!(specs.len(), 1000);
    }
}
