//! Open-loop load over one front-door connection.
//!
//! `TcpTransport` allows one call at a time, so an open loop speaks
//! the wire protocol itself through the public codecs: `Envelope`
//! frames carrying `GateRequest`s, split by a `FrameDecoder`. The
//! calling thread sends on a fixed schedule (request `i` is due at
//! `start + i / rate`) and a second thread reads the replies. Latency
//! is taken from the due time, not the send time, so a server stall
//! is charged to every request scheduled behind it (no coordinated
//! omission). The in-flight window matches the door's per-connection
//! cap: when it is full the sender waits, the wait shows up as send
//! lateness, and the door never sheds.

use crate::stats::Summary;
use crate::trace::Tracer;
use ppms_core::gate::{GateRequest, GateResponse};
use ppms_core::service::{MaRequest, MaResponse};
use ppms_core::transport::next_trace_id;
use ppms_core::{Envelope, FrameDecoder, Party};
use ppms_obs::SpanContext;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long any one reply may take before the run is declared stuck.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// One admitted connection to the front door.
pub struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    token: u64,
    next_msg: u64,
    party: Party,
}

impl Conn {
    /// Dials `addr` and takes a session token. The door must run with
    /// price 0, where `Hello` is answered with a token straight away.
    pub fn open(addr: SocketAddr, party: Party) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let mut conn = Conn {
            stream,
            decoder: FrameDecoder::default(),
            token: 0,
            next_msg: 1,
            party,
        };
        let id = conn.send(SpanContext::NONE, GateRequest::Hello)?;
        let env = recv_frame(&mut conn.stream, &mut conn.decoder)?;
        match env.payload {
            GateResponse::Admitted { token, .. } if env.correlation_id == id => {
                conn.token = token;
                Ok(conn)
            }
            other => Err(io::Error::other(format!(
                "hello: expected a token, got {other:?}"
            ))),
        }
    }

    fn send(&mut self, ctx: SpanContext, payload: GateRequest) -> io::Result<u64> {
        let msg_id = self.next_msg;
        self.next_msg += 1;
        let frame = Envelope {
            msg_id,
            correlation_id: 0,
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: ctx.parent_id,
            party: self.party,
            payload,
        }
        .to_bytes();
        self.stream.write_all(&frame)?;
        Ok(msg_id)
    }
}

fn recv_frame(
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
) -> io::Result<Envelope<GateResponse>> {
    let mut buf = [0u8; 16 * 1024];
    loop {
        if let Some(frame) = decoder
            .next_frame()
            .map_err(|e| io::Error::other(format!("bad frame: {e}")))?
        {
            return Envelope::from_bytes(frame)
                .map_err(|e| io::Error::other(format!("bad envelope: {e}")));
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "door hung up"));
        }
        decoder.push(&buf[..n]);
    }
}

/// The result of one fixed-rate run.
#[derive(Debug, Clone, Default)]
pub struct RateResult {
    /// Offered rate, requests per second.
    pub offered_per_s: f64,
    /// Requests scheduled; every one of them is sent.
    pub scheduled: usize,
    /// Replies the oracle rejected, `Busy` and denials included.
    pub failed: usize,
    /// Latency from each request's due time to its reply, by request.
    pub latencies_ns: Vec<u64>,
    /// Summary of `latencies_ns`.
    pub latency: Summary,
    /// How late the sender put each request on the wire.
    pub lateness: Summary,
    /// Requests due but not yet answered when the schedule ended.
    pub backlog_end: usize,
    /// Replies per second: the median over up to eight consecutive
    /// chunks of at least 250 replies, so one stall of the machine
    /// moves one chunk only.
    pub throughput_per_s: f64,
}

impl RateResult {
    /// Whether the run met `limit` at the p99 with no growing backlog:
    /// by Little's law a system keeping up at this rate holds about
    /// `rate * limit` requests in flight at most.
    pub fn meets(&self, limit: Duration) -> bool {
        self.failed == 0
            && self.latency.p99_ns <= limit.as_nanos() as u64
            && self.backlog_end as f64 <= self.offered_per_s * limit.as_secs_f64() + 1.0
    }
}

/// Sends `count` requests at `rate` per second over `conn`, at most
/// `window` in flight. An infinite rate makes every request due at
/// once: the window alone paces the sender, which measures the
/// throughput the service saturates at. `request(i)` builds request
/// `i` when it is due; `check(i, reply)` is the oracle. With a tracer,
/// every `sample_every`-th request carries a span context of its own,
/// and the program's spans for it are exported as soon as its reply
/// arrives, before the span ring laps them.
#[allow(clippy::too_many_arguments)]
pub fn run_rate<F, C>(
    conn: &mut Conn,
    rate: f64,
    count: usize,
    window: usize,
    label: &'static str,
    tracer: Option<(&Tracer, usize)>,
    mut request: F,
    check: C,
) -> io::Result<RateResult>
where
    F: FnMut(usize) -> MaRequest,
    C: Fn(usize, &MaResponse) -> bool + Sync,
{
    let interval = Duration::from_secs_f64(1.0 / rate);
    let base = conn.next_msg;
    let inflight = Mutex::new(0usize);
    let freed = Condvar::new();
    let failed = AtomicUsize::new(0);
    let broken = AtomicBool::new(false);
    let mut lateness = Vec::with_capacity(count);
    let mut reader = conn.stream.try_clone()?;
    let mut decoder = std::mem::take(&mut conn.decoder);
    let start = Instant::now() + Duration::from_millis(5);
    let slot = |i: usize| start + interval.mul_f64(i as f64);
    let sampled = |i: usize| tracer.is_some_and(|(_, every)| i.is_multiple_of(every));

    let latencies_ns = std::thread::scope(|s| -> io::Result<Vec<u64>> {
        let receiver = s.spawn(|| -> io::Result<Vec<u64>> {
            let mut latency = vec![0u64; count];
            let result = (|| {
                for _ in 0..count {
                    let env = recv_frame(&mut reader, &mut decoder)?;
                    let now = Instant::now();
                    let i = env
                        .correlation_id
                        .checked_sub(base)
                        .map(|i| i as usize)
                        .filter(|&i| i < count)
                        .ok_or_else(|| io::Error::other("reply to an unknown request"))?;
                    latency[i] = now.saturating_duration_since(slot(i)).as_nanos() as u64;
                    if !matches!(&env.payload, GateResponse::App(resp) if check(i, resp)) {
                        failed.fetch_add(1, Ordering::Relaxed);
                    }
                    if let Some((tracer, _)) = tracer.filter(|_| sampled(i)) {
                        tracer.export_request(env.trace_id, label, slot(i), now);
                    }
                    *inflight.lock().expect("window lock") -= 1;
                    freed.notify_one();
                }
                Ok(())
            })();
            if result.is_err() {
                broken.store(true, Ordering::SeqCst);
                freed.notify_all();
            }
            result.map(|()| latency)
        });

        let mut sent = Ok(());
        for i in 0..count {
            let due = slot(i);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            {
                let mut n = inflight.lock().expect("window lock");
                while *n >= window && !broken.load(Ordering::SeqCst) {
                    n = freed.wait(n).expect("window lock");
                }
                *n += 1;
            }
            if broken.load(Ordering::SeqCst) {
                break;
            }
            let ctx = match tracer {
                Some((tracer, _)) if sampled(i) => tracer.request_ctx(),
                _ => SpanContext::from_trace(next_trace_id()),
            };
            lateness.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
            let token = conn.token;
            sent = conn
                .send(
                    ctx,
                    GateRequest::App {
                        token,
                        request: request(i),
                    },
                )
                .map(drop);
            if sent.is_err() {
                break;
            }
        }
        if sent.is_err() {
            // Unblock the reader: nothing more is coming.
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        let latency = receiver
            .join()
            .map_err(|_| io::Error::other("reply reader panicked"))?;
        sent?;
        latency
    })?;
    conn.decoder = decoder;
    // Requests answered after the last due time were still owed when
    // the schedule ended.
    let end_ns = interval.mul_f64(count.saturating_sub(1) as f64).as_nanos();
    let done_ns = |i: usize| interval.mul_f64(i as f64).as_nanos() + u128::from(latencies_ns[i]);
    let backlog_end = (0..count).filter(|&i| done_ns(i) > end_ns).count();
    let mut done: Vec<u128> = (0..count).map(done_ns).collect();
    done.sort_unstable();
    let chunk = (count / 8).max(250).min(count.max(1));
    let rates: Vec<f64> = done
        .chunks_exact(chunk)
        .scan(0u128, |prev, c| {
            let last = c[c.len() - 1];
            let span = last.saturating_sub(*prev).max(1);
            *prev = last;
            Some(c.len() as f64 / (span as f64 / 1e9))
        })
        .collect();

    Ok(RateResult {
        offered_per_s: rate,
        scheduled: count,
        failed: failed.into_inner(),
        latency: Summary::of(latencies_ns.clone()),
        latencies_ns,
        lateness: Summary::of(lateness),
        backlog_end,
        throughput_per_s: crate::stats::median(&rates),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stand-in door: mints a token, then answers every request in
    /// arrival order with `Balance(7)`, sleeping `stall` before its
    /// reply to request number `stall_at`.
    fn fake_door(stall_at: usize, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut decoder = FrameDecoder::default();
            let mut buf = [0u8; 16 * 1024];
            let mut served = 0usize;
            loop {
                while let Some(frame) = decoder.next_frame().expect("frame") {
                    let env = Envelope::<GateRequest>::from_bytes(frame).expect("envelope");
                    let payload = match env.payload {
                        GateRequest::Hello => GateResponse::Admitted {
                            token: 9,
                            requests: u64::MAX,
                        },
                        _ => {
                            served += 1;
                            if served == stall_at {
                                std::thread::sleep(stall);
                            }
                            GateResponse::App(MaResponse::Balance(7))
                        }
                    };
                    let reply = Envelope {
                        msg_id: 0,
                        correlation_id: env.msg_id,
                        trace_id: env.trace_id,
                        span_id: 0,
                        parent_id: 0,
                        party: Party::Ma,
                        payload,
                    }
                    .to_bytes();
                    if stream.write_all(&reply).is_err() {
                        return;
                    }
                }
                match stream.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => decoder.push(&buf[..n]),
                }
            }
        });
        (addr, handle)
    }

    fn drive(stall_at: usize, stall: Duration) -> RateResult {
        let (addr, door) = fake_door(stall_at, stall);
        let mut conn = Conn::open(addr, Party::Sp).expect("open");
        let result = run_rate(
            &mut conn,
            1000.0,
            600,
            32,
            "balance",
            None,
            |_| MaRequest::Balance {
                account: ppms_core::AccountId(1),
            },
            |_, resp| matches!(resp, MaResponse::Balance(7)),
        )
        .expect("run");
        drop(conn);
        door.join().expect("fake door");
        result
    }

    #[test]
    fn a_server_stall_is_charged_to_the_requests_scheduled_behind_it() {
        let r = drive(100, Duration::from_millis(200));
        assert_eq!(r.failed, 0);
        assert_eq!(r.latency.n, 600);
        // About 200 requests fall due during the stall, one per ms.
        // Timed from its due slot, each waits out the rest of the
        // stall, so about 150 of them wait over 50 ms. Timed from its
        // send, only the 32 the window let out would.
        let slow = r.latencies_ns.iter().filter(|&&l| l > 50_000_000).count();
        assert!(slow >= 120, "only {slow} requests charged with the stall");
        let max = r.latencies_ns.iter().max().copied().unwrap_or(0);
        assert!(max >= 180_000_000, "max {max}");
        // The full window holds the sender back, which it reports.
        assert!(
            r.lateness.p99_ns >= 100_000_000,
            "lateness {}",
            r.lateness.p99_ns
        );
        assert!(!r.meets(Duration::from_millis(50)));
    }

    #[test]
    fn without_a_stall_replies_are_prompt_and_nothing_backs_up() {
        let r = drive(usize::MAX, Duration::ZERO);
        assert_eq!(r.failed, 0);
        assert!(r.latency.p99_ns < 50_000_000, "p99 {}", r.latency.p99_ns);
        assert!(r.meets(Duration::from_millis(50)));
    }
}
