//! A deterministic in-repo chaos proxy for socket fault injection.
//!
//! [`ChaosProxy`] sits between a [`PlanClient`](crate::net::PlanClient)
//! (or a dialing [`StreamExecutor`](pathdriver_wash::StreamExecutor)) and
//! a real endpoint, forwarding bytes verbatim except on the connections its
//! [`ChaosSpec`] names, where it misbehaves in one precisely chosen way.
//! Faults are keyed to the *n*-th accepted connection — the same
//! connection-count trigger `PDW_WORKER_CHAOS` uses (`die:N`,
//! `corrupt:N`) — so a test run is bit-for-bit reproducible: no clocks,
//! no randomness, no `nth` drift between runs. Because retries reconnect,
//! "fault connection *n*" composes naturally with "the retry (connection
//! *n+1*) must succeed".
//!
//! Spec grammar (also accepted from a CLI flag or env var):
//!
//! | spec | behavior on the matched connection |
//! |------|------------------------------------|
//! | `drop:N` | close immediately on accept (connect succeeds, then EOF) |
//! | `delay:N:MS` | stall the first server→client byte for `MS` ms |
//! | `truncate:N:BYTES` | forward only the first `BYTES` of the response, then close |
//! | `corrupt:N` | flip one byte in the first response chunk (digest breaks, frame torn) |
//! | `blackhole:N` | swallow the response entirely and hold the connection open (client read times out) |
//! | `disconnect:N` | close both ends the moment the response starts |
//!
//! A parsed spec faults the connection from its first server→client
//! byte. Setting [`ChaosSpec::frame`] to `F` moves the fault to the start
//! of the connection's frame `F` (0-based; frame 0 is the `HelloAck`):
//! frames before it are forwarded whole. On a fresh key-first connection
//! frame 1 answers the first `SolveKey` (a `NeedInstance` when the key is
//! cold) and frame 2 answers the follow-up `Solve`. `Drop` with `F > 0`
//! closes both ends when frame `F` starts.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use pathdriver_wash::codec::{CodecError, FrameAccumulator, DEFAULT_MAX_FRAME_LEN};
use pathdriver_wash::NetAddr;

/// What to do to a faulted connection's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Close the client connection immediately on accept.
    Drop,
    /// Stall the first server→client byte for this many milliseconds.
    Delay(u64),
    /// Forward only this many server→client bytes, then close.
    Truncate(usize),
    /// Flip one byte (XOR `0x80`) in the first server→client chunk.
    Corrupt,
    /// Swallow every server→client byte; hold the connection open.
    BlackHole,
    /// Close both ends as soon as the first server→client byte arrives.
    Disconnect,
}

/// Which connection to fault, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSpec {
    /// The fault.
    pub mode: ChaosMode,
    /// The 1-based index of the accepted connection to fault (all others
    /// are forwarded verbatim).
    pub nth: usize,
    /// The 0-based server→client frame on that connection where the fault
    /// starts; earlier frames pass verbatim.
    pub frame: usize,
}

impl ChaosSpec {
    /// Parses the spec grammar (see the [module docs](self)).
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut parts = s.split(':');
        let mode = parts.next().unwrap_or("");
        let nth: usize = parts
            .next()
            .ok_or_else(|| format!("chaos spec '{s}' needs mode:N"))?
            .parse()
            .map_err(|e| format!("chaos spec '{s}': bad connection index: {e}"))?;
        if nth == 0 {
            return Err(format!("chaos spec '{s}': connection index is 1-based"));
        }
        let param = parts.next();
        if parts.next().is_some() {
            return Err(format!("chaos spec '{s}': too many fields"));
        }
        let need = |name: &str| {
            param
                .ok_or_else(|| format!("chaos spec '{s}' needs {name}"))
                .and_then(|p| {
                    p.parse::<u64>()
                        .map_err(|e| format!("chaos spec '{s}': {e}"))
                })
        };
        let mode = match mode {
            "drop" => ChaosMode::Drop,
            "delay" => ChaosMode::Delay(need("mode:N:MS")?),
            "truncate" => ChaosMode::Truncate(need("mode:N:BYTES")? as usize),
            "corrupt" => ChaosMode::Corrupt,
            "blackhole" => ChaosMode::BlackHole,
            "disconnect" => ChaosMode::Disconnect,
            other => return Err(format!("unknown chaos mode '{other}'")),
        };
        if param.is_some() && !matches!(mode, ChaosMode::Delay(_) | ChaosMode::Truncate(_)) {
            return Err(format!("chaos spec '{s}': mode takes no parameter"));
        }
        Ok(ChaosSpec {
            mode,
            nth,
            frame: 0,
        })
    }

    /// Every mode, faulting connection `nth` — the sweep used by the
    /// chaos tests and CI.
    pub fn all_modes(nth: usize) -> Vec<ChaosSpec> {
        vec![
            ChaosSpec {
                mode: ChaosMode::Drop,
                nth,
                frame: 0,
            },
            ChaosSpec {
                mode: ChaosMode::Delay(50),
                nth,
                frame: 0,
            },
            ChaosSpec {
                mode: ChaosMode::Truncate(16),
                nth,
                frame: 0,
            },
            ChaosSpec {
                mode: ChaosMode::Corrupt,
                nth,
                frame: 0,
            },
            ChaosSpec {
                mode: ChaosMode::BlackHole,
                nth,
                frame: 0,
            },
            ChaosSpec {
                mode: ChaosMode::Disconnect,
                nth,
                frame: 0,
            },
        ]
    }
}

impl std::fmt::Display for ChaosSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.mode {
            ChaosMode::Drop => write!(f, "drop:{}", self.nth),
            ChaosMode::Delay(ms) => write!(f, "delay:{}:{ms}", self.nth),
            ChaosMode::Truncate(n) => write!(f, "truncate:{}:{n}", self.nth),
            ChaosMode::Corrupt => write!(f, "corrupt:{}", self.nth),
            ChaosMode::BlackHole => write!(f, "blackhole:{}", self.nth),
            ChaosMode::Disconnect => write!(f, "disconnect:{}", self.nth),
        }
    }
}

/// The proxy: listens on an ephemeral loopback port, forwards every
/// connection to `upstream`, and misbehaves exactly once per spec — on
/// the connection each spec names. No spec makes it a faithful (but
/// still counting) forwarder.
pub struct ChaosProxy {
    local: NetAddr,
    accepted: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts the proxy in front of `upstream` with one fault per spec,
    /// each on the connection it names (the first spec naming a
    /// connection wins).
    pub fn start(upstream: NetAddr, specs: Vec<ChaosSpec>) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind chaos proxy");
        let local = NetAddr::Tcp(listener.local_addr().expect("proxy local addr").to_string());
        listener
            .set_nonblocking(true)
            .expect("nonblocking proxy listener");
        let accepted = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let t_accepted = Arc::clone(&accepted);
        let t_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("pdw-chaos-accept".to_string())
            .spawn(move || {
                let mut pumps: Vec<JoinHandle<()>> = Vec::new();
                while !t_stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((client, _)) => {
                            // Forward each chunk at once, as the endpoints
                            // do: Nagle's algorithm would hold small
                            // frames back for a delayed ACK, a latency no
                            // fault asked for.
                            let _ = client.set_nodelay(true);
                            let k = t_accepted.fetch_add(1, Ordering::SeqCst) + 1;
                            let fault = specs.iter().find(|s| s.nth == k).copied();
                            if matches!(fault, Some(s) if s.mode == ChaosMode::Drop && s.frame == 0)
                            {
                                drop(client);
                                continue;
                            }
                            let upstream = upstream.clone();
                            let stop = Arc::clone(&t_stop);
                            pumps.push(
                                std::thread::Builder::new()
                                    .name(format!("pdw-chaos-conn-{k}"))
                                    .spawn(move || proxy_conn(client, &upstream, fault, &stop))
                                    .expect("spawn proxy conn"),
                            );
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(2)),
                    }
                }
                for p in pumps {
                    let _ = p.join();
                }
            })
            .expect("spawn chaos accept thread");
        ChaosProxy {
            local,
            accepted,
            stop,
            accept_thread: Some(accept_thread),
        }
    }

    /// The proxy's dialable address.
    pub fn local_addr(&self) -> NetAddr {
        self.local.clone()
    }

    /// Connections accepted so far.
    pub fn accepted(&self) -> usize {
        self.accepted.load(Ordering::SeqCst)
    }

    /// Stops the proxy and joins its threads.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Forwards one connection, applying the fault (if any) to the
/// server→client direction — the one that breaks a response mid-frame.
fn proxy_conn(client: TcpStream, upstream: &NetAddr, fault: Option<ChaosSpec>, stop: &AtomicBool) {
    let server = match upstream.connect(Duration::from_secs(2)) {
        Ok(s) => s,
        Err(_) => return, // client sees EOF: a typed Io/TornFrame fault
    };
    // NetStream doesn't expose its inner TcpStream; pump via clones of
    // both halves with short read ticks so `stop` is honored.
    let c2s_client = match client.try_clone() {
        Ok(c) => c,
        Err(_) => return,
    };
    let mut s2c_server = match server.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let c_stop = AtomicBool::new(false);
    let conn_stop = &c_stop;
    std::thread::scope(|scope| {
        // client → server: always verbatim (requests are never the fault
        // target; response-path faults are what retries must survive).
        let c2s = scope.spawn(move || pump(c2s_client, server, stop, conn_stop));
        let s2c_fault = fault.map(|s| s.mode);
        let mut passing = fault.map_or(0, |s| s.frame);
        let mut frames = FrameAccumulator::new(DEFAULT_MAX_FRAME_LEN);
        let mut client_w = client;
        let s2c = scope.spawn(move || {
            let mut first = true;
            let mut forwarded = 0usize;
            let mut buf = [0u8; 16 * 1024];
            let _ = s2c_server.set_read_timeout(Some(Duration::from_millis(20)));
            loop {
                if stop.load(Ordering::SeqCst) || conn_stop.load(Ordering::SeqCst) {
                    break;
                }
                if passing > 0 {
                    // Frames before the faulted one pass whole; a read
                    // tick leaves a partial frame buffered.
                    match frames.read_from(&mut s2c_server) {
                        Ok(Some(frame)) => {
                            if client_w
                                .write_all(&frame)
                                .and_then(|()| client_w.flush())
                                .is_err()
                            {
                                break;
                            }
                            passing -= 1;
                        }
                        Ok(None) => break,
                        Err(CodecError::Io(_)) => {}
                        Err(_) => break,
                    }
                    continue;
                }
                let n = match s2c_server.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => n,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue
                    }
                    Err(_) => break,
                };
                let chunk = &mut buf[..n];
                match s2c_fault {
                    Some(ChaosMode::BlackHole) => {
                        // Swallow; keep the connection open so the client
                        // is stuck waiting and must hit its read timeout.
                        continue;
                    }
                    Some(ChaosMode::Disconnect | ChaosMode::Drop) => {
                        conn_stop.store(true, Ordering::SeqCst);
                        let _ = client_w.shutdown(std::net::Shutdown::Both);
                        s2c_server.shutdown();
                        break;
                    }
                    Some(ChaosMode::Delay(ms)) if first => {
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    Some(ChaosMode::Corrupt) if first => {
                        chunk[n - 1] ^= 0x80;
                    }
                    _ => {}
                }
                first = false;
                let send = if let Some(ChaosMode::Truncate(cap)) = s2c_fault {
                    let left = cap.saturating_sub(forwarded);
                    &chunk[..n.min(left)]
                } else {
                    &chunk[..n]
                };
                if !send.is_empty() {
                    if client_w
                        .write_all(send)
                        .and_then(|()| client_w.flush())
                        .is_err()
                    {
                        break;
                    }
                    forwarded += send.len();
                }
                if matches!(s2c_fault, Some(ChaosMode::Truncate(cap)) if forwarded >= cap) {
                    conn_stop.store(true, Ordering::SeqCst);
                    let _ = client_w.shutdown(std::net::Shutdown::Both);
                    s2c_server.shutdown();
                    break;
                }
            }
            conn_stop.store(true, Ordering::SeqCst);
        });
        let _ = c2s.join();
        let _ = s2c.join();
    });
}

/// Verbatim one-direction pump with a short read tick so stop flags are
/// honored promptly.
fn pump(
    mut from: TcpStream,
    mut to: pathdriver_wash::NetStream,
    stop: &AtomicBool,
    conn_stop: &AtomicBool,
) {
    let mut buf = [0u8; 16 * 1024];
    let _ = from.set_read_timeout(Some(Duration::from_millis(20)));
    loop {
        if stop.load(Ordering::SeqCst) || conn_stop.load(Ordering::SeqCst) {
            break;
        }
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).and_then(|()| to.flush()).is_err() {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => break,
        }
    }
    conn_stop.store(true, Ordering::SeqCst);
    to.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_spec_grammar_round_trips() {
        for s in [
            "drop:1",
            "delay:2:500",
            "truncate:3:64",
            "corrupt:4",
            "blackhole:5",
            "disconnect:6",
        ] {
            let spec = ChaosSpec::parse(s).unwrap();
            assert_eq!(spec.to_string(), s, "display drifted for {s}");
        }
        assert!(ChaosSpec::parse("drop:0").is_err(), "1-based index");
        assert!(ChaosSpec::parse("drop").is_err());
        assert!(ChaosSpec::parse("delay:1").is_err(), "delay needs MS");
        assert!(ChaosSpec::parse("corrupt:1:9").is_err(), "no parameter");
        assert!(ChaosSpec::parse("melt:1").is_err());
        assert_eq!(ChaosSpec::all_modes(2).len(), 6);
        assert!(ChaosSpec::all_modes(2).iter().all(|s| s.nth == 2));
    }
}
