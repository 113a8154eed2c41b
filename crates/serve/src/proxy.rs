//! A deterministic in-repo chaos proxy for socket fault injection.
//!
//! [`ChaosProxy`] sits between a [`PlanClient`](crate::net::PlanClient)
//! and a real endpoint, forwarding bytes verbatim except on the connections
//! its [`ChaosSpec`]s name, where it misbehaves in one precisely chosen way.
//! The grammar is [`ChaosSpec`]'s, and the faulted frame goes through the
//! transport's applier, [`send_faulted`]. Faults are
//! keyed to the *n*-th accepted connection, so a test run is bit-for-bit
//! reproducible: no clocks, no randomness, no `nth` drift between runs.
//! Because retries reconnect, "fault connection *n*" composes naturally
//! with "the retry (connection *n+1*) must succeed".
//!
//! Only the server→client direction of a faulted connection is faulted.
//! It is read frame by frame through the codec's `FrameAccumulator` up
//! to the faulted frame [`ChaosSpec::frame`] (0-based; frame 0 is the
//! `HelloAck`): earlier frames pass whole, the faulted one goes through
//! the applier, and what follows passes verbatim, is swallowed, or is cut
//! off with the connection, as the fault says. On a fresh key-first
//! connection frame 1 answers the first `SolveKey` (a `NeedInstance` when
//! the key is cold) and frame 2 answers the follow-up `Solve`. A `drop`
//! at frame 0 closes the client connection on accept.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use pathdriver_wash::codec::{CodecError, FrameAccumulator, DEFAULT_MAX_FRAME_LEN};
use pathdriver_wash::transport::{send_faulted, AfterFault};
use pathdriver_wash::{NetAddr, NetStream};

pub use pathdriver_wash::{ChaosMode, ChaosSpec};

/// How long a pump waits on a read before it rechecks its stop flags.
const TICK: Duration = Duration::from_millis(20);

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
                        // Nothing to accept yet (or a transient accept
                        // failure): poll again shortly.
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
/// Requests are never the fault target: response-path faults are what
/// retries must survive.
fn proxy_conn(client: TcpStream, upstream: &NetAddr, fault: Option<ChaosSpec>, stop: &AtomicBool) {
    let Ok(mut server) = upstream.connect(Duration::from_secs(2)) else {
        return; // client sees EOF: a typed Io/TornFrame fault
    };
    let mut client = NetStream::Tcp(client);
    let (Ok(mut client_r), Ok(mut server_r)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    let conn_stop = &AtomicBool::new(false);
    let close = |a: &NetStream, b: &NetStream| {
        conn_stop.store(true, Ordering::SeqCst);
        a.shutdown();
        b.shutdown();
    };
    std::thread::scope(|scope| {
        scope.spawn(move || {
            pump(&mut client_r, &mut server, stop, conn_stop);
            close(&client_r, &server);
        });
        scope.spawn(move || {
            match fault {
                None => pump(&mut server_r, &mut client, stop, conn_stop),
                Some(spec) => pump_faulted(&mut server_r, &mut client, spec, stop, conn_stop),
            }
            close(&server_r, &client);
        });
    });
}

/// The server→client direction of a faulted connection: frames before
/// `spec.frame` pass whole, that frame goes through [`send_faulted`], and
/// the rest is forwarded, swallowed or cut off as the fault says.
fn pump_faulted(
    from: &mut NetStream,
    to: &mut NetStream,
    spec: ChaosSpec,
    stop: &AtomicBool,
    conn_stop: &AtomicBool,
) {
    let _ = from.set_read_timeout(Some(TICK));
    let mut frames = FrameAccumulator::new(DEFAULT_MAX_FRAME_LEN);
    let mut passed = 0;
    while !stopped(stop, conn_stop) {
        // A read tick leaves a partial frame buffered.
        let frame = match frames.read_from(from) {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(CodecError::Io(_)) => continue,
            Err(_) => return,
        };
        if passed < spec.frame {
            if to.write_all(&frame).and_then(|()| to.flush()).is_err() {
                return;
            }
            passed += 1;
            continue;
        }
        match send_faulted(to, &frame, spec.mode) {
            Ok(AfterFault::Continue) => pump(from, to, stop, conn_stop),
            // Hold the connection open so the client must hit its read
            // timeout.
            Ok(AfterFault::Swallow) => pump(from, &mut std::io::sink(), stop, conn_stop),
            Ok(AfterFault::Close) | Err(_) => {}
        }
        return;
    }
}

fn stopped(stop: &AtomicBool, conn_stop: &AtomicBool) -> bool {
    stop.load(Ordering::SeqCst) || conn_stop.load(Ordering::SeqCst)
}

/// Verbatim one-direction pump with a short read tick so stop flags are
/// honored promptly; returns when either end closes or a flag is set.
fn pump(from: &mut NetStream, to: &mut impl Write, stop: &AtomicBool, conn_stop: &AtomicBool) {
    let mut buf = [0u8; 16 * 1024];
    let _ = from.set_read_timeout(Some(TICK));
    while !stopped(stop, conn_stop) {
        match from.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                if to.write_all(&buf[..n]).and_then(|()| to.flush()).is_err() {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}
