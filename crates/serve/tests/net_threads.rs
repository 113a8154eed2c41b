//! Thread regression test of the socket server: answering requests must
//! not start threads. A server that parked one waiter thread per request
//! (and kept its handle until the connection closed) grew by a thread's
//! memory with every request on a long-lived connection.
//!
//! This file holds a single test so that its process runs nothing else:
//! the `Threads:` count in `/proc/self/status` then belongs to this test
//! alone.

use std::sync::Arc;

use pathdriver_wash::{NetAddr, NetListener};
use pdw_assay::benchmarks;
use pdw_serve::{ClientConfig, NetConfig, PlanClient, PlanServer, ServeConfig, SocketServer};
use pdw_synth::synthesize;

/// The process's current thread count (`None` off Linux).
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[test]
fn key_first_hits_over_one_connection_start_no_threads() {
    let Some(_) = threads() else {
        eprintln!("no /proc/self/status here: thread count unobservable");
        return;
    };
    let plan = Arc::new(PlanServer::start(ServeConfig::default()));
    let listener = NetListener::bind(&NetAddr::parse("127.0.0.1:0").unwrap()).unwrap();
    let sock = SocketServer::start(Arc::clone(&plan), listener, NetConfig::default());
    let bench = benchmarks::demo();
    let synthesis = synthesize(&bench).unwrap();
    let config = ServeConfig::default().planner;
    // Verification is covered elsewhere; here it would only slow the
    // 5 000 round trips down.
    let mut client = PlanClient::new(
        sock.local_addr(),
        ClientConfig {
            verify: false,
            ..ClientConfig::default()
        },
    );
    // The cold solve plus a few hits: the connection's reader and writer
    // threads are up.
    for _ in 0..4 {
        client
            .solve(&bench, &synthesis, &config, None)
            .expect("warm-up solve");
    }
    let baseline = threads().unwrap();
    for i in 0..5_000 {
        let hit = client
            .solve(&bench, &synthesis, &config, None)
            .expect("key-first hit");
        assert!(hit.memo_hit);
        if i % 500 == 499 {
            assert_eq!(
                threads().unwrap(),
                baseline,
                "thread count moved after {} hits",
                i + 1
            );
        }
    }
    assert_eq!(sock.stats().key_hits, 5_000 + 3);
    assert_eq!(client.retries_total(), 0);
    sock.drain();
    plan.shutdown();
}
