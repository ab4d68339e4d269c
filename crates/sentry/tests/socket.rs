//! End-to-end over the Unix socket: remote producers speak the frame
//! protocol to a [`SocketServer`], the bus feeds a [`Sentry`], and the
//! sentry's verdicts match offline classification of the same windows.

use std::path::PathBuf;
use std::time::Duration;

mod common;

use common::{engine, VOCAB};
use csd_sentry::{
    ActionKind, EventBus, ProcessEvent, Sentry, SentryConfig, SocketClient, SocketServer,
};

/// The crash tests' sentry, logging instead of killing.
fn config() -> SentryConfig {
    SentryConfig {
        action: ActionKind::Log,
        ..common::config()
    }
}

fn trace(salt: usize, n: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 7 + salt * 3) % VOCAB).collect()
}

/// A socket path unique to this test process and tag.
fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("csd-sentry-{}-{tag}.sock", std::process::id()))
}

/// Drains the bus into the sentry until `expect` events arrived or the
/// deadline passes.
fn pump(bus: &EventBus, sentry: &mut Sentry, expect: u64, rounds: usize) {
    let mut buf = Vec::new();
    for _ in 0..rounds {
        buf.clear();
        bus.recv_into(&mut buf, Duration::from_millis(20));
        for event in &buf {
            sentry.ingest(event);
        }
        if sentry.events() >= expect {
            return;
        }
    }
    panic!(
        "bus delivered {} of {expect} expected events",
        sentry.events()
    );
}

#[test]
fn socket_producers_reach_verdict_parity_with_offline_classify() {
    let offline = engine();
    let mut sentry = Sentry::new(engine(), config());
    let bus = EventBus::new(4096);
    let path = socket_path("parity");
    let server = SocketServer::bind(&path, bus.producer()).expect("bind");

    // Three remote producers, one process each, concurrent connections.
    let pids: Vec<u32> = vec![100, 200, 300];
    let handles: Vec<_> = pids
        .iter()
        .map(|&pid| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut client = SocketClient::connect(&path).expect("connect");
                client
                    .send(&ProcessEvent::spawn(0, pid, &format!("proc-{pid}.exe")))
                    .expect("spawn frame");
                for (i, &c) in trace(pid as usize, 24).iter().enumerate() {
                    client
                        .send(&ProcessEvent::api(1 + i as u64, pid, c))
                        .expect("api frame");
                }
                client.send(&ProcessEvent::exit(99, pid)).expect("exit");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("producer thread");
    }

    // 3 producers × (spawn + 24 calls + exit).
    pump(&bus, &mut sentry, 3 * 26, 500);
    sentry.drain();
    assert_eq!(server.frames(), 3 * 26);
    assert_eq!(server.decode_errors(), 0);

    for &pid in &pids {
        let calls = trace(pid as usize, 24);
        let any_positive = (0..)
            .map(|k| k * 4)
            .take_while(|&off| off + 8 <= calls.len())
            .any(|off| offline.classify(&calls[off..off + 8]).is_positive);
        assert_eq!(
            sentry.incidents().iter().any(|i| i.pid == pid),
            any_positive,
            "pid {pid}: live alert parity with offline classify"
        );
    }
    // Every producer's process exited and the drain ran: all three
    // sessions retired, their calls in the table's total.
    assert_eq!(sentry.stats().sessions_started, 3);
    assert_eq!(sentry.sessions().tracked(), 0);
    assert_eq!(sentry.sessions().retired_calls(), 3 * 24);
    drop(server);
}

#[test]
fn malformed_frames_drop_one_connection_without_disturbing_peers() {
    let mut sentry = Sentry::new(engine(), config());
    let bus = EventBus::new(1024);
    let path = socket_path("hostile");
    let server = SocketServer::bind(&path, bus.producer()).expect("bind");

    // A hostile connection: one good frame, then garbage.
    {
        use std::io::Write;
        let mut raw = std::os::unix::net::UnixStream::connect(&path).expect("connect");
        let mut frame = Vec::new();
        csd_sentry::write_frame(&mut frame, &ProcessEvent::api(0, 66, 1)).expect("encode");
        raw.write_all(&frame).expect("good frame");
        raw.write_all(&u32::MAX.to_le_bytes()).expect("bad length");
        raw.write_all(&[0xAB; 32]).expect("junk");
    }
    // A well-behaved connection afterwards.
    let mut client = SocketClient::connect(&path).expect("connect");
    for (i, &c) in trace(7, 8).iter().enumerate() {
        client
            .send(&ProcessEvent::api(i as u64, 77, c))
            .expect("api frame");
    }

    // 1 good frame from the hostile peer + 8 from the honest one.
    pump(&bus, &mut sentry, 9, 500);
    sentry.drain();

    // The hostile reader tallies the error after pushing its good frame
    // to the bus, on its own thread: the nine events can be here first.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.decode_errors() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.decode_errors(), 1, "hostile connection tallied");
    let honest = sentry
        .sessions()
        .sessions()
        .find(|s| s.pid() == 77)
        .expect("honest session exists");
    assert_eq!(honest.calls_seen(), 8, "peer unaffected by the bad frame");
    drop(server);
}

#[test]
fn panicking_reader_thread_is_counted_and_drops_only_its_connection() {
    use std::sync::Arc;

    let mut sentry = Sentry::new(engine(), config());
    let bus = EventBus::new(1024);
    let path = socket_path("panic");
    // A hook that panics on one specific hostile frame — standing in
    // for any bug a crafted frame might trip in per-connection
    // processing. The panic must be caught at the thread boundary,
    // counted, and must not take down the server or peer connections.
    let hook: csd_sentry::bus::FrameHook = Arc::new(|e: &ProcessEvent| {
        if e.pid == 666 {
            panic!("hostile frame tripped a reader bug");
        }
    });
    let server = SocketServer::bind_with_hook(&path, bus.producer(), Some(hook)).expect("bind");

    // The hostile connection: a good frame, then the trigger, then
    // frames that must never arrive (the reader died at the trigger).
    {
        let mut client = SocketClient::connect(&path).expect("connect");
        client.send(&ProcessEvent::api(0, 55, 1)).expect("good");
        client.send(&ProcessEvent::api(1, 666, 2)).expect("trigger");
        let _ = client.send(&ProcessEvent::api(2, 55, 3));
        let _ = client.send(&ProcessEvent::api(3, 55, 4));
    }
    // An honest connection afterwards: the server must still serve it.
    let mut client = SocketClient::connect(&path).expect("connect");
    for (i, &c) in trace(7, 8).iter().enumerate() {
        client
            .send(&ProcessEvent::api(i as u64, 77, c))
            .expect("api frame");
    }

    // 1 pre-trigger frame + 8 honest frames; the trigger frame and the
    // hostile connection's tail are gone with its reader.
    pump(&bus, &mut sentry, 9, 500);
    sentry.drain();

    // The panicking reader's thread increments the counter as it dies;
    // give it a moment to unwind.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.reader_panics() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.reader_panics(), 1, "the panic was witnessed");
    let honest = sentry
        .sessions()
        .sessions()
        .find(|s| s.pid() == 77)
        .expect("honest session exists");
    assert_eq!(honest.calls_seen(), 8, "peer unaffected by the panic");
    assert!(
        sentry.sessions().sessions().all(|s| s.pid() != 666),
        "the trigger frame never reached the bus"
    );
    drop(server);
}

#[test]
fn connections_beyond_the_cap_are_refused_at_accept_and_counted() {
    use std::io::Read;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    use csd_sentry::bus::MAX_CONNECTIONS;

    let bus = EventBus::new(1024);
    let path = socket_path("cap");
    let server = SocketServer::bind(&path, bus.producer()).expect("bind");

    // Fill the server with idle connections. The listener's queue is
    // FIFO, so all of these are accepted before the one that follows.
    let mut held: Vec<SocketClient> = (0..MAX_CONNECTIONS)
        .map(|_| SocketClient::connect(&path).expect("connect"))
        .collect();

    // The next peer is accepted and dropped: it reads EOF.
    let mut extra = UnixStream::connect(&path).expect("connect");
    let mut byte = [0u8; 1];
    assert_eq!(
        extra.read(&mut byte).expect("read"),
        0,
        "refused peer sees EOF"
    );
    assert_eq!(server.connections_refused(), 1);
    assert_eq!(server.accept_errors(), 0);

    // The connections already being served are undisturbed.
    let mut got = Vec::new();
    held[0].send(&ProcessEvent::api(0, 11, 1)).expect("frame");
    held[MAX_CONNECTIONS - 1]
        .send(&ProcessEvent::api(0, 12, 2))
        .expect("frame");
    let deadline = Instant::now() + Duration::from_secs(10);
    while got.len() < 2 && Instant::now() < deadline {
        bus.recv_into(&mut got, Duration::from_millis(20));
    }
    let mut pids: Vec<u32> = got.iter().map(|e| e.pid).collect();
    pids.sort_unstable();
    assert_eq!(pids, vec![11, 12], "honest frames reach the bus");

    // One client leaves; once its reader has seen the EOF the slot is
    // free and a new peer is served (peers that arrive before that are
    // refused, so retry until a frame gets through).
    drop(held.pop());
    got.clear();
    loop {
        let mut client = SocketClient::connect(&path).expect("connect");
        if client.send(&ProcessEvent::api(0, 13, 3)).is_ok()
            && bus.recv_into(&mut got, Duration::from_millis(100)) > 0
        {
            break;
        }
        assert!(Instant::now() < deadline, "freed slot never served a peer");
    }
    assert_eq!(got[0].pid, 13);
    drop(server);
}

#[test]
fn a_frame_split_by_a_pause_longer_than_the_read_timeout_is_delivered_whole() {
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    let bus = EventBus::new(1024);
    let path = socket_path("split");
    let server = SocketServer::bind(&path, bus.producer()).expect("bind");
    // The server's reads time out after 20 ms: each pause below lets at
    // least two of them fire inside the frame.
    let pause = Duration::from_millis(60);
    let frame = |event: &ProcessEvent| {
        let mut bytes = Vec::new();
        csd_sentry::write_frame(&mut bytes, event).expect("encode");
        bytes
    };
    let mut raw = UnixStream::connect(&path).expect("connect");
    // Half of a frame, then the rest.
    let first = frame(&ProcessEvent::spawn(0, 41, "split.exe"));
    let half = first.len() / 2;
    raw.write_all(&first[..half]).expect("first half");
    std::thread::sleep(pause);
    raw.write_all(&first[half..]).expect("second half");
    // Two of the four length bytes, then the rest.
    let second = frame(&ProcessEvent::api(1, 41, 3));
    raw.write_all(&second[..2]).expect("two length bytes");
    std::thread::sleep(pause);
    raw.write_all(&second[2..]).expect("the rest");
    // A frame after both, to show the stream is still at a boundary.
    raw.write_all(&frame(&ProcessEvent::exit(2, 41)))
        .expect("third frame");

    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while got.len() < 3 && Instant::now() < deadline {
        bus.recv_into(&mut got, Duration::from_millis(20));
    }
    assert_eq!(server.decode_errors(), 0, "no frame was cut in two");
    assert_eq!(
        got,
        vec![
            ProcessEvent::spawn(0, 41, "split.exe"),
            ProcessEvent::api(1, 41, 3),
            ProcessEvent::exit(2, 41),
        ]
    );
    assert_eq!(server.frames(), 3);

    // A peer that stalls inside a frame for good does not hold up the
    // server's shutdown.
    let mut stalled = UnixStream::connect(&path).expect("connect");
    stalled.write_all(&second[..5]).expect("part of a frame");
    std::thread::sleep(pause);
    let started = Instant::now();
    drop(server);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown waited {:?} on a stalled peer",
        started.elapsed()
    );
    drop(raw);
}
