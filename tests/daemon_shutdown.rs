//! Shutdown-accounting regression suite: `WalletDaemon::shutdown` must
//! join every thread it ever spawned — per-connection readers and
//! writer pumps — even when a client is wedged mid-frame, instead
//! of leaking detached threads the way the thread-per-connection
//! daemon did. `docs/OPERATIONS.md` leans on this behavior for
//! rolling restarts; `live_threads()` is the accounting seam.

use std::io::Write as _;
use std::time::{Duration, Instant};

use drbac::core::SimClock;
use drbac::net::proto::{Reply, Request};
use drbac::net::wire::{self, FrameKind};
use drbac::net::{DaemonConfig, TcpConfig, TcpTransport, Transport, WalletDaemon};
use drbac::wallet::Wallet;

/// Polls `cond` until it holds or `timeout` lapses.
fn wait_until(timeout: Duration, cond: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

/// An idle daemon holds no thread beyond its accept loop: threads
/// come with connections. Shutdown is prompt and idempotent.
#[test]
fn an_idle_daemon_holds_no_threads() {
    let daemon = WalletDaemon::bind(
        "127.0.0.1:0",
        Wallet::new("home.idle", SimClock::new()),
        TcpConfig::fast(),
    )
    .unwrap();
    assert_eq!(daemon.live_threads(), 0, "no thread before a connection");
    daemon.shutdown();
    assert_eq!(daemon.live_threads(), 0, "every thread joined");
    // Idempotent: a second shutdown is a no-op, not a deadlock.
    daemon.shutdown();
    assert_eq!(daemon.live_threads(), 0);
}

/// The hung-client regression: a peer that writes half a frame and
/// then goes silent leaves its connection reader blocked mid-read.
/// Shutdown must shut the socket down underneath it (unblocking the
/// read), join the pump, and return well inside the deadline — the old
/// thread-per-connection daemon leaked this thread forever.
#[test]
fn shutdown_joins_connection_pumps_despite_hung_client() {
    let daemon = WalletDaemon::bind_with(
        "127.0.0.1:0",
        Wallet::new("home.hung", SimClock::new()),
        TcpConfig::fast(),
        DaemonConfig {
            shutdown_deadline: Duration::from_secs(3),
            ..DaemonConfig::default()
        },
    )
    .unwrap();
    let base_threads = daemon.live_threads();

    // A well-behaved client first, so the daemon is provably serving.
    let transport = TcpTransport::new(TcpConfig::fast());
    transport.add_route("home.hung", daemon.local_addr());
    let reply = transport
        .request(&"home.hung".into(), Request::FetchDeclarations)
        .unwrap();
    assert!(matches!(reply, Reply::Declarations(_)));

    // The hung clients: each writes a torn frame — a valid header
    // promising payload bytes that never arrive — and then just holds
    // the connection open. The daemon-side readers block awaiting the
    // rest of the frame.
    let mut hung = Vec::new();
    for _ in 0..3 {
        let mut s = std::net::TcpStream::connect(daemon.local_addr()).unwrap();
        let mut frame = Vec::new();
        frame.extend_from_slice(b"dRBW");
        frame.push(wire::WIRE_VERSION);
        frame.push(1); // kind: request
        frame.push(0); // no extensions
        frame.extend_from_slice(&1024u32.to_be_bytes()); // promised length...
        frame.extend_from_slice(&0u32.to_be_bytes()); // (bogus crc)
        assert_eq!(frame.len(), wire::FRAME_HEADER_LEN);
        s.write_all(&frame).unwrap(); // ...and no payload, ever
        hung.push(s);
    }
    assert!(
        wait_until(Duration::from_secs(2), || {
            daemon.live_threads() > base_threads
        }),
        "the hung connections spawned their pumps"
    );

    // Shutdown must unwedge those readers itself and return promptly.
    let started = Instant::now();
    daemon.shutdown();
    let took = started.elapsed();
    assert_eq!(
        daemon.live_threads(),
        0,
        "every pump joined despite clients that never spoke again"
    );
    assert!(
        took < Duration::from_secs(10),
        "shutdown returned promptly, took {took:?}"
    );
    drop(hung); // the clients outlived the daemon the whole time
}

/// One strict round trip on a raw connection: once its reply is read,
/// the daemon has served the frames sent before it on this connection.
fn round_trip(s: &mut std::net::TcpStream) {
    let request = wire::encode_request(&Request::FetchDeclarations);
    wire::write_frame(s, FrameKind::Request, &request).unwrap();
    let frame = wire::read_frame(s).unwrap();
    assert!(matches!(
        wire::decode_reply(&frame.payload),
        Ok(Reply::Declarations(_))
    ));
}

/// Thread accounting per connection: a connection costs one thread,
/// its reader, which writes its own replies — strict or pipelined.
/// Push-registering adds the connection's writer pump, once however
/// often it registers. Shutdown joins them all.
#[test]
fn a_connection_costs_one_thread_until_it_push_registers() {
    const K: usize = 3;
    let daemon = WalletDaemon::bind(
        "127.0.0.1:0",
        Wallet::new("home.threads", SimClock::new()),
        TcpConfig::fast(),
    )
    .unwrap();
    assert_eq!(daemon.live_threads(), 0, "no thread before a connection");

    let mut conns: Vec<std::net::TcpStream> = (0..K)
        .map(|_| {
            let mut s = std::net::TcpStream::connect(daemon.local_addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s.set_nodelay(true).unwrap();
            round_trip(&mut s);
            s
        })
        .collect();
    assert_eq!(daemon.live_threads(), K, "one thread per strict connection");

    // A pipelined connection: a window of requests carrying ids, all
    // answered, costs its reader and nothing more.
    let transport = TcpTransport::new(TcpConfig::fast());
    transport.add_route("home.threads", daemon.local_addr());
    let pipelined = transport.pipelined(&"home.threads".into()).unwrap();
    let ids = pipelined
        .send_many(&vec![Request::FetchDeclarations; 8])
        .unwrap();
    for id in ids {
        assert!(matches!(pipelined.wait(id), Ok(Reply::Declarations(_))));
    }
    assert_eq!(
        daemon.live_threads(),
        K + 1,
        "one thread per pipelined connection"
    );

    let register = wire::encode_push_register(&"subscriber".into());
    for _ in 0..2 {
        wire::write_frame(&mut conns[0], FrameKind::PushRegister, &register).unwrap();
        round_trip(&mut conns[0]);
        assert_eq!(
            daemon.live_threads(),
            K + 2,
            "a push link adds its writer pump, once"
        );
    }

    daemon.shutdown();
    assert_eq!(daemon.live_threads(), 0, "every thread joined");
    drop(pipelined);
    drop(conns);
}
