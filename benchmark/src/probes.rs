//! Stand-alone layer probes of the traced run: costs that are not a
//! step of one request (signing, connecting, booting, scraping) or
//! that bound one from below (the round-trip floors).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use drbac::core::{LocalEntity, SignedDelegation, Timestamp};
use drbac::net::proto::{Reply, Request};
use drbac::net::{TcpTransport, Transport};

use crate::catalogue::MetricSet;
use crate::deploy::{copy_home, open_home, open_index, Daemon};
use crate::stats::{percentile, us, Metric};

/// Times `f` `n` times; the median in µs with its sample count.
fn median_us(n: usize, mut f: impl FnMut(usize)) -> (f64, usize) {
    let mut ns: Vec<u64> = (0..n)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    (us(percentile(&ns, 0.5)), n)
}

/// `crypto.*`: one signature by `signer`, and verifying a certificate
/// as it comes off the wire (memo cold) and again (memoised).
pub fn crypto(signer: &LocalEntity, certs: &[Arc<SignedDelegation>], out: &mut MetricSet) {
    let sample = &certs[..certs.len().min(256)];
    let bodies: Vec<Vec<u8>> = sample.iter().map(|c| c.delegation().wire_bytes()).collect();
    let (v, n) = median_us(bodies.len(), |i| {
        std::hint::black_box(signer.sign_bytes(&bodies[i]));
    });
    out.push(Metric::single("crypto.sign_us", "us", v, n));

    // The wire round trip drops the signature memo.
    let fresh: Vec<SignedDelegation> = sample
        .iter()
        .filter_map(|c| SignedDelegation::from_bytes(&c.to_bytes()).ok())
        .collect();
    let (v, n) = median_us(fresh.len(), |i| {
        let _ = std::hint::black_box(fresh[i].verify(Timestamp(0)));
    });
    out.push(Metric::single("crypto.verify_cold_us", "us", v, n));
    let (v, n) = median_us(fresh.len(), |i| {
        let _ = std::hint::black_box(fresh[i].verify(Timestamp(0)));
    });
    out.push(Metric::single("crypto.verify_memo_us", "us", v, n));
}

/// `tcp.*` and `obs.*` against a live daemon: connection set-up, the
/// strict and pipelined `Health` round trips (no wallet work), and the
/// cost of one `Stats` scrape.
pub fn tcp_floors(
    daemon: &Daemon,
    transport: &TcpTransport,
    out: &mut MetricSet,
) -> Result<(), String> {
    let (v, n) = median_us(20, |_| {
        let _ = transport.connect_raw(&daemon.addr);
    });
    out.push(Metric::single("tcp.connect_us", "us", v, n));

    let healthy = |r: Result<Reply, _>| matches!(r, Ok(Reply::Health(h)) if h.ok);
    let mut ok = true;
    let (v, n) = median_us(500, |_| {
        ok &= healthy(transport.request(&daemon.addr, Request::Health))
    });
    out.push(Metric::single("tcp.rtt_floor_us", "us", v, n));

    let pipelined = transport
        .pipelined(&daemon.addr)
        .map_err(|e| format!("pipelined connect: {e}"))?;
    let (v, n) = median_us(500, |_| ok &= healthy(pipelined.call(&Request::Health)));
    out.push(Metric::single("tcp.pipelined_rtt_floor_us", "us", v, n));
    pipelined.close();

    let (v, n) = median_us(5, |_| ok &= daemon.scrape(transport).is_ok());
    out.push(Metric::single("obs.stats_scrape_us", "us", v, n));
    if ok {
        Ok(())
    } else {
        Err("a Health or Stats probe failed".into())
    }
}

/// `wallet.boot_indexed_ms` and `index.boot_open_ms`: opening a copy
/// of the served home in-process, five times each.
pub fn boot(home: &Path, scratch: &Path, out: &mut MetricSet) -> Result<(), String> {
    copy_home(home, scratch).map_err(|e| format!("copy home: {e}"))?;
    let mut failed = None;
    let (v, n) = median_us(5, |_| {
        if let Err(e) = open_index(scratch) {
            failed = Some(e);
        }
    });
    out.push(Metric::single("index.boot_open_ms", "ms", v / 1e3, n));
    let (v, n) = median_us(5, |_| {
        if let Err(e) = open_home(scratch) {
            failed = Some(e);
        }
    });
    out.push(Metric::single("wallet.boot_indexed_ms", "ms", v / 1e3, n));
    let _ = std::fs::remove_dir_all(scratch);
    failed.map_or(Ok(()), Err)
}
