//! `drbac` — a file-backed command-line tool over the dRBAC library.
//!
//! State lives in a context directory (default `./drbac-home`, override
//! with `--home DIR` or `DRBAC_HOME`):
//!
//! * `keys/<name>.sk` — key pairs (plaintext; protect the directory),
//! * `entities.bin` — known entities (name → public key),
//! * `store/wal.log` — the wallet's write-ahead log (credentials,
//!   supports, declarations, revocations). Every mutating command
//!   journals before it applies, so an interrupted command can tear at
//!   most the final record — which startup truncates. A home whose
//!   store never journaled anything beside a pre-store `wallet.bin`
//!   image is refused, naming the file,
//! * `index/index.tab` + `index/index.prev` — the delegation index: an
//!   ordered table over the store's contents, and the wallet's only
//!   checkpoint. Startup is *index open + log-tail catch-up*: the log
//!   records above the base run's watermark are applied to the index
//!   again. Queries are prefix scans. A checkpoint (`drbac store
//!   compact`, and automatically once the index's in-memory overlay
//!   grows) folds the overlay into a new base run, keeps the run it
//!   replaced as `index.prev`, and truncates the log through that
//!   previous run's watermark. A stale or unreadable index is rebuilt
//!   by full replay while the log still starts at seq 1, and restored
//!   from `index.prev` plus the log once it does not; without a usable
//!   previous run startup refuses and points at `drbac store verify`.
//!
//! ```text
//! drbac keygen <Name>                          create an identity
//! drbac entities                               list known entities
//! drbac delegate '<[S -> O ...] Issuer>'       sign & publish a delegation
//! drbac declare <Entity> <attr> <op> <base>    declare an attribute base
//! drbac list                                   show wallet contents
//! drbac query <Subject> <Object> [attr min]..  ask "does S have R?"
//! drbac revoke <id-prefix>                     revoke a delegation
//! drbac store inspect|verify|compact           examine / check / compact the log
//! drbac store index rebuild                    regenerate the delegation index
//! ```
//!
//! The delegation argument uses the paper's syntax, e.g.
//! `drbac delegate '[Maria -> BigISP.member] Mark'`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use drbac::core::syntax::{parse_delegation, parse_node, render_delegation, SyntaxContext};
use drbac::core::{
    AttrConstraint, AttrDeclaration, AttrName, AttrOp, AttrRef, DeclarationSet, Decode, Encode,
    LocalEntity, Node, ProofValidator, Reader, SignedAttrDeclaration, SignedDelegation,
    SignedRevocation, SimClock, ValidationContext, WalletAddr, Writer,
};
use drbac::crypto::{KeyPair, PublicKey, SchnorrGroup};
use drbac::index::{DelegationIndex, FileTable};
use drbac::net::proto::{Reply, Request};
use drbac::net::{RetryPolicy, TcpConfig, TcpTransport, Transport, WalletDaemon};
use drbac::store::WalletStore;
use drbac::wallet::{DurableWallet, IndexedBootReport};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(mut args: Vec<String>) -> Result<String, String> {
    let home = extract_home(&mut args)?;
    let remote = extract_remote(&mut args)?;
    let Some(command) = args.first().cloned() else {
        return Err(usage());
    };
    let rest = &args[1..];
    // `store` operates on the raw log files and must not go through
    // `Context::load` — `verify` and `inspect` stay read-only even on a
    // log that normal startup would heal.
    if command == "store" {
        return store_command(&home, rest);
    }
    // `health` probes a live daemon and needs no local context at all.
    if command == "health" {
        return health_command(rest);
    }
    // `stats --remote` scrapes a daemon's metrics; also context-free.
    if command == "stats" {
        if let Some(addr) = remote.as_deref() {
            return stats_remote(addr);
        }
    }
    let mut ctx = Context::load(&home)?;
    // `--remote` routes wallet operations to a `drbac serve` daemon
    // over TCP; signing still happens locally with this context's keys.
    if let Some(addr) = remote {
        return match command.as_str() {
            "query" => ctx.query_remote(&addr, rest),
            "delegate" => ctx.delegate_remote(&addr, rest),
            "declare" => ctx.declare_remote(&addr, rest),
            "revoke" => ctx.revoke_remote(&addr, rest),
            other => Err(format!(
                "--remote applies to query/delegate/declare/revoke/stats, not {other:?}"
            )),
        };
    }
    match command.as_str() {
        "serve" => ctx.serve(rest),
        "keygen" => ctx.keygen(rest),
        "entities" => ctx.entities(),
        "delegate" => ctx.delegate(rest),
        "declare" => ctx.declare(rest),
        "list" => ctx.list(),
        "query" => ctx.query(rest),
        "revoke" => ctx.revoke(rest),
        "export-entity" => ctx.export_entity(rest),
        "import-entity" => ctx.import_entity(rest),
        "export-cert" => ctx.export_cert(rest),
        "import-cert" => ctx.import_cert(rest),
        "stats" => run_scenario_stats(rest),
        "trace" => run_scenario_trace(rest),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: drbac [--home DIR] [--remote HOST:PORT] <command>\n\
     (--remote ADDR / DRBAC_REMOTE routes query/delegate/declare/revoke to a daemon)\n\
     commands:\n\
     \x20 serve <host:port> [--trace-out FILE] [--max-conns N]\n\
     \x20                   serve this wallet as a TCP daemon (tuning: docs/OPERATIONS.md)\n\
     \x20                                       (--trace-out streams spans as JSONL for\n\
     \x20                                       `drbac trace --follow`)\n\
     \x20 keygen <Name>                         create an identity\n\
     \x20 entities                              list known entities\n\
     \x20 delegate '<[S -> O ...] Issuer>'      sign & publish a delegation\n\
     \x20 declare <Entity> <attr> <op> <base>   declare an attribute base (op: -= *= <=)\n\
     \x20 list                                  show wallet contents\n\
     \x20 query <Subject> <Object> [attr min].. authorization query\n\
     \x20 revoke <id-prefix>                    revoke a delegation\n\
     \x20 export-entity <Name> <file>           write a public identity card\n\
     \x20 import-entity <file>                  trust another party's identity\n\
     \x20 export-cert <id-prefix> <file>        write a credential (wire format)\n\
     \x20 import-cert <file>                    verify & publish a received credential\n\
     \x20 stats [--chaos [seed]]                run the BigISP/AirNet scenario; print metrics\n\
     \x20                                       (--chaos injects seeded request loss/jitter)\n\
     \x20 stats --remote HOST:PORT              scrape a live daemon's metrics snapshot\n\
     \x20 health <host:port>                    probe a live daemon (exit 1 when unreachable)\n\
     \x20 trace [file.jsonl]                    as `stats`, also recording a JSONL trace\n\
     \x20 trace --follow <file.jsonl> [trace-id] tail a daemon's trace export live,\n\
     \x20                                       optionally filtered to one trace id\n\
     \x20 store inspect                         list the write-ahead log's records\n\
     \x20 store verify                          read-only integrity check, log + index\n\
     \x20                                       cross-check (exit 1 if damaged)\n\
     \x20 store compact                         checkpoint: fold the index into a new base\n\
     \x20                                       run and drop the log records it covers\n\
     \x20 store index rebuild                   regenerate the index from the log (and its\n\
     \x20                                       previous base run, once the log is truncated)\n"
        .to_string()
}

/// Runs the paper's BigISP/AirNet coalition walkthrough (discovery,
/// access, partnership revocation) and renders every metric the
/// instrumented layers emitted: the scenario network's own registry
/// merged with the process-global one. With `--chaos [seed]` the
/// scenario's network traffic runs under a seeded [`drbac::net::FaultPlan`]
/// (request loss + latency jitter), exercising the retry/timeout path.
fn run_scenario_stats(args: &[String]) -> Result<String, String> {
    let chaos = match args {
        [] => None,
        [flag] if flag == "--chaos" => Some(2002),
        [flag, seed] if flag == "--chaos" => Some(
            seed.parse::<u64>()
                .map_err(|_| format!("--chaos seed must be an integer, got {seed:?}"))?,
        ),
        _ => return Err("usage: stats [--chaos [seed]]".into()),
    };
    let (snapshot, outcome_lines) = run_coalition_walkthrough(chaos)?;
    let mut out = outcome_lines;
    out.push_str("\n== metrics ==\n");
    out.push_str(&snapshot.render_table());
    Ok(out)
}

/// `drbac stats --remote HOST:PORT` — scrape a live daemon's
/// metrics/histogram snapshot over the wire and render it like local
/// `stats` output.
fn stats_remote(addr: &str) -> Result<String, String> {
    let transport = TcpTransport::new(TcpConfig::default());
    let outcome = RetryPolicy::standard().run(&transport, &addr.into(), &Request::Stats);
    match outcome.reply.map_err(|e| e.to_string())? {
        Reply::Stats(snapshot) => Ok(format!(
            "== metrics scraped from {addr} ==\n{}",
            snapshot.render_table()
        )),
        Reply::Error(e) => Err(format!("remote error: {e}")),
        other => Err(format!("unexpected reply: {other:?}")),
    }
}

/// `drbac health <host:port>` — one liveness probe; exits nonzero when
/// the daemon is unreachable or unhealthy, so scripts can gate on it.
fn health_command(args: &[String]) -> Result<String, String> {
    let [addr] = args else {
        return Err("usage: health <host:port>".into());
    };
    let transport = TcpTransport::new(TcpConfig::default());
    let outcome = RetryPolicy::standard().run(&transport, &addr.as_str().into(), &Request::Health);
    match outcome
        .reply
        .map_err(|e| format!("{addr} unreachable: {e}"))?
    {
        Reply::Health(h) => {
            let line = format!(
                "{} wallet={} uptime={:.1}s delegations={} subscribers={} served={}\n",
                if h.ok { "ok" } else { "NOT OK" },
                h.wallet,
                h.uptime_ns as f64 / 1e9,
                h.delegations,
                h.subscribers,
                h.served_requests
            );
            if h.ok {
                Ok(line)
            } else {
                Err(line)
            }
        }
        Reply::Error(e) => Err(format!("remote error: {e}")),
        other => Err(format!("unexpected reply: {other:?}")),
    }
}

/// As [`run_scenario_stats`], additionally installing a ring-buffer trace
/// recorder and dumping the span/event stream as JSON lines — to the
/// given file, or inline when no file is named. With `--follow` it
/// instead tails a daemon's JSONL trace export (see `serve
/// --trace-out`) live, optionally filtered to one trace id.
fn run_scenario_trace(args: &[String]) -> Result<String, String> {
    if args.first().map(String::as_str) == Some("--follow") {
        return trace_follow(&args[1..]);
    }
    let file = match args {
        [] => None,
        [path] => Some(path.clone()),
        _ => {
            return Err("usage: trace [file.jsonl] | trace --follow <file.jsonl> [trace-id]".into())
        }
    };
    let recorder = drbac::obs::RingRecorder::install(65536);
    let result = run_coalition_walkthrough(None);
    drbac::obs::clear_recorder();
    let (snapshot, outcome_lines) = result?;
    let jsonl = recorder.to_jsonl();
    let events = recorder.len();

    let mut out = outcome_lines;
    out.push_str("\n== metrics ==\n");
    out.push_str(&snapshot.render_table());
    match file {
        Some(path) => {
            fs::write(&path, &jsonl).map_err(|e| format!("write {path}: {e}"))?;
            writeln!(out, "\nwrote {events} trace events to {path}").unwrap();
        }
        None => {
            writeln!(out, "\n== trace ({events} events) ==").unwrap();
            out.push_str(&jsonl);
        }
    }
    Ok(out)
}

/// `drbac trace --follow <file.jsonl> [trace-id] [--for SECONDS]` —
/// tails a JSONL trace export (written by `serve --trace-out` or
/// `trace file.jsonl`) live, like `tail -f`. With a trace id only the
/// lines of that distributed trace are shown, so a stitched
/// cross-daemon trace can be inspected end to end. `--for` bounds the
/// follow (for scripts); otherwise it runs until ctrl-c or until the
/// file is removed.
fn trace_follow(args: &[String]) -> Result<String, String> {
    use std::io::{BufRead, Seek, Write as _};

    let mut rest: Vec<String> = args.to_vec();
    let mut deadline = None;
    if let Some(pos) = rest.iter().position(|a| a == "--for") {
        if pos + 1 >= rest.len() {
            return Err("--for requires a duration in seconds".into());
        }
        let secs: f64 = rest
            .remove(pos + 1)
            .parse()
            .map_err(|_| "--for wants seconds, e.g. --for 2".to_string())?;
        rest.remove(pos);
        deadline = Some(std::time::Instant::now() + std::time::Duration::from_secs_f64(secs));
    }
    let (path, trace_id) = match rest.as_slice() {
        [path] => (path.clone(), None),
        [path, id] => (
            path.clone(),
            Some(
                id.parse::<u64>()
                    .map_err(|_| format!("trace id must be an integer, got {id:?}"))?,
            ),
        ),
        _ => return Err("usage: trace --follow <file.jsonl> [trace-id] [--for SECONDS]".into()),
    };
    // Only this trace's records pass the filter; the field is emitted
    // right after ts_ns so the substring match is unambiguous.
    let needle = trace_id.map(|id| format!("\"trace\":{id},"));
    let mut offset: u64 = 0;
    let mut shown = 0u64;
    let stdout = std::io::stdout();
    loop {
        match fs::File::open(&path) {
            Ok(mut file) => {
                let len = file
                    .metadata()
                    .map_err(|e| format!("stat {path}: {e}"))?
                    .len();
                if len < offset {
                    offset = 0; // truncated/rotated: start over
                }
                if len > offset {
                    file.seek(std::io::SeekFrom::Start(offset))
                        .map_err(|e| format!("seek {path}: {e}"))?;
                    let mut reader = std::io::BufReader::new(file);
                    let mut line = String::new();
                    loop {
                        line.clear();
                        let n = reader
                            .read_line(&mut line)
                            .map_err(|e| format!("read {path}: {e}"))?;
                        // A partial last line (no newline yet) stays
                        // unconsumed; we re-read it once it completes.
                        if n == 0 || !line.ends_with('\n') {
                            break;
                        }
                        offset += n as u64;
                        if needle.as_ref().is_none_or(|n| line.contains(n.as_str())) {
                            let mut out = stdout.lock();
                            let _ = out.write_all(line.as_bytes());
                            let _ = out.flush();
                            shown += 1;
                        }
                    }
                }
            }
            Err(e) if offset > 0 => {
                // We had been following it: the export is gone, stop.
                return Ok(format!(
                    "trace export {path} disappeared ({e}); {shown} line(s) shown\n"
                ));
            }
            Err(_) => {} // not created yet: keep waiting
        }
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            return Ok(format!("followed {path} ({shown} line(s) shown)\n"));
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
}

/// Figure 2 end to end: build the coalition, establish Maria's access,
/// then revoke the partnership and watch the push invalidate it. Returns
/// the merged metrics snapshot and a human summary. With `chaos` set,
/// the coalition is built fault-free and then all scenario traffic runs
/// under a seeded fault plan (10% request loss, 1-tick jitter).
fn run_coalition_walkthrough(chaos: Option<u64>) -> Result<(drbac::obs::Snapshot, String), String> {
    use drbac::core::Ticks;
    use drbac::disco::CoalitionScenario;
    use drbac::net::FaultPlan;

    // Isolate this run's crate-level metrics from anything the process
    // did earlier (the CLI owns the global registry for its lifetime).
    drbac::obs::global().reset();

    let mut rng = rand::thread_rng();
    let scenario = match chaos {
        Some(seed) => CoalitionScenario::build_with_faults(
            &mut rng,
            FaultPlan::seeded(seed)
                .with_request_loss(0.1)
                .with_latency_jitter(Ticks(1)),
        ),
        None => CoalitionScenario::build(&mut rng),
    };
    let outcome = scenario.establish_access();
    let mut out = String::new();
    if let Some(seed) = chaos {
        writeln!(
            out,
            "chaos: fault plan seed {seed} (10% loss, 1-tick jitter)"
        )
        .unwrap();
    }
    writeln!(
        out,
        "discovery: {} (mode {:?}, {} wallets contacted, {} steps){}",
        if outcome.found() { "GRANTED" } else { "DENIED" },
        outcome.mode,
        outcome.wallets_contacted.len(),
        outcome.trace.len(),
        if outcome.degraded { " [degraded]" } else { "" }
    )
    .unwrap();
    let monitor = outcome.monitor.as_ref();
    let delivered = scenario.revoke_partnership();
    writeln!(
        out,
        "revocation: {delivered} push message(s) delivered; access {}",
        match monitor {
            Some(m) if !m.is_valid() => "invalidated",
            Some(_) => "still valid (unexpected)",
            None => "was never granted",
        }
    )
    .unwrap();

    let mut snapshot = drbac::obs::global().snapshot();
    snapshot.merge(scenario.net.registry().snapshot());
    Ok((snapshot, out))
}

/// The address a context's wallet opens under.
const WALLET_ADDR: &str = "drbac-cli";

/// Opens the context's delegation index (`index/index.tab` +
/// `index/index.prev`). An `Err` means the current run is unusable;
/// [`repair_index`] is the way back.
fn open_index(home: &Path) -> Result<Arc<DelegationIndex>, String> {
    let table = FileTable::open_dir(home.join("index")).map_err(|e| e.to_string())?;
    DelegationIndex::open(Box::new(table))
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

/// The one boot route: open the index, then `open_indexed` heals the log
/// and catches up on the records above the index's watermark (a full
/// replay that rebuilds the index while the log starts at seq 1).
fn boot(
    home: &Path,
    store: Arc<WalletStore>,
) -> Result<(DurableWallet, IndexedBootReport), String> {
    let index = open_index(home)?;
    DurableWallet::open_indexed(WALLET_ADDR, SimClock::new(), store, index)
        .map_err(|e| e.to_string())
}

/// Boots the context's wallet; when the index will not open or no
/// longer covers the log, repairs it once ([`repair_index`]) and boots
/// again. A home whose leftovers from an older release may hold records
/// nothing else does is refused first ([`refuse_uncovered_leftovers`]).
fn open_wallet(home: &Path, store: Arc<WalletStore>) -> Result<DurableWallet, String> {
    refuse_uncovered_leftovers(home, &store)?;
    boot(home, Arc::clone(&store))
        .or_else(|why| {
            drbac::obs::global()
                .counter("drbac.index.degraded.count")
                .inc();
            eprintln!("warning: delegation index unusable ({why}); repairing it");
            repair_index(home, &store)?;
            boot(home, store)
        })
        .map(|(wallet, _)| wallet)
}

/// Refuses — before any file changes — a home that an older release
/// left with records in a file this one no longer reads: the index's
/// delta log `index/index.log`, or `store/snapshot.bin`, the image the
/// log was once compacted behind. The boot removes both afterwards, so
/// it may start only when something it does read holds their records:
/// * a delta log holding more than its 8-byte magic, only beside a log
///   that holds records (the boot checks that they reach down to the
///   index's base run) and no snapshot;
/// * a snapshot, only beside a log that holds records or an index base
///   run that holds one (watermark above 0).
fn refuse_uncovered_leftovers(home: &Path, store: &WalletStore) -> Result<(), String> {
    let snapshot = home.join("store").join("snapshot.bin");
    let delta_log = home.join("index").join("index.log");
    let log_empty = store.status().first_seq.is_none();
    let delta_holds_records = fs::metadata(&delta_log).is_ok_and(|m| m.len() > 8);
    let index_holds_records = || {
        home.join("index").join("index.tab").exists()
            && open_index(home).is_ok_and(|index| index.watermark().is_some_and(|w| w > 0))
    };
    let uncovered = if delta_holds_records && (log_empty || snapshot.exists()) {
        delta_log
    } else if snapshot.exists() && log_empty && !index_holds_records() {
        snapshot
    } else {
        return Ok(());
    };
    Err(format!(
        "{} was left by an older release and may hold records that neither the log \
         nor the index's base run holds: open the home once with the previous release \
         and run `drbac store compact` there — nothing was changed",
        uncovered.display()
    ))
}

/// Puts the context's index where the next boot can rebuild or catch it
/// up. While the log starts at seq 1 it holds the whole history: the
/// index files are removed and the boot rebuilds them by full replay.
/// A checkpointed log holds only the records above the previous base
/// run's watermark, so that run is restored ([`FileTable::restore_previous`]);
/// without a usable one this refuses *before changing any file*.
fn repair_index(home: &Path, store: &WalletStore) -> Result<(), String> {
    let dir = home.join("index");
    if store.status().first_seq == Some(1) {
        for file in FileTable::files(&dir) {
            if file.exists() {
                fs::remove_file(&file).map_err(|e| format!("clear {file:?}: {e}"))?;
            }
        }
        return Ok(());
    }
    let refuse = |why: String| {
        format!(
            "{why}; the log was truncated by a checkpoint, so nothing else holds the \
             records below it — nothing was changed (run `drbac store verify`)"
        )
    };
    match FileTable::restore_previous(&dir) {
        Ok(true) => Ok(()),
        Ok(false) => Err(refuse("the index keeps no previous base run".into())),
        Err(e) => Err(refuse(format!(
            "the index's previous base run is damaged ({e})"
        ))),
    }
}

/// The journal's records as they sit on disk, for the index
/// cross-check.
fn journal_events(store: &WalletStore) -> Result<Vec<(u64, drbac::store::StoreEvent)>, String> {
    let scan = store.read_log().map_err(|e| e.to_string())?;
    Ok(scan.records.into_iter().map(|r| (r.seq, r.event)).collect())
}

/// `drbac store <inspect|verify|compact|index rebuild>` — direct access
/// to the context's write-ahead store and its delegation index.
/// `inspect` and `verify` are read-only (they report damage rather than
/// healing it); `compact` boots the wallet and checkpoints it; `index
/// rebuild` regenerates the index from the log (and its previous base
/// run, once the log is truncated).
fn store_command(home: &Path, args: &[String]) -> Result<String, String> {
    const USAGE: &str = "usage: store <inspect|verify|compact|index rebuild>";
    let sub = match args {
        [sub] => sub.clone(),
        [a, b] if a == "index" => format!("index {b}"),
        _ => return Err(USAGE.into()),
    };
    let store = WalletStore::open_dir(home.join("store"))
        .map_err(|e| format!("open store in {home:?}: {e}"))?;
    match sub.as_str() {
        "inspect" => {
            let mut out = String::new();
            let status = store.status();
            let scan = store.read_log().map_err(|e| e.to_string())?;
            writeln!(
                out,
                "log: {} record(s), {} bytes, next seq {}",
                status.records, status.log_bytes, status.next_seq
            )
            .unwrap();
            if let Some(seq) = status.first_seq.filter(|seq| *seq > 1) {
                writeln!(
                    out,
                    "checkpointed: records below seq {seq} live in the index's base runs"
                )
                .unwrap();
            }
            for record in &scan.records {
                writeln!(out, "  #{:>6} {}", record.seq, record.event.describe()).unwrap();
            }
            if let Some(corruption) = &scan.corruption {
                writeln!(out, "damage beyond the valid prefix: {corruption}").unwrap();
            }
            if home.join("index").join("index.tab").exists() {
                match open_index(home) {
                    Ok(index) => {
                        let stats = index.stats();
                        let watermark = index.watermark();
                        let last_seq = scan.records.last().map_or(0, |r| r.seq);
                        let covers = index.covers(status.first_seq, last_seq).is_ok();
                        writeln!(
                            out,
                            "index: watermark {}, {} base entr{}, {} indexed delegation(s){}",
                            watermark.map_or("(none)".into(), |w| w.to_string()),
                            stats.base_entries,
                            if stats.base_entries == 1 { "y" } else { "ies" },
                            index.cert_count().map_err(|e| e.to_string())?,
                            if covers {
                                ""
                            } else {
                                " — STALE (it does not cover the log; the next boot repairs it)"
                            }
                        )
                        .unwrap();
                        let above = (scan.records.iter())
                            .filter(|r| watermark.is_none_or(|w| r.seq > w))
                            .count();
                        writeln!(
                            out,
                            "index: {above} record(s) above the watermark (replayed at boot)"
                        )
                        .unwrap();
                        writeln!(
                            out,
                            "index: previous base run {}",
                            match index.previous_watermark() {
                                Ok(Some(w)) =>
                                    format!("at watermark {w} (the log is kept from there)"),
                                Ok(None) =>
                                    "(none; the next checkpoint keeps the log whole)".into(),
                                Err(e) => format!("UNREADABLE ({e})"),
                            }
                        )
                        .unwrap();
                    }
                    Err(e) => {
                        writeln!(
                            out,
                            "index: UNUSABLE ({e}) — the next boot repairs it; \
                             run `drbac store index rebuild` to repair it now"
                        )
                        .unwrap();
                    }
                }
            } else {
                writeln!(out, "index: (none)").unwrap();
            }
            Ok(out)
        }
        "verify" => {
            let mut report = store.verify().map_err(|e| e.to_string())?;
            let index_dir = home.join("index");
            if index_dir.join("index.tab").exists() {
                report.index = Some(match open_index(home) {
                    Ok(index) => {
                        let events = journal_events(&store)?;
                        index
                            .verify_against(&events)
                            .unwrap_or_else(|e| drbac::store::IndexCheck {
                                corruption: Some(e.to_string()),
                                ..Default::default()
                            })
                    }
                    Err(e) => drbac::store::IndexCheck {
                        corruption: Some(e),
                        ..Default::default()
                    },
                });
            }
            let mut out = String::new();
            writeln!(
                out,
                "log: {} record(s) (seq {}..{}), {} of {} bytes valid",
                report.records,
                report.first_seq.unwrap_or(0),
                report.last_seq.unwrap_or(0),
                report.valid_len,
                report.log_bytes
            )
            .unwrap();
            match &report.index {
                Some(check) => {
                    writeln!(
                        out,
                        "index: {} entr{}, watermark {}, {} missing, {} orphaned{}",
                        check.entries,
                        if check.entries == 1 { "y" } else { "ies" },
                        check.watermark.map_or("(none)".into(), |w| w.to_string()),
                        check.missing,
                        check.orphaned,
                        match &check.corruption {
                            Some(c) => format!(" — CORRUPT: {c}"),
                            None => String::new(),
                        }
                    )
                    .unwrap();
                }
                None => writeln!(out, "index: (none)").unwrap(),
            }
            // The previous base run is the recovery source for a damaged
            // current one once the log no longer starts at seq 1, so
            // damage to it fails verify exactly then.
            let truncated = report.first_seq.is_some_and(|seq| seq > 1);
            let mut prev_damage = None;
            match FileTable::read_previous(&index_dir)
                .and_then(|run| run.map(|t| DelegationIndex::open(Box::new(t))).transpose())
                .map(|run| run.and_then(|prev| prev.run_watermark()))
            {
                Ok(Some(w)) => writeln!(out, "previous base run: watermark {w}").unwrap(),
                Ok(None) => writeln!(out, "previous base run: (none)").unwrap(),
                Err(e) => {
                    writeln!(out, "previous base run: DAMAGED — index/index.prev: {e}").unwrap();
                    prev_damage = truncated.then_some(e);
                }
            }
            if report.is_clean() {
                if let Some(e) = prev_damage {
                    return Err(format!(
                        "{out}NOT CLEAN — index/index.prev is damaged ({e}); the log is truncated, \
                         so it is the only recovery source should index/index.tab go bad"
                    ));
                }
                out.push_str("clean\n");
                Ok(out)
            } else {
                let index_dirty = report.index.as_ref().is_some_and(|check| !check.is_clean());
                let log_dirty = report.corruption.is_some() || report.trailing_bytes > 0;
                let detail = report.corruption.clone().unwrap_or_else(|| {
                    "index disagrees with the log (run `drbac store index rebuild`)".into()
                });
                let kind = if report.torn_tail {
                    "torn tail"
                } else if log_dirty {
                    "corruption"
                } else if index_dirty {
                    "index mismatch"
                } else {
                    "corruption"
                };
                Err(format!(
                    "{out}NOT CLEAN — {kind}: {detail} ({} trailing byte(s); recovery will truncate)",
                    report.trailing_bytes
                ))
            }
        }
        "compact" => {
            let wallet = open_wallet(home, Arc::new(store))?;
            let before = wallet.store().status();
            let through = wallet.checkpoint().map_err(|e| e.to_string())?;
            let after = wallet.store().status();
            let index = wallet.index().ok_or("the index detached during the boot")?;
            Ok(format!(
                "checkpointed: index base run at watermark {}; {}\n\
                 log: {} record(s) ({} bytes) -> {} record(s) ({} bytes)\n",
                index.watermark().map_or("(none)".into(), |w| w.to_string()),
                match through {
                    Some(seq) => format!("log truncated through seq {seq}"),
                    None => "no previous base run yet, log kept whole".into(),
                },
                before.records,
                before.log_bytes,
                after.records,
                after.log_bytes
            ))
        }
        "index rebuild" => {
            // Remove the index (log at seq 1) or restore its previous base
            // run (checkpointed log) — refusing before any file changes
            // when neither can work — then boot: a full replay rebuilds
            // the removed index, a catch-up completes the restored one.
            // Also the store → indexed-store migration.
            let store = Arc::new(store);
            refuse_uncovered_leftovers(home, &store)?;
            repair_index(home, &store)?;
            let (wallet, report) = boot(home, store)?;
            let index = wallet.index().ok_or("the rebuilt index did not attach")?;
            Ok(format!(
                "rebuilt by {}: {} delegation(s) indexed, watermark {}\n",
                match report.recovery {
                    Some(r) => format!(
                        "full replay of {} event(s) ({} skipped)",
                        r.replayed, r.skipped
                    ),
                    None => format!(
                        "catching up {} record(s) on the previous base run",
                        report.caught_up
                    ),
                },
                index.cert_count().map_err(|e| e.to_string())?,
                report.watermark
            ))
        }
        other => Err(format!("unknown store command {other:?}\n{USAGE}")),
    }
}

fn extract_home(args: &mut Vec<String>) -> Result<PathBuf, String> {
    if let Some(pos) = args.iter().position(|a| a == "--home") {
        if pos + 1 >= args.len() {
            return Err("--home requires a directory".into());
        }
        let dir = args.remove(pos + 1);
        args.remove(pos);
        return Ok(PathBuf::from(dir));
    }
    if let Ok(dir) = std::env::var("DRBAC_HOME") {
        return Ok(PathBuf::from(dir));
    }
    Ok(PathBuf::from("drbac-home"))
}

/// Pulls a global `--remote ADDR` flag (fallback: `DRBAC_REMOTE`)
/// routing wallet operations to a `drbac serve` daemon.
fn extract_remote(args: &mut Vec<String>) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == "--remote") {
        if pos + 1 >= args.len() {
            return Err("--remote requires a host:port address".into());
        }
        let addr = args.remove(pos + 1);
        args.remove(pos);
        return Ok(Some(addr));
    }
    Ok(std::env::var("DRBAC_REMOTE").ok())
}

/// Checkpoint once the index overlay holds this many ops (about 64
/// writes), so a long-lived context's startup applies a short log tail
/// and its log holds about two checkpoints' worth of records. The
/// trigger is the overlay, which a boot rebuilds from the records above
/// the base run, not the log: right after a checkpoint the log still
/// holds the records since the previous one.
const CHECKPOINT_DELTA_OPS: u64 = 512;

struct Context {
    home: PathBuf,
    /// name → public key (everyone we know).
    entities: BTreeMap<String, PublicKey>,
    /// name → key pair (identities we control).
    keys: BTreeMap<String, KeyPair>,
    wallet: DurableWallet,
}

impl Context {
    fn load(home: &Path) -> Result<Self, String> {
        fs::create_dir_all(home.join("keys")).map_err(|e| format!("create {home:?}: {e}"))?;
        let mut keys = BTreeMap::new();
        for entry in fs::read_dir(home.join("keys")).map_err(|e| e.to_string())? {
            let entry = entry.map_err(|e| e.to_string())?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("sk") {
                continue;
            }
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| format!("bad key filename {path:?}"))?
                .to_string();
            let bytes = fs::read(&path).map_err(|e| e.to_string())?;
            let pair = KeyPair::import_secret(&bytes)
                .ok_or_else(|| format!("corrupt key file {path:?}"))?;
            keys.insert(name, pair);
        }

        let mut entities = BTreeMap::new();
        let entities_path = home.join("entities.bin");
        if entities_path.exists() {
            let bytes = fs::read(&entities_path).map_err(|e| e.to_string())?;
            let mut r = Reader::tagged(&bytes, b"drbac-entities-v1")
                .map_err(|e| format!("corrupt entities.bin: {e}"))?;
            let n = r.u64().map_err(|e| e.to_string())?;
            for _ in 0..n {
                let name = r.str().map_err(|e| e.to_string())?.to_string();
                let key = PublicKey::decode(&mut r).map_err(|e| e.to_string())?;
                entities.insert(name, key);
            }
        }

        let store = Arc::new(
            WalletStore::open_dir(home.join("store"))
                .map_err(|e| format!("open store in {home:?}: {e}"))?,
        );
        let wallet = open_wallet(home, store)?;
        // A home from an older release may still carry the image the log
        // used to be compacted behind, or the index's old delta log. The
        // boot above started only once the log or the index's base run
        // held their records (`refuse_uncovered_leftovers`), and checked
        // the index's watermark against the log, so both go.
        for legacy in [
            home.join("store").join("snapshot.bin"),
            home.join("index").join("index.log"),
        ] {
            if legacy.exists() {
                fs::remove_file(&legacy).map_err(|e| format!("remove {legacy:?}: {e}"))?;
            }
        }
        // A store that never journaled anything beside a `wallet.bin`
        // means a home from before the write-ahead log. That image format
        // is no longer read; opening it as an empty wallet would hide
        // every credential it holds, so refuse and name the file.
        let wallet_path = home.join("wallet.bin");
        if wallet.store().status().next_seq == 1 && wallet_path.exists() {
            return Err(format!(
                "{} is a wallet image from before the write-ahead store, which this \
                 version no longer reads: open the home once with a release that \
                 migrates it, or remove the file to start with an empty wallet",
                wallet_path.display()
            ));
        }

        Ok(Context {
            home: home.to_path_buf(),
            entities,
            keys,
            wallet,
        })
    }

    fn save(&self) -> Result<(), String> {
        let mut w = Writer::tagged(b"drbac-entities-v1");
        w.u64(self.entities.len() as u64);
        for (name, key) in &self.entities {
            w.str(name);
            key.encode(&mut w);
        }
        fs::write(self.home.join("entities.bin"), w.finish()).map_err(|e| e.to_string())?;
        // Wallet mutations were already journaled as they happened;
        // force the tail to disk and keep the log short. The index's
        // overlay is rebuilt from the log at the next boot; checkpointing
        // once it grows keeps that catch-up short.
        self.wallet.store().sync().map_err(|e| e.to_string())?;
        if let Some(index) = self.wallet.index() {
            if index.stats().delta_ops >= CHECKPOINT_DELTA_OPS {
                self.wallet.checkpoint().map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    fn syntax(&self) -> SyntaxContext {
        let mut ctx = SyntaxContext::new();
        for (name, key) in &self.entities {
            ctx.register(name.clone(), drbac::core::EntityId(key.fingerprint()));
        }
        ctx
    }

    fn signer_for(&self, issuer: drbac::core::EntityId) -> Result<LocalEntity, String> {
        for (name, pair) in &self.keys {
            if drbac::core::EntityId(pair.fingerprint()) == issuer {
                return Ok(LocalEntity::from_keypair(name.clone(), pair.clone()));
            }
        }
        Err("no local key for the issuer; run `drbac keygen` first".into())
    }

    fn keygen(&mut self, args: &[String]) -> Result<String, String> {
        let [name] = args else {
            return Err("usage: keygen <Name>".into());
        };
        if self.entities.contains_key(name) {
            return Err(format!("entity {name:?} already exists"));
        }
        let pair = KeyPair::generate(SchnorrGroup::test_256(), &mut rand::thread_rng());
        fs::write(
            self.home.join("keys").join(format!("{name}.sk")),
            pair.export_secret(),
        )
        .map_err(|e| e.to_string())?;
        let fingerprint = pair.fingerprint();
        self.entities
            .insert(name.clone(), pair.public_key().clone());
        self.keys.insert(name.clone(), pair);
        self.save()?;
        Ok(format!("created {name} <{fingerprint}>\n"))
    }

    fn entities(&self) -> Result<String, String> {
        let mut out = String::new();
        for (name, key) in &self.entities {
            let local = if self.keys.contains_key(name) {
                " (local key)"
            } else {
                ""
            };
            writeln!(out, "{name} <{}>{local}", key.fingerprint()).unwrap();
        }
        if out.is_empty() {
            out.push_str("(no entities; run `drbac keygen <Name>`)\n");
        }
        Ok(out)
    }

    fn delegate(&mut self, args: &[String]) -> Result<String, String> {
        let [text] = args else {
            return Err("usage: delegate '<[Subject -> Object ...] Issuer>'".into());
        };
        let ctx = self.syntax();
        let delegation = parse_delegation(text, &ctx).map_err(|e| e.to_string())?;
        let issuer = self.signer_for(delegation.issuer())?;
        let cert = SignedDelegation::sign(delegation, &issuer).map_err(|e| e.to_string())?;
        let id = cert.id();
        self.wallet
            .publish(cert, vec![])
            .map_err(|e| e.to_string())?;
        self.save()?;
        Ok(format!("published #{id}\n"))
    }

    fn declare(&mut self, args: &[String]) -> Result<String, String> {
        let [entity, attr, op, base] = args else {
            return Err("usage: declare <Entity> <attr> <op: -=|*=|<=> <base>".into());
        };
        let key = self
            .entities
            .get(entity)
            .ok_or_else(|| format!("unknown entity {entity:?}"))?;
        let op = match op.as_str() {
            "-=" => AttrOp::Subtract,
            "*=" => AttrOp::Scale,
            "<=" => AttrOp::Min,
            other => return Err(format!("unknown operator {other:?} (want -=, *= or <=)")),
        };
        let base: f64 = base
            .parse()
            .map_err(|_| "base must be a number".to_string())?;
        let owner_id = drbac::core::EntityId(key.fingerprint());
        let owner = self.signer_for(owner_id)?;
        let attr = AttrRef::new(
            owner_id,
            AttrName::new(attr.as_str()).map_err(|e| e.to_string())?,
            op,
        );
        let declaration = AttrDeclaration::new(attr, base).map_err(|e| e.to_string())?;
        let signed = SignedAttrDeclaration::sign(declaration, &owner).map_err(|e| e.to_string())?;
        self.wallet
            .publish_declaration(&signed)
            .map_err(|e| e.to_string())?;
        self.save()?;
        Ok(format!(
            "declared {entity}.{} ({op}, base {base})\n",
            args[1]
        ))
    }

    fn list(&self) -> Result<String, String> {
        let ctx = self.syntax();
        let mut out = String::new();
        self.wallet.with_graph(|g| {
            for cert in g.iter_certs() {
                let revoked = if g.is_revoked(cert.id()) {
                    " [revoked]"
                } else {
                    ""
                };
                writeln!(
                    out,
                    "#{} {}{revoked}",
                    cert.id(),
                    render_delegation(cert.delegation(), &ctx)
                )
                .unwrap();
            }
        });
        if out.is_empty() {
            out.push_str("(wallet is empty)\n");
        } else {
            let metrics = self.wallet.with_graph(|g| g.metrics());
            out.push_str(&format!("-- {metrics}\n"));
        }
        Ok(out)
    }

    /// Parses `query`'s positional arguments: subject, object, and
    /// `Entity.attr min` constraint pairs.
    fn parse_query(&self, args: &[String]) -> Result<(Node, Node, Vec<AttrConstraint>), String> {
        if args.len() < 2 || !(args.len() - 2).is_multiple_of(2) {
            return Err("usage: query <Subject> <Object> [<Entity.attr> <min>]...".into());
        }
        let ctx = self.syntax();
        let subject = parse_node(&args[0], &ctx).map_err(|e| e.to_string())?;
        let object = parse_node(&args[1], &ctx).map_err(|e| e.to_string())?;
        let mut constraints = Vec::new();
        for pair in args[2..].chunks(2) {
            // Constraint attr written as Entity.attr with the operator
            // taken from the wallet's declarations (or Min by default).
            let (entity_name, attr_name) = pair[0]
                .split_once('.')
                .ok_or_else(|| format!("constraint {:?} must be Entity.attr", pair[0]))?;
            let key = self
                .entities
                .get(entity_name)
                .ok_or_else(|| format!("unknown entity {entity_name:?}"))?;
            let owner = drbac::core::EntityId(key.fingerprint());
            let min: f64 = pair[1]
                .parse()
                .map_err(|_| "minimum must be a number".to_string())?;
            let name = AttrName::new(attr_name).map_err(|e| e.to_string())?;
            // Try each operator binding the wallet might know.
            let attr = [AttrOp::Min, AttrOp::Subtract, AttrOp::Scale]
                .into_iter()
                .map(|op| AttrRef::new(owner, name.clone(), op))
                .find(|a| {
                    self.wallet
                        .with_graph(|g| g.declarations().base(a).is_some())
                })
                .unwrap_or_else(|| AttrRef::new(owner, name.clone(), AttrOp::Min));
            constraints.push(AttrConstraint::at_least(attr, min));
        }
        Ok((subject, object, constraints))
    }

    fn query(&self, args: &[String]) -> Result<String, String> {
        let (subject, object, constraints) = self.parse_query(args)?;
        let ctx = self.syntax();
        match self.wallet.query_direct(&subject, &object, &constraints) {
            Some(monitor) => {
                let mut out = String::new();
                writeln!(
                    out,
                    "GRANTED via {} delegation(s):",
                    monitor.proof().chain_len()
                )
                .unwrap();
                out.push_str(&drbac::core::syntax::render_proof(monitor.proof(), &ctx));
                writeln!(out, "grants: {}", monitor.summary()).unwrap();
                Ok(out)
            }
            None => Ok("DENIED: no satisfying proof\n".to_string()),
        }
    }

    /// Writes `<name>`'s public identity card (name + public key) so
    /// another party's context can trust it.
    fn export_entity(&self, args: &[String]) -> Result<String, String> {
        let [name, file] = args else {
            return Err("usage: export-entity <Name> <file>".into());
        };
        let key = self
            .entities
            .get(name)
            .ok_or_else(|| format!("unknown entity {name:?}"))?;
        let mut w = Writer::tagged(b"drbac-entity-card-v1");
        w.str(name);
        key.encode(&mut w);
        fs::write(file, w.finish()).map_err(|e| e.to_string())?;
        Ok(format!("wrote identity card for {name} to {file}\n"))
    }

    /// Imports an identity card written by `export-entity`.
    fn import_entity(&mut self, args: &[String]) -> Result<String, String> {
        let [file] = args else {
            return Err("usage: import-entity <file>".into());
        };
        let bytes = fs::read(file).map_err(|e| e.to_string())?;
        let mut r = Reader::tagged(&bytes, b"drbac-entity-card-v1")
            .map_err(|e| format!("not an identity card: {e}"))?;
        let name = r.str().map_err(|e| e.to_string())?.to_string();
        let key = PublicKey::decode(&mut r).map_err(|e| e.to_string())?;
        r.finish().map_err(|e| e.to_string())?;
        if let Some(existing) = self.entities.get(&name) {
            if existing != &key {
                return Err(format!(
                    "entity {name:?} already known with a DIFFERENT key — refusing to overwrite"
                ));
            }
        }
        let fingerprint = key.fingerprint();
        self.entities.insert(name.clone(), key);
        self.save()?;
        Ok(format!("imported {name} <{fingerprint}>\n"))
    }

    /// Writes a stored credential in canonical wire format.
    fn export_cert(&self, args: &[String]) -> Result<String, String> {
        let [prefix, file] = args else {
            return Err("usage: export-cert <id-prefix> <file>".into());
        };
        let matches: Vec<_> = self.wallet.with_graph(|g| {
            g.iter_certs()
                .into_iter()
                .filter(|c| c.id().to_string().starts_with(prefix.as_str()))
                .collect()
        });
        let cert = match matches.as_slice() {
            [] => return Err(format!("no delegation matches #{prefix}")),
            [one] => one.clone(),
            many => {
                return Err(format!(
                    "ambiguous prefix #{prefix} ({} matches)",
                    many.len()
                ))
            }
        };
        fs::write(file, cert.to_bytes()).map_err(|e| e.to_string())?;
        Ok(format!("wrote #{} to {file}\n", cert.id()))
    }

    /// Verifies and publishes a credential received from another party.
    fn import_cert(&mut self, args: &[String]) -> Result<String, String> {
        let [file] = args else {
            return Err("usage: import-cert <file>".into());
        };
        let bytes = fs::read(file).map_err(|e| e.to_string())?;
        let cert = SignedDelegation::from_bytes(&bytes).map_err(|e| format!("malformed: {e}"))?;
        let id = cert.id();
        self.wallet
            .publish(cert, vec![])
            .map_err(|e| e.to_string())?;
        self.save()?;
        Ok(format!("verified and published #{id}\n"))
    }

    fn revoke(&mut self, args: &[String]) -> Result<String, String> {
        let [prefix] = args else {
            return Err("usage: revoke <id-prefix> (see `drbac list`)".into());
        };
        let matches: Vec<_> = self.wallet.with_graph(|g| {
            g.iter_certs()
                .into_iter()
                .filter(|c| c.id().to_string().starts_with(prefix.as_str()))
                .collect()
        });
        let cert = match matches.as_slice() {
            [] => return Err(format!("no delegation matches #{prefix}")),
            [one] => one.clone(),
            many => {
                return Err(format!(
                    "ambiguous prefix #{prefix} ({} matches)",
                    many.len()
                ))
            }
        };
        let issuer = self.signer_for(cert.delegation().issuer())?;
        let revocation = SignedRevocation::revoke(&cert, &issuer, self.wallet.now())
            .map_err(|e| e.to_string())?;
        let notified = self.wallet.revoke(&revocation).map_err(|e| e.to_string())?;
        self.save()?;
        Ok(format!(
            "revoked #{} ({notified} local notifications)\n",
            cert.id()
        ))
    }

    /// `drbac serve <host:port>` — serve this context's wallet as a TCP
    /// daemon. Remote mutations journal through the same write-ahead
    /// store as local commands; stop with ctrl-c.
    fn serve(&self, args: &[String]) -> Result<String, String> {
        const USAGE: &str = "usage: serve <host:port> [--trace-out FILE] [--max-conns N] \
                             (e.g. serve 127.0.0.1:7070)\n\
                             tuning guidance: docs/OPERATIONS.md";
        let mut rest: Vec<String> = args.to_vec();
        let mut trace_out = None;
        if let Some(pos) = rest.iter().position(|a| a == "--trace-out") {
            if pos + 1 >= rest.len() {
                return Err("--trace-out requires a file path".into());
            }
            trace_out = Some(rest.remove(pos + 1));
            rest.remove(pos);
        }
        // The connection cap (DaemonConfig); the default is fine for
        // development, see docs/OPERATIONS.md before raising it.
        let mut daemon_config = drbac::net::DaemonConfig::default();
        if let Some(pos) = rest.iter().position(|a| a == "--max-conns") {
            if pos + 1 >= rest.len() {
                return Err("--max-conns requires a number".into());
            }
            daemon_config.max_connections = rest
                .remove(pos + 1)
                .parse()
                .map_err(|e| format!("--max-conns: {e}"))?;
            rest.remove(pos);
        }
        let [addr] = rest.as_slice() else {
            return Err(USAGE.into());
        };
        if let Some(path) = &trace_out {
            drbac::obs::JsonlFileRecorder::install(Path::new(path))
                .map_err(|e| format!("create trace export {path}: {e}"))?;
            eprintln!("streaming trace JSONL to {path} (tail with `drbac trace --follow {path}`)");
        }
        let daemon = WalletDaemon::bind_with(
            addr.as_str(),
            self.wallet.wallet().clone(),
            TcpConfig::default(),
            daemon_config,
        )
        .map_err(|e| format!("bind {addr}: {e}"))?;
        eprintln!(
            "drbac daemon serving wallet from {:?} on {} (ctrl-c to stop)",
            self.home,
            daemon.local_addr()
        );
        loop {
            std::thread::park();
        }
    }

    fn transport_to(&self, addr: &str) -> (TcpTransport, WalletAddr) {
        (TcpTransport::new(TcpConfig::default()), addr.into())
    }

    /// `query --remote`: ask the daemon's wallet, then validate every
    /// returned proof *locally* (signatures, expiry, endpoints,
    /// constraints against the daemon's declared attribute bases) — the
    /// daemon is a directory, not an oracle.
    fn query_remote(&self, addr: &str, args: &[String]) -> Result<String, String> {
        let (subject, object, constraints) = self.parse_query(args)?;
        let (transport, to) = self.transport_to(addr);
        let mut declarations = DeclarationSet::new();
        if let Ok(Reply::Declarations(ds)) = transport.request(&to, Request::FetchDeclarations) {
            for d in ds {
                if d.verify(self.wallet.now()).is_ok() {
                    declarations.insert(d.declaration());
                }
            }
        }
        let outcome = RetryPolicy::standard().run(
            &transport,
            &to,
            &Request::DirectQuery {
                subject: subject.clone(),
                object: object.clone(),
                constraints: constraints.clone(),
            },
        );
        let proofs = match outcome.reply.map_err(|e| e.to_string())? {
            Reply::Proofs(proofs) => proofs,
            Reply::Error(e) => return Err(format!("remote error: {e}")),
            other => return Err(format!("unexpected reply: {other:?}")),
        };
        if proofs.is_empty() {
            return Ok(format!("DENIED: no satisfying proof at {addr}\n"));
        }
        let validator = ProofValidator::new(
            ValidationContext::at(self.wallet.now()).with_declarations(declarations),
        );
        let ctx = self.syntax();
        for proof in &proofs {
            if validator
                .validate_query(proof, &subject, &object, &constraints)
                .is_ok()
            {
                let mut out = String::new();
                writeln!(
                    out,
                    "GRANTED via {} delegation(s) from {addr} (validated locally):",
                    proof.chain_len()
                )
                .unwrap();
                out.push_str(&drbac::core::syntax::render_proof(proof, &ctx));
                return Ok(out);
            }
        }
        Ok(format!(
            "DENIED: {addr} returned {} proof(s), none survived local validation\n",
            proofs.len()
        ))
    }

    /// `delegate --remote`: sign locally, publish at the daemon.
    fn delegate_remote(&mut self, addr: &str, args: &[String]) -> Result<String, String> {
        let [text] = args else {
            return Err("usage: delegate '<[Subject -> Object ...] Issuer>'".into());
        };
        let ctx = self.syntax();
        let delegation = parse_delegation(text, &ctx).map_err(|e| e.to_string())?;
        let issuer = self.signer_for(delegation.issuer())?;
        let cert = SignedDelegation::sign(delegation, &issuer).map_err(|e| e.to_string())?;
        let (transport, to) = self.transport_to(addr);
        let outcome = RetryPolicy::standard().run(
            &transport,
            &to,
            &Request::Publish {
                cert: Arc::new(cert),
                supports: vec![],
            },
        );
        match outcome.reply.map_err(|e| e.to_string())? {
            Reply::Published(id) => Ok(format!("published #{id} at {addr}\n")),
            Reply::Error(e) => Err(format!("remote error: {e}")),
            other => Err(format!("unexpected reply: {other:?}")),
        }
    }

    /// `declare --remote`: sign the declaration locally, publish at the
    /// daemon.
    fn declare_remote(&mut self, addr: &str, args: &[String]) -> Result<String, String> {
        let [entity, attr_name, op, base] = args else {
            return Err("usage: declare <Entity> <attr> <op: -=|*=|<=> <base>".into());
        };
        let key = self
            .entities
            .get(entity)
            .ok_or_else(|| format!("unknown entity {entity:?}"))?;
        let op = match op.as_str() {
            "-=" => AttrOp::Subtract,
            "*=" => AttrOp::Scale,
            "<=" => AttrOp::Min,
            other => return Err(format!("unknown operator {other:?} (want -=, *= or <=)")),
        };
        let base: f64 = base
            .parse()
            .map_err(|_| "base must be a number".to_string())?;
        let owner_id = drbac::core::EntityId(key.fingerprint());
        let owner = self.signer_for(owner_id)?;
        let attr = AttrRef::new(
            owner_id,
            AttrName::new(attr_name.as_str()).map_err(|e| e.to_string())?,
            op,
        );
        let declaration = AttrDeclaration::new(attr, base).map_err(|e| e.to_string())?;
        let signed = SignedAttrDeclaration::sign(declaration, &owner).map_err(|e| e.to_string())?;
        let (transport, to) = self.transport_to(addr);
        let outcome =
            RetryPolicy::standard().run(&transport, &to, &Request::PublishDeclaration(signed));
        match outcome.reply.map_err(|e| e.to_string())? {
            Reply::DeclarationPublished => Ok(format!(
                "declared {entity}.{attr_name} ({op}, base {base}) at {addr}\n"
            )),
            Reply::Error(e) => Err(format!("remote error: {e}")),
            other => Err(format!("unexpected reply: {other:?}")),
        }
    }

    /// `revoke --remote`: sign the revocation against the local copy of
    /// the credential, apply it locally, then deliver it to the daemon
    /// (the delegation's home wallet), which pushes invalidations to
    /// its subscribers.
    fn revoke_remote(&mut self, addr: &str, args: &[String]) -> Result<String, String> {
        let [prefix] = args else {
            return Err("usage: revoke <id-prefix> (see `drbac list`)".into());
        };
        let matches: Vec<_> = self.wallet.with_graph(|g| {
            g.iter_certs()
                .into_iter()
                .filter(|c| c.id().to_string().starts_with(prefix.as_str()))
                .collect()
        });
        let cert = match matches.as_slice() {
            [] => return Err(format!("no delegation matches #{prefix}")),
            [one] => one.clone(),
            many => {
                return Err(format!(
                    "ambiguous prefix #{prefix} ({} matches)",
                    many.len()
                ))
            }
        };
        let issuer = self.signer_for(cert.delegation().issuer())?;
        let revocation = SignedRevocation::revoke(&cert, &issuer, self.wallet.now())
            .map_err(|e| e.to_string())?;
        let local = self.wallet.revoke(&revocation).map_err(|e| e.to_string())?;
        self.save()?;
        let (transport, to) = self.transport_to(addr);
        let outcome = RetryPolicy::standard().run(&transport, &to, &Request::Revoke(revocation));
        match outcome.reply.map_err(|e| e.to_string())? {
            Reply::Revoked(pushed) => Ok(format!(
                "revoked #{} ({local} local notification(s), {pushed} at {addr})\n",
                cert.id()
            )),
            Reply::Error(e) => Err(format!("remote error: {e}")),
            other => Err(format!("unexpected reply: {other:?}")),
        }
    }
}
