//! End-to-end tests of the `drbac` CLI binary: a full coalition workflow
//! driven through the command-line interface with on-disk persistence.

use std::path::Path;
use std::process::{Command, Output};

fn drbac(home: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_drbac"))
        .arg("--home")
        .arg(home)
        .args(args)
        .output()
        .expect("binary runs")
}

fn ok(home: &Path, args: &[&str]) -> String {
    let out = drbac(home, args);
    assert!(
        out.status.success(),
        "command {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

fn fails(home: &Path, args: &[&str]) -> String {
    let out = drbac(home, args);
    assert!(
        !out.status.success(),
        "command {args:?} unexpectedly succeeded"
    );
    String::from_utf8(out.stderr).expect("utf8 stderr")
}

fn temp_home(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("drbac-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn full_workflow_through_the_cli() {
    let home = temp_home("workflow");

    // Identities.
    for name in ["BigISP", "Mark", "Maria"] {
        let out = ok(&home, &["keygen", name]);
        assert!(out.contains(name), "{out}");
    }
    let listing = ok(&home, &["entities"]);
    assert!(listing.contains("BigISP") && listing.contains("(local key)"));

    // Table 1 delegations through the syntax frontend.
    ok(
        &home,
        &["delegate", "[Mark -> BigISP.memberServices] BigISP"],
    );
    ok(
        &home,
        &[
            "delegate",
            "[BigISP.memberServices -> BigISP.member'] BigISP",
        ],
    );
    ok(&home, &["delegate", "[Maria -> BigISP.member] Mark"]);

    // Query — state persisted across invocations.
    let answer = ok(&home, &["query", "Maria", "BigISP.member"]);
    assert!(answer.starts_with("GRANTED"), "{answer}");
    assert!(answer.contains("[Maria -> BigISP.member] Mark"), "{answer}");

    // List shows three credentials with ids, plus a metrics summary.
    let listing = ok(&home, &["list"]);
    assert_eq!(
        listing.lines().filter(|l| l.starts_with('#')).count(),
        3,
        "{listing}"
    );
    assert!(listing.contains("3 delegations"), "{listing}");

    // Revoke Maria's enrollment by id prefix and re-query.
    let line = listing
        .lines()
        .find(|l| l.contains("[Maria ->"))
        .expect("in list");
    let id_prefix = &line[1..9];
    let out = ok(&home, &["revoke", id_prefix]);
    assert!(out.contains("revoked"), "{out}");
    let answer = ok(&home, &["query", "Maria", "BigISP.member"]);
    assert!(answer.starts_with("DENIED"), "{answer}");

    let _ = std::fs::remove_dir_all(&home);
}

#[test]
fn attributes_and_constraints_through_the_cli() {
    let home = temp_home("attrs");
    ok(&home, &["keygen", "AirNet"]);
    ok(&home, &["keygen", "Maria"]);
    ok(&home, &["declare", "AirNet", "BW", "<=", "200"]);
    ok(
        &home,
        &[
            "delegate",
            "[Maria -> AirNet.access with AirNet.BW <= 100] AirNet",
        ],
    );

    let granted = ok(
        &home,
        &["query", "Maria", "AirNet.access", "AirNet.BW", "100"],
    );
    assert!(granted.starts_with("GRANTED"), "{granted}");
    assert!(granted.contains("BW=100"), "{granted}");
    let denied = ok(
        &home,
        &["query", "Maria", "AirNet.access", "AirNet.BW", "150"],
    );
    assert!(denied.starts_with("DENIED"), "{denied}");

    let _ = std::fs::remove_dir_all(&home);
}

/// Two fully separate context directories (two administrative domains)
/// exchanging identities and credentials through files — decentralization
/// with no shared state at all.
#[test]
fn two_homes_exchange_credentials_through_files() {
    let isp_home = temp_home("isp");
    let airport_home = temp_home("airport");
    let exchange = temp_home("exchange");
    std::fs::create_dir_all(&exchange).unwrap();
    let card = exchange.join("maria.entity");
    let cert_file = exchange.join("membership.cert");

    // The ISP domain: creates Maria and her membership credential.
    ok(&isp_home, &["keygen", "BigISP"]);
    ok(&isp_home, &["keygen", "Maria"]);
    ok(&isp_home, &["delegate", "[Maria -> BigISP.member] BigISP"]);
    ok(
        &isp_home,
        &["export-entity", "Maria", card.to_str().unwrap()],
    );
    ok(
        &isp_home,
        &[
            "export-entity",
            "BigISP",
            exchange.join("bigisp.entity").to_str().unwrap(),
        ],
    );
    let listing = ok(&isp_home, &["list"]);
    let id_prefix = &listing.lines().next().unwrap()[1..9];
    ok(
        &isp_home,
        &["export-cert", id_prefix, cert_file.to_str().unwrap()],
    );

    // The airport domain: knows nothing of the ISP until the files arrive.
    ok(&airport_home, &["keygen", "AirNet"]);
    assert!(fails(&airport_home, &["query", "Maria", "BigISP.member"]).contains("unknown entity"));
    ok(&airport_home, &["import-entity", card.to_str().unwrap()]);
    ok(
        &airport_home,
        &[
            "import-entity",
            exchange.join("bigisp.entity").to_str().unwrap(),
        ],
    );
    let out = ok(&airport_home, &["import-cert", cert_file.to_str().unwrap()]);
    assert!(out.contains("verified and published"), "{out}");

    // The signature carried across: the airport can now answer.
    let answer = ok(&airport_home, &["query", "Maria", "BigISP.member"]);
    assert!(answer.starts_with("GRANTED"), "{answer}");

    // A tampered credential file is rejected.
    let mut bytes = std::fs::read(&cert_file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&cert_file, bytes).unwrap();
    let err = fails(&airport_home, &["import-cert", cert_file.to_str().unwrap()]);
    assert!(
        err.contains("malformed") || err.contains("rejected"),
        "{err}"
    );

    // Name-collision defense: a *different* key arriving under an
    // already-known name is refused (two homes each mint their own
    // "Maria"; the airport keeps the one it trusted first).
    let second_isp = temp_home("isp2");
    ok(&second_isp, &["keygen", "Maria"]);
    ok(
        &second_isp,
        &["export-entity", "Maria", card.to_str().unwrap()],
    );
    let err = fails(&airport_home, &["import-entity", card.to_str().unwrap()]);
    assert!(err.contains("DIFFERENT key"), "{err}");
    let _ = std::fs::remove_dir_all(&second_isp);
    for dir in [&isp_home, &airport_home, &exchange] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The store subcommands over a real on-disk context: inspect lists the
/// journaled records, verify reports a clean log, compact checkpoints
/// (the second checkpoint truncates the log through the first one's base
/// run), and the wallet still answers afterwards.
#[test]
fn store_subcommands_inspect_verify_compact() {
    let home = temp_home("store");
    ok(&home, &["keygen", "BigISP"]);
    ok(&home, &["keygen", "Mark"]);
    ok(&home, &["keygen", "Maria"]);
    ok(
        &home,
        &["delegate", "[Mark -> BigISP.memberServices] BigISP"],
    );
    ok(
        &home,
        &[
            "delegate",
            "[BigISP.memberServices -> BigISP.member'] BigISP",
        ],
    );
    ok(&home, &["delegate", "[Maria -> BigISP.member] Mark"]);

    let inspected = ok(&home, &["store", "inspect"]);
    assert!(inspected.contains("3 record(s)"), "{inspected}");
    assert_eq!(
        inspected.lines().filter(|l| l.contains("publish")).count(),
        3,
        "{inspected}"
    );

    let verified = ok(&home, &["store", "verify"]);
    assert!(verified.contains("clean"), "{verified}");

    let compacted = ok(&home, &["store", "compact"]);
    assert!(compacted.contains("log kept whole"), "{compacted}");
    let compacted = ok(&home, &["store", "compact"]);
    assert!(
        compacted.contains("log truncated through seq 3"),
        "{compacted}"
    );
    let inspected = ok(&home, &["store", "inspect"]);
    assert!(inspected.contains("1 record(s)"), "{inspected}");
    assert!(inspected.contains("records below seq 3"), "{inspected}");
    assert!(!home.join("store").join("snapshot.bin").exists());
    let verified = ok(&home, &["store", "verify"]);
    assert!(verified.contains("clean"), "{verified}");

    // The wallet state survives the checkpoint: queries answer from the
    // index, and new mutations journal on top of it.
    let answer = ok(&home, &["query", "Maria", "BigISP.member"]);
    assert!(answer.starts_with("GRANTED"), "{answer}");
    ok(
        &home,
        &["delegate", "[Maria -> BigISP.memberServices] BigISP"],
    );
    let inspected = ok(&home, &["store", "inspect"]);
    assert!(inspected.contains("2 record(s)"), "{inspected}");
    assert!(
        inspected.contains("#     4"),
        "numbering continues: {inspected}"
    );

    let _ = std::fs::remove_dir_all(&home);
}

/// A torn final record — an append interrupted mid-write — is reported
/// by `store verify` (exit 1, read-only) and healed by the next normal
/// command, which recovers every fully written record.
#[test]
fn store_verify_flags_torn_tail_and_recovery_heals_it() {
    let home = temp_home("torn");
    ok(&home, &["keygen", "BigISP"]);
    ok(&home, &["keygen", "Maria"]);
    ok(&home, &["delegate", "[Maria -> BigISP.member] BigISP"]);

    // Tear the log: a half-written frame — a plausible header claiming
    // a 100-byte payload, but only 3 payload bytes made it to disk.
    let log_path = home.join("store").join("wal.log");
    let mut bytes = std::fs::read(&log_path).unwrap();
    let intact_len = bytes.len();
    bytes.extend_from_slice(&[0, 0, 0, 100]); // length prefix
    bytes.extend_from_slice(&[0xAB; 7]); // crc + a truncated payload
    std::fs::write(&log_path, &bytes).unwrap();

    let err = fails(&home, &["store", "verify"]);
    assert!(err.contains("NOT CLEAN"), "{err}");
    assert!(err.contains("torn tail"), "{err}");
    assert_eq!(
        std::fs::read(&log_path).unwrap().len(),
        intact_len + 11,
        "verify must not modify the log"
    );

    // Normal startup recovers: the committed delegation is still there,
    // and the heal leaves a clean log behind.
    let answer = ok(&home, &["query", "Maria", "BigISP.member"]);
    assert!(answer.starts_with("GRANTED"), "{answer}");
    ok(&home, &["list"]);
    let verified = ok(&home, &["store", "verify"]);
    assert!(verified.contains("clean"), "{verified}");

    let _ = std::fs::remove_dir_all(&home);
}

/// A context created before the write-ahead store (a bare `wallet.bin`
/// image) is refused with an error naming the file — never opened as an
/// empty wallet — until the image is removed.
#[test]
fn legacy_wallet_image_is_refused_naming_the_file() {
    let home = temp_home("legacy");
    ok(&home, &["keygen", "BigISP"]);
    ok(&home, &["keygen", "Maria"]);
    // The pre-store layout: an image beside a store that never
    // journaled anything.
    std::fs::write(home.join("wallet.bin"), b"an image from before the store").unwrap();

    for args in [&["query", "Maria", "BigISP.member"][..], &["list"]] {
        let err = fails(&home, args);
        assert!(err.contains("wallet.bin"), "{err}");
    }
    let err = fails(&home, &["delegate", "[Maria -> BigISP.member] BigISP"]);
    assert!(err.contains("wallet.bin"), "{err}");

    std::fs::remove_file(home.join("wallet.bin")).unwrap();
    ok(&home, &["delegate", "[Maria -> BigISP.member] BigISP"]);
    // Once the store has journaled, a stray image beside it is ignored.
    std::fs::write(home.join("wallet.bin"), b"an image from before the store").unwrap();
    let answer = ok(&home, &["query", "Maria", "BigISP.member"]);
    assert!(answer.starts_with("GRANTED"), "{answer}");

    let _ = std::fs::remove_dir_all(&home);
}

/// A home written before the index became the only checkpoint: its log
/// was compacted behind `store/snapshot.bin` (here, down to the bare
/// magic) while the index stayed current. It boots from the index,
/// answers, continues the sequence numbering, and drops the old image.
/// The index keeps state at rest only in its base run, so `store compact`
/// makes it current here; a home whose index is not current is refused
/// (the next test).
#[test]
fn pre_checkpoint_home_with_a_snapshot_image_boots_from_its_index() {
    let home = temp_home("prechange");
    ok(&home, &["keygen", "BigISP"]);
    ok(&home, &["keygen", "Maria"]);
    ok(&home, &["delegate", "[Maria -> BigISP.member] BigISP"]);
    ok(&home, &["store", "compact"]);
    let store = home.join("store");
    std::fs::write(store.join("wal.log"), b"drbacWL1").unwrap();
    std::fs::write(
        store.join("snapshot.bin"),
        b"drbacSN1 an image the log was compacted behind",
    )
    .unwrap();

    let answer = ok(&home, &["query", "Maria", "BigISP.member"]);
    assert!(answer.starts_with("GRANTED"), "{answer}");
    assert!(
        !store.join("snapshot.bin").exists(),
        "the old image is removed"
    );
    ok(&home, &["delegate", "[BigISP -> BigISP.member] BigISP"]);
    let inspected = ok(&home, &["store", "inspect"]);
    assert!(
        inspected.contains("#     2"),
        "numbering continues after the index: {inspected}"
    );
    let verified = ok(&home, &["store", "verify"]);
    assert!(verified.contains("clean"), "{verified}");

    let _ = std::fs::remove_dir_all(&home);
}

/// A home whose leftovers from an older release may hold records that
/// neither the log nor the index's base run does is refused before any
/// file changes, naming the file and the previous release's `store
/// compact`: a snapshot image beside an empty log and an index that holds
/// no record, or a delta log with records beside an empty log.
#[test]
fn a_home_whose_leftovers_hold_uncovered_records_is_refused_unchanged() {
    let imaged = temp_home("leftovers");
    ok(&imaged, &["keygen", "BigISP"]);
    ok(&imaged, &["keygen", "Maria"]);
    ok(&imaged, &["delegate", "[Maria -> BigISP.member] BigISP"]);
    let (store, index) = (imaged.join("store"), imaged.join("index"));
    std::fs::write(store.join("wal.log"), b"drbacWL1").unwrap();
    let image = b"drbacSN1 an image the log was compacted behind";
    std::fs::write(store.join("snapshot.bin"), image).unwrap();
    let tab = std::fs::read(index.join("index.tab")).unwrap();
    for args in [
        &["query", "Maria", "BigISP.member"][..],
        &["store", "compact"],
        &["store", "index", "rebuild"],
    ] {
        let err = fails(&imaged, args);
        assert!(
            err.contains("snapshot.bin")
                && err.contains("`drbac store compact`")
                && err.contains("nothing was changed"),
            "{args:?}: {err}"
        );
        assert_eq!(std::fs::read(store.join("snapshot.bin")).unwrap(), image);
        assert_eq!(std::fs::read(store.join("wal.log")).unwrap(), b"drbacWL1");
        assert_eq!(std::fs::read(index.join("index.tab")).unwrap(), tab);
    }

    // A current base run beside the image, but a delta log with records.
    let home = temp_home("leftovers-delta");
    ok(&home, &["keygen", "BigISP"]);
    ok(&home, &["keygen", "Maria"]);
    ok(&home, &["delegate", "[Maria -> BigISP.member] BigISP"]);
    ok(&home, &["store", "compact"]);
    let (store, index) = (home.join("store"), home.join("index"));
    std::fs::write(store.join("wal.log"), b"drbacWL1").unwrap();
    let delta = b"drbacIL1 records an older release never folded";
    std::fs::write(index.join("index.log"), delta).unwrap();
    let err = fails(&home, &["query", "Maria", "BigISP.member"]);
    assert!(
        err.contains("index.log") && err.contains("nothing was changed"),
        "{err}"
    );
    assert_eq!(std::fs::read(index.join("index.log")).unwrap(), delta);
    // Folded by the previous release, the delta log is its bare magic.
    std::fs::write(index.join("index.log"), b"drbacIL1").unwrap();
    let answer = ok(&home, &["query", "Maria", "BigISP.member"]);
    assert!(answer.starts_with("GRANTED"), "{answer}");
    assert!(!index.join("index.log").exists());

    let _ = std::fs::remove_dir_all(&imaged);
    let _ = std::fs::remove_dir_all(&home);
}

/// A home written when the index kept a delta log of its own: a leftover
/// `index/index.log` is never read — the boot catches the index up from
/// the log above its base run — and the first command that boots removes
/// it. `store inspect` and `store verify` leave it where it is.
#[test]
fn a_leftover_index_delta_log_is_ignored_and_removed() {
    let home = temp_home("deltalog");
    ok(&home, &["keygen", "BigISP"]);
    ok(&home, &["keygen", "Maria"]);
    ok(&home, &["delegate", "[Maria -> BigISP.member] BigISP"]);
    ok(&home, &["store", "compact"]);
    ok(&home, &["delegate", "[Maria -> BigISP.admin] BigISP"]);
    let leftover = home.join("index").join("index.log");
    std::fs::write(&leftover, b"garbage where an older delta log was").unwrap();

    let inspected = ok(&home, &["store", "inspect"]);
    assert!(
        inspected.contains("index: watermark 1, ")
            && inspected.contains("1 record(s) above the watermark (replayed at boot)")
            && !inspected.contains("STALE"),
        "{inspected}"
    );
    let verified = ok(&home, &["store", "verify"]);
    assert!(verified.contains("clean"), "{verified}");
    assert!(leftover.exists(), "inspect and verify are read-only");

    let answer = ok(&home, &["query", "Maria", "BigISP.admin"]);
    assert!(answer.starts_with("GRANTED"), "{answer}");
    assert!(!leftover.exists(), "the boot removed the leftover");
    let verified = ok(&home, &["store", "verify"]);
    assert!(verified.contains("clean"), "{verified}");

    let _ = std::fs::remove_dir_all(&home);
}

/// A checkpointed home: a damaged current base run is restored from the
/// previous one plus the log; with no previous run left, boot and `store
/// index rebuild` refuse — naming `drbac store verify` — and change no
/// file.
#[test]
fn checkpointed_home_restores_its_index_or_refuses() {
    let home = temp_home("checkpointed");
    ok(&home, &["keygen", "BigISP"]);
    ok(&home, &["keygen", "Maria"]);
    ok(&home, &["delegate", "[Maria -> BigISP.member] BigISP"]);
    ok(&home, &["store", "compact"]);
    ok(&home, &["delegate", "[BigISP -> BigISP.member] BigISP"]);
    let compacted = ok(&home, &["store", "compact"]);
    assert!(
        compacted.contains("log truncated through seq 1"),
        "{compacted}"
    );
    ok(&home, &["delegate", "[Maria -> BigISP.admin] BigISP"]);
    ok(&home, &["store", "compact"]);
    let inspected = ok(&home, &["store", "inspect"]);
    assert!(inspected.contains("records below seq 2"), "{inspected}");

    // The current run goes bad: verify says so, the next boot restores
    // the previous run and catches up from the log.
    let tab = home.join("index").join("index.tab");
    std::fs::write(&tab, b"not an index").unwrap();
    let err = fails(&home, &["store", "verify"]);
    assert!(err.contains("NOT CLEAN"), "{err}");
    let answer = ok(&home, &["query", "Maria", "BigISP.member"]);
    assert!(answer.starts_with("GRANTED"), "{answer}");
    let answer = ok(&home, &["query", "Maria", "BigISP.admin"]);
    assert!(answer.starts_with("GRANTED"), "{answer}");
    let verified = ok(&home, &["store", "verify"]);
    assert!(verified.contains("clean"), "{verified}");

    // Every run lost: nothing else holds the records below the log.
    let index = home.join("index");
    std::fs::remove_dir_all(&index).unwrap();
    std::fs::create_dir_all(&index).unwrap();
    std::fs::write(index.join("index.tab"), b"not an index").unwrap();
    let err = fails(&home, &["query", "Maria", "BigISP.member"]);
    assert!(err.contains("drbac store verify"), "{err}");
    let err = fails(&home, &["store", "index", "rebuild"]);
    assert!(err.contains("nothing was changed"), "{err}");
    assert_eq!(
        std::fs::read(index.join("index.tab")).unwrap(),
        b"not an index"
    );
    assert!(
        std::fs::read(home.join("store").join("wal.log"))
            .unwrap()
            .len()
            > 8
    );

    let _ = std::fs::remove_dir_all(&home);
}

/// `store verify` reads every block of the previous base run. Damage to
/// it is reported; it fails verify once the log no longer starts at seq
/// 1, because the run is then the only recovery source for a damaged
/// current run.
#[test]
fn store_verify_checks_the_previous_base_run() {
    let home = temp_home("prevrun");
    let prev = home.join("index").join("index.prev");
    let flip = |at: usize| {
        let mut bytes = std::fs::read(&prev).unwrap();
        bytes[at] ^= 0x01;
        std::fs::write(&prev, bytes).unwrap();
    };
    ok(&home, &["keygen", "BigISP"]);
    ok(&home, &["keygen", "Maria"]);
    ok(&home, &["delegate", "[Maria -> BigISP.member] BigISP"]);
    ok(&home, &["store", "compact"]);
    let verified = ok(&home, &["store", "verify"]);
    assert!(verified.contains("previous base run: (none)"), "{verified}");
    ok(&home, &["delegate", "[BigISP -> BigISP.member] BigISP"]);
    ok(&home, &["store", "compact"]);
    let verified = ok(&home, &["store", "verify"]);
    assert!(
        verified.contains("previous base run: watermark 1"),
        "{verified}"
    );

    // The log still starts at seq 1: it can rebuild everything alone.
    flip(40);
    let verified = ok(&home, &["store", "verify"]);
    assert!(verified.contains("(seq 1..2)"), "{verified}");
    assert!(
        verified.contains("DAMAGED — index/index.prev"),
        "{verified}"
    );

    // The next checkpoint replaces the run and truncates the log.
    ok(&home, &["delegate", "[Maria -> BigISP.admin] BigISP"]);
    ok(&home, &["store", "compact"]);
    let verified = ok(&home, &["store", "verify"]);
    assert!(verified.contains("(seq 2..3)"), "{verified}");
    assert!(
        verified.contains("previous base run: watermark 2"),
        "{verified}"
    );
    flip(40);
    let err = fails(&home, &["store", "verify"]);
    assert!(
        err.contains("NOT CLEAN — index/index.prev is damaged"),
        "{err}"
    );

    let _ = std::fs::remove_dir_all(&home);
}

#[test]
fn cli_error_paths() {
    let home = temp_home("errors");
    // Unknown command and missing args.
    assert!(fails(&home, &["frobnicate"]).contains("unknown command"));
    assert!(fails(&home, &["keygen"]).contains("usage"));
    // Unknown issuer entity in a delegation.
    ok(&home, &["keygen", "A"]);
    assert!(fails(&home, &["delegate", "[A -> Nobody.r] A"]).contains("unknown entity"));
    // Delegating for an entity we hold no key for.
    let err = fails(&home, &["delegate", "[A -> A.r] A0"]);
    assert!(
        err.contains("unknown entity") || err.contains("no local key"),
        "{err}"
    );
    // Duplicate keygen.
    assert!(fails(&home, &["keygen", "A"]).contains("already exists"));
    // Ambiguous / missing revoke prefix.
    assert!(fails(&home, &["revoke", "ffff"]).contains("no delegation matches"));

    let _ = std::fs::remove_dir_all(&home);
}
