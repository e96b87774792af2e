//! Index format 2 over a format-1 table: a delegation index written
//! when every publish also kept `d/` (metadata), `i/` (issuer) and `g/`
//! (tag home) rows opens with those rows inert, answers exactly as a
//! wallet replayed from the journal, expires a credential without
//! touching them, and is stamped format 2 so a binary that maintains
//! them refuses it. An unknown version is still refused.

use std::sync::Arc;

use drbac::core::{
    AttrConstraint, AttrDeclaration, AttrOp, DiscoveryTag, LocalEntity, Node, Proof,
    SignedAttrDeclaration, SignedDelegation, SignedRevocation, SimClock, Ticks, Timestamp,
};
use drbac::crypto::SchnorrGroup;
use drbac::index::{DelegationIndex, FileTable, TableBackend, TableOp};
use drbac::store::{Medium, MemMedium, WalletStore};
use drbac::wallet::{DurableWallet, Wallet};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FORMAT_KEY: &[u8] = b"mformat";

/// A file table over the two shared in-memory media of one index.
fn table(media: &[MemMedium; 2]) -> FileTable {
    let [tab, prev] = media.clone().map(|m| Box::new(m) as Box<dyn Medium>);
    FileTable::from_media(tab, prev).unwrap()
}

fn format(media: &[MemMedium; 2]) -> u64 {
    let value = table(media).get(FORMAT_KEY).unwrap().expect("stamped");
    u64::from_be_bytes(value.try_into().unwrap())
}

/// Every answer the queries below give, as proof bytes.
fn answers(wallet: &Wallet, subjects: &[Node], objects: &[Node]) -> Vec<Vec<Vec<u8>>> {
    let bytes = |proofs: Vec<Proof>| proofs.iter().map(Proof::to_bytes).collect::<Vec<_>>();
    let mut out = Vec::new();
    for subject in subjects {
        out.push(bytes(wallet.query_subject(subject, &[])));
        for object in objects {
            out.push(bytes(
                wallet
                    .find_proof(subject, object, &[])
                    .into_iter()
                    .collect(),
            ));
        }
    }
    for object in objects {
        out.push(bytes(wallet.query_object(object, &[])));
    }
    out
}

#[test]
fn a_format_1_table_opens_answers_expires_and_is_restamped() {
    let mut rng = StdRng::seed_from_u64(3535);
    let g = SchnorrGroup::test_256();
    let org = LocalEntity::generate("Org", g.clone(), &mut rng);
    let admin = LocalEntity::generate("Admin", g.clone(), &mut rng);
    let user = LocalEntity::generate("User", g, &mut rng);
    let clock = SimClock::new();
    let store = Arc::new(WalletStore::in_memory());
    let media = [MemMedium::new(), MemMedium::new()];
    let boot = || {
        let index = Arc::new(DelegationIndex::open(Box::new(table(&media))).unwrap());
        DurableWallet::open_indexed("home", clock.clone(), Arc::clone(&store), index).unwrap()
    };

    let (member, staff, guest) = (org.role("member"), org.role("staff"), org.role("guest"));
    let quota = org.attr("quota", AttrOp::Min);
    let certs: Vec<SignedDelegation> = vec![
        org.delegate(Node::entity(&admin), Node::role_admin(member.clone()))
            .sign(&org)
            .unwrap(),
        admin
            .delegate(Node::entity(&user), Node::role(member.clone()))
            .subject_tag(DiscoveryTag::new("user.home"))
            .sign(&admin)
            .unwrap(),
        org.delegate(Node::role(member.clone()), Node::role(staff.clone()))
            .with_attr(quota.clone(), 5.0)
            .unwrap()
            .sign(&org)
            .unwrap(),
        org.delegate(Node::entity(&user), Node::role(guest.clone()))
            .expires(Timestamp(50))
            .object_tag(DiscoveryTag::new("org.home"))
            .sign(&org)
            .unwrap(),
        org.delegate(Node::entity(&admin), Node::role(guest.clone()))
            .sign(&org)
            .unwrap(),
    ];
    let (guest_grant, revoked) = (certs[3].id(), certs[4].clone());
    {
        let (wallet, _) = boot();
        let decl =
            SignedAttrDeclaration::sign(AttrDeclaration::new(quota.clone(), 10.0).unwrap(), &org)
                .unwrap();
        wallet.publish_declaration(&decl).unwrap();
        for cert in &certs {
            wallet.publish(cert.clone(), vec![]).unwrap();
        }
        let revocation = SignedRevocation::revoke(&revoked, &org, clock.now()).unwrap();
        wallet.revoke(&revocation).unwrap();
        wallet.checkpoint().unwrap();
    }

    // Turn the table into what format 1 wrote: the same families plus a
    // `d/`, an `i/` and a `g/` row per credential, stamped 1.
    {
        let old = table(&media);
        let mut ids = Vec::new();
        old.scan_prefix(b"c", &mut |_, v| {
            ids.push(SignedDelegation::from_bytes(v).unwrap());
            true
        })
        .unwrap();
        let mut batch = Vec::new();
        for cert in &ids {
            let id = cert.id().0;
            let d = cert.delegation();
            let put = |key: Vec<u8>| TableOp::Put {
                key,
                value: b"format 1".to_vec(),
            };
            batch.push(put([&b"d"[..], &id].concat()));
            batch.push(put([&b"i"[..], &d.issuer().0 .0, &id].concat()));
            for tag in [d.subject_tag(), d.object_tag()].into_iter().flatten() {
                let home = tag.home().as_str().as_bytes();
                let len = (home.len() as u64).to_be_bytes();
                batch.push(put([&b"g"[..], &len, home, &id].concat()));
            }
        }
        assert_eq!(batch.len(), 2 * certs.len() + 2);
        batch.push(TableOp::Put {
            key: FORMAT_KEY.to_vec(),
            value: 1u64.to_be_bytes().to_vec(),
        });
        old.apply(&batch).unwrap();
        old.compact().unwrap();
    }
    assert_eq!(format(&media), 1);

    // Opens, lazily, and answers byte for byte as a full replay does.
    let subjects = [Node::entity(&user), Node::entity(&admin)];
    let objects = [
        Node::role(member.clone()),
        Node::role(staff.clone()),
        Node::role(guest.clone()),
        Node::role_admin(member),
    ];
    let (wallet, report) = boot();
    assert!(report.lazy, "{report:?}");
    let (replayed, _) = DurableWallet::open("home", clock.clone(), Arc::clone(&store)).unwrap();
    let expected = answers(&replayed, &subjects, &objects);
    assert_eq!(answers(&wallet, &subjects, &objects), expected);
    let capped = [AttrConstraint::at_least(quota, 6.0)];
    assert_eq!(
        wallet
            .find_proof(&subjects[0], &objects[1], &capped)
            .is_some(),
        replayed
            .find_proof(&subjects[0], &objects[1], &capped)
            .is_some()
    );

    // Expires the tagged, expiring grant cleanly.
    clock.advance(Ticks(100));
    assert_eq!(wallet.process_expiries().0, vec![guest_grant]);
    let index = wallet.index().expect("the index stays attached");
    assert!(index.cert(guest_grant).unwrap().is_none());
    assert!(index.expired_ids(Timestamp(1_000)).unwrap().0.is_empty());
    assert!(!index
        .ids_by_subject(&Node::entity(&user))
        .unwrap()
        .contains(&guest_grant));
    assert_eq!(index.cert_count().unwrap(), certs.len() as u64 - 1);
    replayed.process_expiries();
    assert_eq!(
        answers(&wallet, &subjects, &objects),
        answers(&replayed, &subjects, &objects)
    );
    index.flush().unwrap();
    drop((wallet, index));

    // Stamped format 2; a version this binary does not know is refused.
    assert_eq!(format(&media), 2);
    let future = table(&media);
    future
        .apply(&[TableOp::Put {
            key: FORMAT_KEY.to_vec(),
            value: 3u64.to_be_bytes().to_vec(),
        }])
        .unwrap();
    assert!(DelegationIndex::open(Box::new(future)).is_err());
}
