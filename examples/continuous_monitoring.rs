//! Continuous monitoring of a long-lived interaction (§4.2.2): a
//! role-gated data feed behind a `ProtectedResource`, terminated
//! mid-stream by a pushed revocation, then re-established through an
//! alternate delegation path.
//!
//! ```sh
//! cargo run --example continuous_monitoring
//! ```

use drbac::core::{LocalEntity, Node, SignedRevocation, SimClock};
use drbac::crypto::SchnorrGroup;
use drbac::disco::{AccessSession, ProtectedResource};
use drbac::wallet::Wallet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc;
use std::time::Duration;

/// Delivers `frames` while the session stays active; `None` once it has
/// ended.
fn deliver(session: &AccessSession, frames: &[String]) -> Option<usize> {
    let mut sent = 0;
    for frame in frames {
        if !session.is_active() {
            return None;
        }
        println!("{}: {frame}", session.resource());
        sent += 1;
    }
    Some(sent)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(11);
    let group = SchnorrGroup::test_256();
    let provider = LocalEntity::generate("FeedProvider", group.clone(), &mut rng);
    let broker = LocalEntity::generate("Broker", group.clone(), &mut rng);
    let client = LocalEntity::generate("Client", group, &mut rng);

    let clock = SimClock::new();
    let wallet = Wallet::new("wallet.provider.example", clock.clone());
    let subscriber_role = provider.role("feed-subscriber");

    // Path 1: the broker enrolls the client (third-party delegation).
    wallet.publish(
        provider
            .delegate(
                Node::entity(&broker),
                Node::role_admin(subscriber_role.clone()),
            )
            .sign(&provider)?,
        vec![],
    )?;
    let enrollment = broker
        .delegate(Node::entity(&client), Node::role(subscriber_role.clone()))
        .sign(&broker)?;
    wallet.publish(enrollment.clone(), vec![])?;

    // The feed is a resource behind the subscriber role: the client must
    // prove the role, and the session lives only while the proof holds.
    let feed = ProtectedResource::new("price-feed", subscriber_role.clone(), wallet.clone());
    let principal = Node::entity(&client);
    let session = feed.authorize(&principal)?;
    println!("session active: {}", session.is_active());

    let ticks: Vec<String> = (0..3).map(|i| format!("tick {i}: price=42.{i}")).collect();
    assert_eq!(deliver(&session, &ticks), Some(3));

    // A delegation subscription pushes the revocation event onto a
    // channel the moment it happens — the push model of §4.2.2, no
    // polling anywhere.
    let (publisher, events) = mpsc::channel();
    wallet.subscribe(enrollment.id(), move |event| {
        let _ = publisher.send(event);
    });

    println!("\nbroker revokes the client's enrollment mid-stream...");
    let revocation = SignedRevocation::revoke(&enrollment, &broker, clock.now())?;
    wallet.revoke(&revocation)?;

    let event = events.recv_timeout(Duration::from_secs(2))?;
    println!("push received: {event}");
    println!("session active: {}", session.is_active());
    assert!(!session.is_active());
    assert_eq!(deliver(&session, &["more data".to_string()]), None);
    assert!(feed.authorize(&principal).is_err());

    // Path 2: the provider re-enrolls the client directly; a fresh proof
    // and session restore service.
    println!("\nprovider re-enrolls the client directly...");
    wallet.publish(
        provider
            .delegate(Node::entity(&client), Node::role(subscriber_role))
            .sign(&provider)?,
        vec![],
    )?;
    let session2 = feed.authorize(&principal)?;
    println!("new session active: {}", session2.is_active());
    assert_eq!(
        deliver(&session2, &["service restored".to_string()]),
        Some(1)
    );

    Ok(())
}
