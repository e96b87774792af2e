//! Continuous monitoring of a long-lived interaction (§4.2.2): a
//! role-gated data feed over a switchboard channel, terminated mid-stream
//! by a pushed revocation, then re-established through an alternate
//! delegation path.
//!
//! ```sh
//! cargo run --example continuous_monitoring
//! ```

use drbac::core::{LocalEntity, Node, SignedRevocation, SimClock};
use drbac::crypto::SchnorrGroup;
use drbac::net::Switchboard;
use drbac::wallet::Wallet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc;
use std::time::Duration;

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

    // Establish a role-gated secure channel: the client must prove the
    // subscriber role; the channel stays open only while the proof holds.
    let switchboard = Switchboard::new();
    let channel = switchboard.connect_role_gated(
        &client,
        &provider,
        &wallet,
        subscriber_role.clone(),
        clock.now(),
        &mut rng,
    )?;
    println!("channel open: {}", channel.is_open());

    // Stream a few sealed frames.
    for i in 0..3 {
        let frame = format!("tick {i}: price=42.{i}");
        let sealed = channel.seal(frame.as_bytes())?;
        let opened = channel.open(&sealed)?;
        println!(
            "frame {i}: {} ({} sealed bytes)",
            String::from_utf8_lossy(&opened),
            sealed.len()
        );
    }

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
    println!("channel open: {}", channel.is_open());
    assert!(!channel.is_open());
    assert!(channel.seal(b"more data").is_err());

    // Path 2: the provider re-enrolls the client directly; a fresh proof
    // and channel restore service.
    println!("\nprovider re-enrolls the client directly...");
    wallet.publish(
        provider
            .delegate(Node::entity(&client), Node::role(subscriber_role.clone()))
            .sign(&provider)?,
        vec![],
    )?;
    let channel2 = switchboard.connect_role_gated(
        &client,
        &provider,
        &wallet,
        subscriber_role,
        clock.now(),
        &mut rng,
    )?;
    println!("new channel open: {}", channel2.is_open());
    let sealed = channel2.seal(b"service restored")?;
    println!(
        "frame: {}",
        String::from_utf8_lossy(&channel2.open(&sealed)?)
    );

    Ok(())
}
