//! World W: the seeded delegation set the daemon workloads serve, its
//! ground truth, and the query streams drawn from it.
//!
//! Everything here is a pure function of `--seed`: keys, certificates
//! (Schnorr signing is deterministic), the rank permutation behind the
//! Zipf draw, and every query stream. The daemon under test sees only
//! these generated inputs.

use std::sync::Arc;

use drbac::core::{LocalEntity, Node, SignedDelegation};
use drbac::crypto::SchnorrGroup;
use drbac::net::proto::Request;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Rungs per user ladder: `user → l{u}d0 → l{u}d1 → l{u}d2 → l{u}d3`.
pub const LADDER_DEPTH: usize = 4;

/// World dimensions. The full size is fixed by the benchmark; `--quick`
/// shrinks it for the self-test.
#[derive(Debug, Clone, Copy)]
pub struct WorldSize {
    /// Users, each with a depth-[`LADDER_DEPTH`] role ladder.
    pub users: usize,
    /// Filler certificates in roles no query touches (index and log
    /// bulk that cold reads must step over).
    pub filler: usize,
    /// `(user, rung)` pairs with no proof.
    pub unprovable: usize,
}

impl WorldSize {
    /// 4,096 delegations: 512 users × 4 rungs + 2,048 filler; 2,048
    /// provable and 256 unprovable pairs. (The issue asked for 10,000;
    /// three set-ups of that size do not fit the driver's time cap.)
    pub const FULL: WorldSize = WorldSize {
        users: 512,
        filler: 2048,
        unprovable: 256,
    };
    /// The `--quick` world: 256 delegations.
    pub const QUICK: WorldSize = WorldSize {
        users: 32,
        filler: 128,
        unprovable: 16,
    };

    pub fn delegations(&self) -> usize {
        self.users * LADDER_DEPTH + self.filler
    }
}

/// One query and the decision ground truth demands.
#[derive(Debug, Clone)]
pub struct Query {
    pub subject: Node,
    pub object: Node,
    pub expect_grant: bool,
}

impl Query {
    pub fn request(&self) -> Request {
        Request::DirectQuery {
            subject: self.subject.clone(),
            object: self.object.clone(),
            constraints: Vec::new(),
        }
    }
}

/// The generated world.
pub struct World {
    pub seed: u64,
    /// Issuer of every certificate (and of the mix workload's writes).
    pub owner: LocalEntity,
    /// Every delegation, in publication order.
    pub certs: Vec<Arc<SignedDelegation>>,
    /// Provable `(user, rung)` pairs in Zipf rank order (rank 0 is the
    /// hottest); the order is a seeded shuffle.
    pub provable: Vec<Query>,
    pub unprovable: Vec<Query>,
    /// Cumulative Zipf(1.0) weights over `provable`, normalised to 1.
    zipf_cdf: Vec<f64>,
}

impl World {
    /// Generates and signs the world for `seed`.
    pub fn generate(seed: u64, size: WorldSize) -> World {
        let mut rng = StdRng::seed_from_u64(seed);
        let group = SchnorrGroup::test_256();
        let owner = LocalEntity::generate("Owner", group.clone(), &mut rng);
        let rung = |u: usize, d: usize| Node::role(owner.role(&format!("l{u}d{d}")));
        let sign = |subject: Node, object: Node| {
            Arc::new(
                owner
                    .delegate(subject, object)
                    .sign(&owner)
                    .expect("owner signs its own roles"),
            )
        };

        let mut certs = Vec::with_capacity(size.delegations());
        let mut provable = Vec::with_capacity(size.users * LADDER_DEPTH);
        let mut users = Vec::with_capacity(size.users);
        for u in 0..size.users {
            let user = LocalEntity::generate(format!("U{u}"), group.clone(), &mut rng);
            certs.push(sign(Node::entity(&user), rung(u, 0)));
            for d in 1..LADDER_DEPTH {
                certs.push(sign(rung(u, d - 1), rung(u, d)));
            }
            for d in 0..LADDER_DEPTH {
                provable.push(Query {
                    subject: Node::entity(&user),
                    object: rung(u, d),
                    expect_grant: true,
                });
            }
            users.push(user);
        }
        for f in 0..size.filler {
            certs.push(sign(
                Node::role(owner.role(&format!("fill{f}a"))),
                Node::role(owner.role(&format!("fill{f}b"))),
            ));
        }
        // A user never reaches another user's ladder: the search walks
        // the asker's own four rungs and comes back empty.
        let unprovable = (0..size.unprovable)
            .map(|i| {
                let u = rng.gen_range(0..size.users);
                let v = (u + 1 + rng.gen_range(0..size.users - 1)) % size.users;
                Query {
                    subject: Node::entity(&users[u]),
                    object: rung(v, i % LADDER_DEPTH),
                    expect_grant: false,
                }
            })
            .collect();
        provable.shuffle(&mut rng);

        let mut acc = 0.0;
        let mut zipf_cdf: Vec<f64> = (1..=provable.len())
            .map(|rank| {
                acc += 1.0 / rank as f64;
                acc
            })
            .collect();
        for w in &mut zipf_cdf {
            *w /= acc;
        }
        World {
            seed,
            owner,
            certs,
            provable,
            unprovable,
            zipf_cdf,
        }
    }

    /// One draw of the read mix: 90% a provable pair by Zipf(1.0)
    /// rank, 10% a uniformly chosen unprovable pair.
    pub fn draw(&self, rng: &mut StdRng) -> &Query {
        if rng.gen_range(0..10u32) == 0 {
            &self.unprovable[rng.gen_range(0..self.unprovable.len())]
        } else {
            let x: f64 = rng.gen();
            let rank = self.zipf_cdf.partition_point(|&c| c < x);
            &self.provable[rank.min(self.provable.len() - 1)]
        }
    }

    /// The `n`-query stream of round `round` on stream `lane` (lanes
    /// keep phases of one workload from replaying each other's draws).
    pub fn stream(&self, lane: u64, round: u64, n: usize) -> Vec<Query> {
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (round << 20),
        );
        (0..n).map(|_| self.draw(&mut rng).clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_world_and_streams() {
        let a = World::generate(7, WorldSize::QUICK);
        let b = World::generate(7, WorldSize::QUICK);
        assert_eq!(a.certs.len(), WorldSize::QUICK.delegations());
        let ids = |w: &World| w.certs.iter().map(|c| c.id()).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b));
        let objects = |w: &World| {
            w.stream(1, 3, 200)
                .iter()
                .map(|q| q.object.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(objects(&a), objects(&b));
        assert_ne!(ids(&a), ids(&World::generate(8, WorldSize::QUICK)));
    }

    #[test]
    fn stream_mix_is_zipf_heavy_and_one_tenth_unprovable() {
        let w = World::generate(2002, WorldSize::QUICK);
        let s = w.stream(0, 0, 20_000);
        let denies = s.iter().filter(|q| !q.expect_grant).count();
        assert!((1_600..2_400).contains(&denies), "{denies} denies");
        let hottest = &w.provable[0];
        let hot = s
            .iter()
            .filter(|q| q.subject == hottest.subject && q.object == hottest.object)
            .count();
        // Rank 0 of 128 under Zipf(1.0) carries ~18% of the grants.
        assert!(hot > 2_000, "hottest pair drawn {hot} times");
    }
}
