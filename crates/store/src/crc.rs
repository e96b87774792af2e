//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the one
//! checksum of the workspace: network frames (`crates/net/src/wire.rs`),
//! journal records and index blocks all call [`crc32`], and every
//! network frame pays it on both ends of every request. Implemented here
//! because the workspace vendors no checksum crate.
//!
//! Two paths compute the same function:
//!
//! * **Carry-less multiply** (x86_64 with PCLMULQDQ and SSE4.1, checked
//!   at run time once per process): folds four 128-bit lanes by 64
//!   bytes, then one lane by 16 bytes, then Barrett-reduces the lane to
//!   32 bits — the folding scheme of Gopal et al., "Fast CRC Computation
//!   for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009).
//!   It runs an order of magnitude above the table: ~0.05 against
//!   ~0.7 ns per byte at 1 KiB and 64 KiB (`codec/frame` bench).
//! * **Slicing-by-8 tables** (built at compile time): eight derived
//!   tables fold eight input bytes per step. This path stays because
//!   other CPUs need it, because the four-lane fold needs 64 bytes to
//!   start (shorter inputs are a few table steps), because the folding
//!   path hands it the last bytes below a whole lane, and because it is
//!   the oracle the folding path is tested against ([`crc32_portable`]).
//!
//! Both paths produce identical checksums, so nothing that was written
//! with one can fail to verify with the other.

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // tables[k][b] = CRC of byte b followed by k zero bytes — the
    // standard slicing construction.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static T: [[u32; 256]; 8] = build_tables();

/// Inputs shorter than this take the table path: the folding path needs
/// four 16-byte lanes to start.
const FOLD_MIN: usize = 64;

/// The CRC-32 checksum of `data`, on the fastest path this CPU has.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= FOLD_MIN && clmul::available() {
        // SAFETY: `available` checked that this CPU has PCLMULQDQ and
        // SSE4.1, the features `clmul::update` is compiled for.
        return !unsafe { clmul::update(!0, data) };
    }
    !update_table(!0, data)
}

/// The CRC-32 checksum of `data` on the table path alone — what
/// [`crc32`] computes on a CPU without carry-less multiply. It returns
/// the same value as [`crc32`] for every input; it is public so tests
/// and benches can hold the two paths side by side.
pub fn crc32_portable(data: &[u8]) -> u32 {
    !update_table(!0, data)
}

/// Advances the un-inverted CRC register `crc` over `data`, eight bytes
/// per step.
fn update_table(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = T[7][(lo & 0xFF) as usize]
            ^ T[6][((lo >> 8) & 0xFF) as usize]
            ^ T[5][((lo >> 16) & 0xFF) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][(hi & 0xFF) as usize]
            ^ T[2][((hi >> 8) & 0xFF) as usize]
            ^ T[1][((hi >> 16) & 0xFF) as usize]
            ^ T[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        let idx = ((crc ^ u32::from(byte)) & 0xFF) as usize;
        crc = (crc >> 8) ^ T[0][idx];
    }
    crc
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };
    use std::sync::OnceLock;

    // Folding constants for the reflected polynomial 0x1DB710641, as
    // x^k mod P(x), bit-reflected (Gopal et al., table of constants).
    /// x^(4·128+32) and x^(4·128−32): fold a lane 64 bytes forward.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// x^(128+32) and x^(128−32): fold a lane 16 bytes forward.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// x^64: reduce the 96-bit remainder to 64 bits.
    const K5: i64 = 0x1_63CD_6124;
    /// P(x) and μ = ⌊x^64 / P(x)⌋, for the Barrett reduction.
    const P_X: i64 = 0x1_DB71_0641;
    const U_PRIME: i64 = 0x1_F701_1641;

    /// Whether this CPU has the instructions [`update`] uses; asked of
    /// the CPU once per process.
    pub(super) fn available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
        })
    }

    /// Advances the un-inverted CRC register `crc` over `data`, which
    /// must be at least 64 bytes long; the last bytes below a whole
    /// 16-byte lane go through the table.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1 ([`available`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn update(crc: u32, data: &[u8]) -> u32 {
        assert!(
            data.len() >= super::FOLD_MIN,
            "the fold starts with 4 lanes"
        );
        let mut lanes = data.chunks_exact(16);
        let mut next = || {
            let lane = lanes.next().expect("a whole 16-byte lane");
            // SAFETY: `lane` is 16 readable bytes; the unaligned load
            // has no alignment requirement.
            unsafe { _mm_loadu_si128(lane.as_ptr().cast::<__m128i>()) }
        };

        // Four lanes, 64 bytes apart, each folded 64 bytes forward.
        let mut x3 = _mm_xor_si128(next(), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = next();
        let mut x1 = next();
        let mut x0 = next();
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut remaining = data.len() - 64;
        while remaining >= 64 {
            x3 = fold(x3, next(), k1k2);
            x2 = fold(x2, next(), k1k2);
            x1 = fold(x1, next(), k1k2);
            x0 = fold(x0, next(), k1k2);
            remaining -= 64;
        }

        // The four lanes into one, then one lane 16 bytes at a time.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x3, x2, k3k4);
        x = fold(x, x1, k3k4);
        x = fold(x, x0, k3k4);
        while remaining >= 16 {
            x = fold(x, next(), k3k4);
            remaining -= 16;
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction, 64 → 32 bits (bit-reflected: the result is
        // the upper half of the low 64 bits).
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;

        super::update_table(crc, lanes.remainder())
    }

    /// `acc` carried 128 bits forward by the distance `keys` encodes,
    /// plus `lane`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, lane: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(lane, lo), hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both paths, named for failure messages: the table, and what
    /// `crc32` dispatches to on this CPU (the fold, for inputs of 64
    /// bytes and more, where the CPU has carry-less multiply).
    const PATHS: [(&str, Crc32); 2] = [("portable", crc32_portable), ("dispatched", crc32)];

    type Crc32 = fn(&[u8]) -> u32;

    #[test]
    fn known_vectors() {
        for (name, crc) in PATHS {
            // The standard check value for CRC-32/IEEE.
            assert_eq!(crc(b"123456789"), 0xCBF4_3926, "{name}");
            assert_eq!(crc(b""), 0, "{name}");
            assert_eq!(crc(b"a"), 0xE8B7_BE43, "{name}");
            // 64 bytes and more: the folding path's own inputs.
            let long = b"123456789".repeat(64);
            assert_eq!(crc(&long), crc32_portable(&long), "{name}");
        }
    }

    #[test]
    fn single_bit_flips_always_detected() {
        let short: &[u8] = b"the quick brown fox jumps over the lazy dog";
        let long = short.repeat(5);
        for (name, crc) in PATHS {
            for data in [short, &long] {
                let clean = crc(data);
                let mut copy = data.to_vec();
                for byte in 0..copy.len() {
                    for bit in 0..8 {
                        copy[byte] ^= 1 << bit;
                        assert_ne!(crc(&copy), clean, "{name}: flip at {byte}:{bit} undetected");
                        copy[byte] ^= 1 << bit;
                    }
                }
            }
        }
    }

    /// The folding path equals the table at every length from 0 to
    /// 4,096 and at every start offset within a 16-byte lane, so no
    /// alignment or lane-remainder case is left unchecked.
    #[test]
    fn every_path_matches_the_table_at_every_length_and_offset() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4_096 + 16)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for offset in 0..16 {
            for len in 0..=4_096 {
                let input = &data[offset..offset + len];
                let expected = crc32_portable(input);
                for (name, crc) in PATHS {
                    assert_eq!(
                        crc(input),
                        expected,
                        "{name}: length {len} at offset {offset}"
                    );
                }
            }
        }
    }
}
