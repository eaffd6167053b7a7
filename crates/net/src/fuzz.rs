//! Deterministic frame-corruption generator for the wire-decoder fuzz
//! lane (`tests/fuzz_frames.rs`, env-tunable via `NET_FUZZ_CASES` /
//! `NET_FUZZ_START`).
//!
//! Each case derives everything from its index through SplitMix64:
//! a random valid frame sequence, a corruption (truncation, bit flip,
//! oversized length prefix, or interleaved garbage), and a random
//! chunking of the bytes fed to the decoder. The invariants asserted
//! are the decoder's whole contract: never panic, never consume more
//! bytes than were fed, decode the clean sequence identically, and
//! report corruption only as a typed [`FrameError`].
//!
//! [`FrameError`]: crate::wire::FrameError

use crate::wire::{
    outcome_from_byte, put_varint, Decoder, ErrorCode, Family, FormulaRef, Frame, WireHealth,
    WireOutcomeKind, WireSpec, WireStats, MAX_FRAME_LEN, PROTOCOL_VERSION,
};

/// SplitMix64 step (same generator the fuzz harnesses use).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn random_frame(rng: &mut u64) -> Frame {
    match splitmix64(rng) % 12 {
        0 => Frame::Hello {
            version: PROTOCOL_VERSION,
        },
        1 => Frame::HelloAck {
            version: splitmix64(rng) % 4,
        },
        2 => Frame::Request {
            id: 1 + splitmix64(rng) % 1000,
            formula: FormulaRef::Inline({
                let len = (splitmix64(rng) % 40) as usize;
                (0..len).map(|_| (splitmix64(rng) & 0x7f) as u8).collect()
            }),
            spec: WireSpec {
                family: Family::from_u8((splitmix64(rng) % 4) as u8).unwrap_or(Family::UniGen),
                epsilon_bits: if splitmix64(rng) % 2 == 0 {
                    Some(splitmix64(rng))
                } else {
                    None
                },
                prepare_seed: splitmix64(rng),
            },
            count: splitmix64(rng) % 100,
            master_seed: splitmix64(rng),
            budget_micros: splitmix64(rng) % 1_000_000,
        },
        3 => Frame::Request {
            id: 1 + splitmix64(rng) % 1000,
            formula: FormulaRef::Fingerprint(splitmix64(rng)),
            spec: WireSpec {
                family: Family::UniGen,
                epsilon_bits: None,
                prepare_seed: splitmix64(rng),
            },
            count: splitmix64(rng) % 100,
            master_seed: splitmix64(rng),
            budget_micros: 0,
        },
        4 => Frame::Cancel {
            id: splitmix64(rng),
        },
        5 => Frame::HealthReq,
        6 => Frame::StreamBegin {
            id: splitmix64(rng) % 100,
            fingerprint: splitmix64(rng),
            sampling_set: {
                let n = (splitmix64(rng) % 20) as usize;
                (0..n).map(|_| (splitmix64(rng) % 5000) as u32).collect()
            },
        },
        7 => Frame::Chunk {
            id: splitmix64(rng) % 100,
            index: splitmix64(rng) % 1000,
            kind: outcome_from_byte((splitmix64(rng) % 4) as u8).unwrap_or(WireOutcomeKind::Bottom),
            bits: {
                let n = (splitmix64(rng) % 16) as usize;
                (0..n).map(|_| (splitmix64(rng) & 0xff) as u8).collect()
            },
        },
        8 => Frame::Done {
            id: splitmix64(rng) % 100,
            successes: splitmix64(rng) % 1000,
            stats: WireStats {
                bsat_calls: splitmix64(rng) % 10_000,
                steals: splitmix64(rng) % 100,
                retries: splitmix64(rng) % 10,
                degradations: splitmix64(rng) % 10,
                faults_injected: splitmix64(rng) % 10,
                queue_wait_micros: splitmix64(rng),
                wall_micros: splitmix64(rng),
            },
        },
        9 => Frame::Error {
            id: splitmix64(rng) % 100,
            code: ErrorCode::from_u8(1 + (splitmix64(rng) % 10) as u8)
                .unwrap_or(ErrorCode::Malformed),
            detail: {
                let len = (splitmix64(rng) % 30) as usize;
                (0..len)
                    .map(|_| char::from(b'a' + (splitmix64(rng) % 26) as u8))
                    .collect()
            },
        },
        10 => Frame::Health(WireHealth {
            services: splitmix64(rng) % 10,
            configured_workers: splitmix64(rng) % 64,
            alive_workers: splitmix64(rng) % 64,
            worker_panics: splitmix64(rng) % 4,
            respawns: splitmix64(rng) % 4,
            item_retries: splitmix64(rng) % 4,
            faults_injected: splitmix64(rng) % 4,
            pending_requests: splitmix64(rng) % 16,
            queued_items: splitmix64(rng) % 256,
            connections: splitmix64(rng) % 100,
        }),
        _ => Frame::Shutdown,
    }
}

/// Which corruption a case applied (for failure messages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Stream cut short mid-frame.
    Truncate,
    /// One random bit flipped.
    BitFlip,
    /// A length prefix claiming more than [`MAX_FRAME_LEN`] bytes.
    OversizedLength,
    /// Random garbage bytes spliced into the stream.
    InterleavedGarbage,
}

/// Run one deterministic corruption case. Returns a description of the
/// violated invariant on failure.
///
/// Reproduce a failing case `i` with:
/// `NET_FUZZ_START=i NET_FUZZ_CASES=1 cargo test -p unigen-net --test fuzz_frames`
pub fn frame_corruption_case(case: u64) -> Result<Corruption, String> {
    let mut rng = case.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d_4c95_7f2d;

    // 1. A clean multi-frame stream must decode byte-for-byte.
    let frame_count = 1 + (splitmix64(&mut rng) % 4) as usize;
    let frames: Vec<Frame> = (0..frame_count).map(|_| random_frame(&mut rng)).collect();
    let mut clean = Vec::new();
    for frame in &frames {
        clean.extend_from_slice(&frame.encode());
    }
    let mut decoder = Decoder::new();
    decoder.feed(&clean);
    for (i, expected) in frames.iter().enumerate() {
        match decoder.next_frame() {
            Ok(Some(got)) if &got == expected => {}
            other => {
                return Err(format!(
                    "clean frame {i} failed to round-trip: got {other:?}, expected {expected:?}"
                ))
            }
        }
    }
    match decoder.next_frame() {
        Ok(None) => {}
        other => return Err(format!("clean stream had residue: {other:?}")),
    }

    // 2. Corrupt the stream.
    let mut bytes = clean.clone();
    let corruption = match splitmix64(&mut rng) % 4 {
        0 => {
            let keep = (splitmix64(&mut rng) as usize) % bytes.len().max(1);
            bytes.truncate(keep);
            Corruption::Truncate
        }
        1 => {
            if !bytes.is_empty() {
                let bit = (splitmix64(&mut rng) as usize) % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            Corruption::BitFlip
        }
        2 => {
            let mut prefix = Vec::new();
            put_varint(
                &mut prefix,
                MAX_FRAME_LEN + 1 + splitmix64(&mut rng) % (1 << 30),
            );
            let at = (splitmix64(&mut rng) as usize) % (bytes.len() + 1);
            // Splice the hostile header at a byte boundary; whatever
            // follows becomes its (never-delivered) payload.
            let tail = bytes.split_off(at);
            bytes.extend_from_slice(&prefix);
            bytes.extend_from_slice(&tail);
            Corruption::OversizedLength
        }
        _ => {
            let n = 1 + (splitmix64(&mut rng) % 16) as usize;
            let at = (splitmix64(&mut rng) as usize) % (bytes.len() + 1);
            let garbage: Vec<u8> = (0..n)
                .map(|_| (splitmix64(&mut rng) & 0xff) as u8)
                .collect();
            let tail = bytes.split_off(at);
            bytes.extend_from_slice(&garbage);
            bytes.extend_from_slice(&tail);
            Corruption::InterleavedGarbage
        }
    };

    // 3. Feed the corrupted bytes in random-sized slices; the decoder
    //    must only ever yield frames or one typed error — no panics
    //    (the test driver wraps this in catch_unwind) and no
    //    over-reads past what was fed.
    let mut decoder = Decoder::new();
    let mut fed = 0usize;
    let mut decoded = 0usize;
    while fed < bytes.len() {
        let chunk = 1 + (splitmix64(&mut rng) as usize) % 37;
        let end = bytes.len().min(fed + chunk);
        decoder.feed(&bytes[fed..end]);
        fed = end;
        loop {
            match decoder.next_frame() {
                Ok(Some(_)) => {
                    decoded += 1;
                    if decoded > frames.len() + 20 {
                        return Err(format!(
                            "decoder invented frames: {decoded} decoded from {} corrupted bytes",
                            bytes.len()
                        ));
                    }
                }
                Ok(None) => break,
                // A typed error ends the case: real connections close
                // here and framing is not resynchronizable.
                Err(_) => return Ok(corruption),
            }
        }
        if decoder.buffered() > bytes.len() {
            return Err(format!(
                "decoder over-read: buffered {} of {} fed bytes",
                decoder.buffered(),
                bytes.len()
            ));
        }
    }
    Ok(corruption)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pin the case derivation so `NET_FUZZ_START` reproduction
    /// commands stay meaningful across refactors.
    #[test]
    fn case_derivation_is_stable() {
        let a = frame_corruption_case(0);
        let b = frame_corruption_case(0);
        assert_eq!(a, b, "case 0 must be deterministic");
        for case in 0..16 {
            frame_corruption_case(case).unwrap_or_else(|err| {
                panic!("fuzz case {case} violated a decoder invariant: {err}")
            });
        }
    }
}
