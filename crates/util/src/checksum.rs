//! Content checksums.
//!
//! Every persisted artifact is a segment (see [`crate::segment`]), and every
//! byte of a segment is vouched for by a CRC-32: each block's payload and the
//! directory carry one, and a reader compares it before interpreting what it
//! covers.
//!
//! The checksum is CRC-32 (IEEE 802.3, reflected, the `cksum`/zlib
//! polynomial), dependency-free — the whole workspace is offline, and
//! CRC32's burst-error detection is exactly what torn writes and single-bit
//! flips look like. It is **not** cryptographic and does not pretend to be:
//! the threat model is storage corruption, not adversaries.
//!
//! The kernel is portable **slice-by-16** run in **two lanes**. Sixteen
//! 256-entry tables built at compile time fold sixteen input bytes per
//! step with sixteen independent lookups, where a bytewise loop makes one
//! dependent lookup per byte. One step still waits on the last, so each
//! 1 KiB span is split into two 512-byte halves folded by the same loop as
//! two independent registers: the first carries the running state, the
//! second starts from zero. CRC is linear over GF(2), so the span's state
//! is the first register fed 512 zero bytes, xored with the second; four
//! more compile-time tables do that feeding in four lookups. What is left
//! after the last whole span takes plain slice-by-16 steps, then a
//! bytewise tail. An 8 KiB buffer verifies at ~2.5 GB/s on a 2.1 GHz
//! Xeon, against ~1.6 GB/s for one lane and ~0.3 GB/s bytewise. Safe code
//! only, no CPU-feature dispatch: every host runs the same instructions.
//! This CRC sits under every cold block read of the paged tier, every
//! checkpoint and every recover, so its speed is query latency, not
//! housekeeping. A block is checked on its own, so its length is what
//! decides the path: a page of the default 2 rows at `dim` 128 is 1 KiB,
//! exactly one span, and a page under 1 KiB (one row at `dim` 128, or any
//! page of a small `dim`) never takes the two-lane path and runs at the
//! one-lane rate.
//!
//! **Digest stability.** The digest is part of the on-disk format of every
//! `WGSG` segment. Any replacement kernel must be bit-identical for every
//! input and every `Crc32::update` split; the tests pin that against the
//! bytewise reference loop and against digests written down as literals.

/// Reflected IEEE CRC-32 polynomial (zlib, PNG, `cksum -o 3`).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Input bytes folded per kernel step, and the number of lookup tables.
const SLICES: usize = 16;

/// Bytes per lane: [`Crc32::update`] folds each `2 * LANE`-byte span as two
/// halves at once, so a span is `LANE / SLICES` steps of two independent
/// lookup chains. Lanes of 256 or 1,024 bytes, and four lanes, verify an
/// 8 KiB buffer no faster (EXPERIMENTS.md "Two checksum lanes").
const LANE: usize = 512;

/// The register fed one zero bit, with no pre- or post-inversion.
const fn zero_bit(crc: u32) -> u32 {
    if crc & 1 != 0 {
        (crc >> 1) ^ CRC32_POLY
    } else {
        crc >> 1
    }
}

/// `CRC32_TABLES[0]` is the classic bytewise table; `CRC32_TABLES[k][b]` is
/// the CRC state after byte `b` followed by `k` zero bytes, which is what
/// lets one step fold `SLICES` bytes with independent lookups. Generated at
/// compile time (16 KiB of read-only data).
static CRC32_TABLES: [[u32; 256]; SLICES] = {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = zero_bit(crc);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// `SHIFT_TABLES[k][b]` is the register `b << 8k` fed `LANE` zero bytes:
/// multiplication by x^(8·LANE) mod P, split by input byte. The register
/// is linear over GF(2), so [`shift`] of any state is four lookups xored.
/// Built from the 32 unit states, each run through the zero bits once, at
/// compile time (4 KiB of read-only data).
static SHIFT_TABLES: [[u32; 256]; 4] = {
    let mut unit = [0u32; 32];
    let mut j = 0;
    while j < 32 {
        let mut crc = 1u32 << j;
        let mut bit = 0;
        while bit < 8 * LANE {
            crc = zero_bit(crc);
            bit += 1;
        }
        unit[j] = crc;
        j += 1;
    }
    let mut tables = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut i = 0;
            while i < 8 {
                if (b >> i) & 1 != 0 {
                    tables[k][b] ^= unit[8 * k + i];
                }
                i += 1;
            }
            b += 1;
        }
        k += 1;
    }
    tables
};

/// The register `crc` fed `LANE` zero bytes.
#[inline(always)]
fn shift(crc: u32) -> u32 {
    let t = &SHIFT_TABLES;
    t[0][(crc & 0xFF) as usize]
        ^ t[1][((crc >> 8) & 0xFF) as usize]
        ^ t[2][((crc >> 16) & 0xFF) as usize]
        ^ t[3][(crc >> 24) as usize]
}

/// One slice-by-16 step: the register `crc` fed the sixteen bytes of `c`
/// (a `SLICES`-byte chunk).
#[inline(always)]
fn fold16(crc: u32, c: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    // The running state only enters the first word; the other twelve bytes
    // index their tables directly.
    let w0 = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
    let w1 = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
    let w2 = u32::from_le_bytes([c[8], c[9], c[10], c[11]]);
    let w3 = u32::from_le_bytes([c[12], c[13], c[14], c[15]]);
    t[15][(w0 & 0xFF) as usize]
        ^ t[14][((w0 >> 8) & 0xFF) as usize]
        ^ t[13][((w0 >> 16) & 0xFF) as usize]
        ^ t[12][(w0 >> 24) as usize]
        ^ t[11][(w1 & 0xFF) as usize]
        ^ t[10][((w1 >> 8) & 0xFF) as usize]
        ^ t[9][((w1 >> 16) & 0xFF) as usize]
        ^ t[8][(w1 >> 24) as usize]
        ^ t[7][(w2 & 0xFF) as usize]
        ^ t[6][((w2 >> 8) & 0xFF) as usize]
        ^ t[5][((w2 >> 16) & 0xFF) as usize]
        ^ t[4][(w2 >> 24) as usize]
        ^ t[3][(w3 & 0xFF) as usize]
        ^ t[2][((w3 >> 8) & 0xFF) as usize]
        ^ t[1][((w3 >> 16) & 0xFF) as usize]
        ^ t[0][(w3 >> 24) as usize]
}

/// Streaming CRC-32 state: feed bytes with [`Crc32::update`], read the
/// digest with [`Crc32::finalize`]. One-shot hashing goes through
/// [`crc32`].
struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh state (the standard all-ones preset).
    fn new() -> Self {
        Self { state: !0 }
    }

    /// Absorb a chunk. Chunking never changes the digest:
    /// `update(a); update(b)` equals `update(ab)`.
    fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut spans = bytes.chunks_exact(2 * LANE);
        for span in &mut spans {
            // Lane 0 carries the running state through the first half;
            // lane 1 starts from zero on the second. Feeding lane 0's
            // result the second half's length of zeros and xoring lane 1
            // in is exactly the register after the whole span.
            let (first, second) = span.split_at(LANE);
            let (mut x, mut y) = (crc, 0);
            for (a, b) in first.chunks_exact(SLICES).zip(second.chunks_exact(SLICES)) {
                x = fold16(x, a);
                y = fold16(y, b);
            }
            crc = shift(x) ^ y;
        }
        let mut steps = spans.remainder().chunks_exact(SLICES);
        for c in &mut steps {
            crc = fold16(crc, c);
        }
        for &b in steps.remainder() {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The digest of everything absorbed so far (final xor applied; the
    /// state itself is untouched, so more updates may follow).
    fn finalize(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finalize()
}

/// The textbook one-table, one-byte-per-step loop: the oracle the
/// differential tests hold [`Crc32::update`] to.
#[cfg(test)]
fn reference(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256pp;

    #[test]
    fn crc32_matches_the_standard_check_value() {
        // The canonical CRC-32/ISO-HDLC check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(reference(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn kernel_equals_reference_at_every_length_and_alignment() {
        let mut rng = Xoshiro256pp::new(0xC12C);
        let data: Vec<u8> = (0..16 + 257).map(|_| rng.next_u64() as u8).collect();
        // Every tail length (0..16) around zero, one, and sixteen full
        // steps, starting at every offset within a step.
        for start in 0..16 {
            for len in 0..=257 {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), reference(slice), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn kernel_equals_reference_under_random_update_splits() {
        let mut rng = Xoshiro256pp::new(0x5EED);
        let data: Vec<u8> = (0..1 << 20).map(|_| rng.next_u64() as u8).collect();
        let want = reference(&data);
        assert_eq!(crc32(&data), want);
        for _ in 0..8 {
            let mut c = Crc32::new();
            let mut rest = &data[..];
            while !rest.is_empty() {
                // Mostly short chunks, so step boundaries land everywhere.
                let take = (rng.next_u64() as usize % 4099).min(rest.len());
                c.update(&rest[..take]);
                rest = &rest[take..];
            }
            assert_eq!(c.finalize(), want);
        }
    }

    #[test]
    fn two_lane_spans_equal_reference_around_every_span_count() {
        // `k` whole spans plus or minus up to a step and a byte, at every
        // start offset within a step: the join, the span loop's exit and
        // the slice-by-16 remainder each meet every alignment.
        let mut rng = Xoshiro256pp::new(0x2_1A4E);
        let data: Vec<u8> = (0..16 + 3 * 2 * LANE + 17).map(|_| rng.next_u64() as u8).collect();
        for k in 0..=3usize {
            for d in -17..=17isize {
                let Some(len) = (k * 2 * LANE).checked_add_signed(d) else { continue };
                for start in 0..16 {
                    let slice = &data[start..start + len];
                    assert_eq!(crc32(slice), reference(slice), "k {k}, d {d}, start {start}");
                }
            }
        }
    }

    #[test]
    fn a_bit_flip_in_either_lane_or_the_tail_moves_the_digest() {
        // One span (every bit of both lanes), and four spans plus a 5-byte
        // tail (bit `i % 8` of every byte i, as the segment sweeps do).
        let mut rng = Xoshiro256pp::new(0x1A4E5);
        for (len, every_bit) in [(2 * LANE, true), (8 * LANE + 5, false)] {
            let message: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let digest = crc32(&message);
            for i in 0..len {
                let bits = if every_bit { 0..8 } else { i % 8..i % 8 + 1 };
                for bit in bits {
                    let mut broken = message.clone();
                    broken[i] ^= 1 << bit;
                    assert_ne!(crc32(&broken), digest, "bit {bit} of byte {i} of {len}");
                }
            }
        }
    }

    #[test]
    fn shift_is_the_register_fed_a_lane_of_zero_bytes() {
        // The raw register (no pre- or post-inversion), one byte a step.
        fn fed_zeros(mut crc: u32) -> u32 {
            for _ in 0..LANE {
                crc = (crc >> 8) ^ CRC32_TABLES[0][(crc & 0xFF) as usize];
            }
            crc
        }
        let mut rng = Xoshiro256pp::new(0x5417);
        let units = (0..32).map(|j| 1u32 << j);
        for state in units.chain((0..1000).map(|_| rng.next_u64() as u32)) {
            assert_eq!(shift(state), fed_zeros(state), "state {state:#010x}");
        }
    }

    #[test]
    fn golden_digests_pin_the_on_disk_format() {
        // Literals computed with zlib's crc32: a kernel swap that changes
        // any of them would orphan every segment and snapshot on disk.
        assert_eq!(crc32(b"WarpGate semantic join discovery"), 0x13EE_4C7D);
        let ramp: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        assert_eq!(crc32(&ramp), 0x17BC_2A46);
        let block: Vec<u8> = (0..32_768u32).map(|i| (i ^ (i >> 8)) as u8).collect();
        assert_eq!(crc32(&block), 0x9297_FE7F);
    }

    #[test]
    fn streaming_equals_one_shot_at_every_split() {
        let data: Vec<u8> = (0..100u8).collect();
        let want = crc32(&data);
        for split in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        // What every block, directory and trailer check of a segment rests
        // on: one flipped bit, anywhere in a message, moves the digest —
        // at the lengths around a kernel step and well past one.
        let mut rng = Xoshiro256pp::new(0xF11B);
        for len in [1usize, 15, 16, 17, 43, 300] {
            let message: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let digest = crc32(&message);
            for i in 0..len {
                for bit in 0..8 {
                    let mut broken = message.clone();
                    broken[i] ^= 1 << bit;
                    assert_ne!(crc32(&broken), digest, "bit {bit} of byte {i} of {len}");
                }
            }
        }
    }
}
