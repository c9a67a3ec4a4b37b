//! ChaCha block cipher core with the exact `rand_chacha` 0.3 /
//! `rand_core::block::BlockRng` buffering semantics:
//!
//! - 32-byte key from the seed, 64-bit block counter in state words 12–13,
//!   64-bit stream id in words 14–15 (djb variant), both starting at 0.
//! - Each refill produces **four** consecutive blocks (64 `u32` results);
//!   the counter advances by 4 per refill.
//! - `next_u32` consumes one buffered word; `next_u64` consumes two
//!   consecutive words (low then high) and, when exactly one word remains,
//!   combines it (low) with the first word of the next refill (high).
//!
//! Validated against the known ChaCha8/12/20 zero-key keystream vectors in
//! the tests below.

/// ChaCha core generic over the number of double-rounds (4 ⇒ ChaCha8,
/// 6 ⇒ ChaCha12, 10 ⇒ ChaCha20).
#[derive(Debug, Clone)]
pub struct ChaChaAny<const DOUBLE_ROUNDS: usize> {
    key: [u32; 8],
    counter: u64,
    stream: u64,
    buf: [u32; 64],
    index: usize,
}

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn quarter(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl<const DOUBLE_ROUNDS: usize> ChaChaAny<DOUBLE_ROUNDS> {
    pub fn from_seed_bytes(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        ChaChaAny {
            key,
            counter: 0,
            stream: 0,
            buf: [0; 64],
            // Start "empty" so the first draw triggers a refill.
            index: 64,
        }
    }

    /// Computes the four blocks of one refill in lock-step: every state
    /// word holds one 32-bit lane per block, `counter + 0..4`. On x86_64
    /// the lanes live in a 128-bit SSE2 vector (SSE2 is part of the
    /// x86_64 baseline, so no feature detection is needed) — the same
    /// wide-block layout upstream `rand_chacha` uses. Elsewhere a
    /// plain-array fallback computes the identical bytes. Output matches
    /// four sequential single-block evaluations exactly.
    #[cfg(target_arch = "x86_64")]
    fn refill(&mut self) {
        use std::arch::x86_64::*;
        // SAFETY: only baseline SSE2 intrinsics, unconditionally available
        // on x86_64; the store below writes 16 aligned-`u32`s worth of
        // bytes through `_mm_storeu_si128` into a live `[u32; 4]`.
        unsafe {
            #[inline(always)]
            unsafe fn rot<const L: i32, const R: i32>(x: __m128i) -> __m128i {
                _mm_or_si128(_mm_slli_epi32(x, L), _mm_srli_epi32(x, R))
            }
            macro_rules! q {
                ($s:ident, $a:expr, $b:expr, $c:expr, $d:expr) => {
                    $s[$a] = _mm_add_epi32($s[$a], $s[$b]);
                    $s[$d] = rot::<16, 16>(_mm_xor_si128($s[$d], $s[$a]));
                    $s[$c] = _mm_add_epi32($s[$c], $s[$d]);
                    $s[$b] = rot::<12, 20>(_mm_xor_si128($s[$b], $s[$c]));
                    $s[$a] = _mm_add_epi32($s[$a], $s[$b]);
                    $s[$d] = rot::<8, 24>(_mm_xor_si128($s[$d], $s[$a]));
                    $s[$c] = _mm_add_epi32($s[$c], $s[$d]);
                    $s[$b] = rot::<7, 25>(_mm_xor_si128($s[$b], $s[$c]));
                };
            }
            let mut state = [_mm_setzero_si128(); 16];
            for (w, &c) in CONSTANTS.iter().enumerate() {
                state[w] = _mm_set1_epi32(c as i32);
            }
            for (w, &k) in self.key.iter().enumerate() {
                state[w + 4] = _mm_set1_epi32(k as i32);
            }
            let ctr = |b: u64| self.counter.wrapping_add(b);
            state[12] = _mm_set_epi32(
                ctr(3) as u32 as i32,
                ctr(2) as u32 as i32,
                ctr(1) as u32 as i32,
                ctr(0) as u32 as i32,
            );
            state[13] = _mm_set_epi32(
                (ctr(3) >> 32) as u32 as i32,
                (ctr(2) >> 32) as u32 as i32,
                (ctr(1) >> 32) as u32 as i32,
                (ctr(0) >> 32) as u32 as i32,
            );
            state[14] = _mm_set1_epi32(self.stream as u32 as i32);
            state[15] = _mm_set1_epi32((self.stream >> 32) as u32 as i32);
            let initial = state;
            for _ in 0..DOUBLE_ROUNDS {
                q!(state, 0, 4, 8, 12);
                q!(state, 1, 5, 9, 13);
                q!(state, 2, 6, 10, 14);
                q!(state, 3, 7, 11, 15);
                q!(state, 0, 5, 10, 15);
                q!(state, 1, 6, 11, 12);
                q!(state, 2, 7, 8, 13);
                q!(state, 3, 4, 9, 14);
            }
            for w in 0..16 {
                let mut lanes = [0u32; 4];
                _mm_storeu_si128(
                    lanes.as_mut_ptr().cast(),
                    _mm_add_epi32(state[w], initial[w]),
                );
                for b in 0..4 {
                    self.buf[b * 16 + w] = lanes[b];
                }
            }
        }
        self.counter = self.counter.wrapping_add(4);
    }

    /// Portable fallback: the same four blocks computed sequentially.
    #[cfg(not(target_arch = "x86_64"))]
    fn refill(&mut self) {
        for b in 0..4u64 {
            let counter = self.counter.wrapping_add(b);
            let mut state = [0u32; 16];
            state[..4].copy_from_slice(&CONSTANTS);
            state[4..12].copy_from_slice(&self.key);
            state[12] = counter as u32;
            state[13] = (counter >> 32) as u32;
            state[14] = self.stream as u32;
            state[15] = (self.stream >> 32) as u32;
            let initial = state;
            for _ in 0..DOUBLE_ROUNDS {
                quarter(&mut state, 0, 4, 8, 12);
                quarter(&mut state, 1, 5, 9, 13);
                quarter(&mut state, 2, 6, 10, 14);
                quarter(&mut state, 3, 7, 11, 15);
                quarter(&mut state, 0, 5, 10, 15);
                quarter(&mut state, 1, 6, 11, 12);
                quarter(&mut state, 2, 7, 8, 13);
                quarter(&mut state, 3, 4, 9, 14);
            }
            let lo = (b as usize) * 16;
            for (w, (s, i)) in state.iter().zip(initial.iter()).enumerate() {
                self.buf[lo + w] = s.wrapping_add(*i);
            }
        }
        self.counter = self.counter.wrapping_add(4);
    }

    /// The 32-byte seed (the key), as `rand_chacha`'s `get_seed`.
    pub fn get_seed(&self) -> [u8; 32] {
        let mut seed = [0u8; 32];
        for (chunk, k) in seed.chunks_exact_mut(4).zip(&self.key) {
            chunk.copy_from_slice(&k.to_le_bytes());
        }
        seed
    }

    /// The stream id (state words 14–15), as `rand_chacha`'s `get_stream`.
    pub fn get_stream(&self) -> u64 {
        self.stream
    }

    /// The keystream position of the next `u32` drawn, in 32-bit words:
    /// block `counter` starts at word `16 · counter`. The block counter is
    /// 64 bits wide, so positions wrap at `2⁶⁸`, as `rand_chacha`'s
    /// `get_word_pos`.
    pub fn get_word_pos(&self) -> u128 {
        // The buffer holds the four blocks before `counter`.
        let block = self
            .counter
            .wrapping_sub(4)
            .wrapping_add((self.index / 16) as u64);
        u128::from(block) * 16 + (self.index % 16) as u128
    }

    /// Moves to keystream word `word_offset` (taken modulo `2⁶⁸`), as
    /// `rand_chacha`'s `set_word_pos`: the buffer is refilled from that
    /// word's block.
    pub fn set_word_pos(&mut self, word_offset: u128) {
        self.counter = (word_offset / 16) as u64;
        self.refill();
        self.index = (word_offset % 16) as usize;
    }

    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        if self.index >= 64 {
            self.refill();
            self.index = 0;
        }
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let index = self.index;
        if index < 63 {
            self.index += 2;
            (u64::from(self.buf[index + 1]) << 32) | u64::from(self.buf[index])
        } else if index >= 64 {
            self.refill();
            self.index = 2;
            (u64::from(self.buf[1]) << 32) | u64::from(self.buf[0])
        } else {
            // Straddle: last word of the old batch is the low half, first
            // word of the fresh batch the high half.
            let x = u64::from(self.buf[63]);
            self.refill();
            self.index = 1;
            let y = u64::from(self.buf[0]);
            (y << 32) | x
        }
    }

    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        // Simple word-by-word fill; the workspace never calls this on the
        // hot path and never relies on its exact byte alignment semantics.
        let mut chunks = dest.chunks_exact_mut(4);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u32().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let w = self.next_u32().to_le_bytes();
            rem.copy_from_slice(&w[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// First 16 keystream bytes for zero key / zero nonce / counter 0
    /// (Strömbergson ChaCha test vectors, TC1).
    fn first16<const DR: usize>() -> [u8; 16] {
        let mut c = ChaChaAny::<DR>::from_seed_bytes([0u8; 32]);
        let mut out = [0u8; 16];
        for i in 0..4 {
            out[i * 4..i * 4 + 4].copy_from_slice(&c.next_u32().to_le_bytes());
        }
        out
    }

    #[test]
    fn chacha20_zero_key_keystream_matches_reference() {
        assert_eq!(
            first16::<10>(),
            [
                0x76, 0xb8, 0xe0, 0xad, 0xa0, 0xf1, 0x3d, 0x90, 0x40, 0x5d, 0x6a, 0xe5, 0x53, 0x86,
                0xbd, 0x28
            ]
        );
    }

    #[test]
    fn chacha8_zero_key_keystream_matches_reference() {
        assert_eq!(
            first16::<4>(),
            [
                0x3e, 0x00, 0xef, 0x2f, 0x89, 0x5f, 0x40, 0xd6, 0x7f, 0x5b, 0xb8, 0xe8, 0x1f, 0x09,
                0xa5, 0xa1
            ]
        );
    }

    #[test]
    fn chacha12_zero_key_keystream_matches_reference() {
        assert_eq!(
            first16::<6>(),
            [
                0x9b, 0xf4, 0x9a, 0x6a, 0x07, 0x55, 0xf9, 0x53, 0x81, 0x1f, 0xce, 0x12, 0x5f, 0x26,
                0x83, 0xd5
            ]
        );
    }

    #[test]
    fn word_pos_counts_draws_and_round_trips() {
        let mut rng = ChaChaAny::<4>::from_seed_bytes([3u8; 32]);
        let words: Vec<u32> = (0..200).map(|_| rng.next_u32()).collect();
        let mut fresh = ChaChaAny::<4>::from_seed_bytes([3u8; 32]);
        for k in 0..200 {
            assert_eq!(fresh.get_word_pos(), k as u128);
            fresh.next_u32();
        }
        fresh.next_u64();
        assert_eq!(fresh.get_word_pos(), 202);
        for pos in [0u128, 1, 15, 16, 17, 63, 64, 65, 130] {
            let mut moved = ChaChaAny::<4>::from_seed_bytes([3u8; 32]);
            moved.set_word_pos(pos);
            assert_eq!(moved.get_word_pos(), pos);
            assert_eq!(moved.next_u32(), words[pos as usize], "word {pos}");
            assert_eq!(moved.get_word_pos(), pos + 1);
        }
        // Past a carry of the block counter's low word, and at the wrap.
        for pos in [(1u128 << 36) - 5, (1 << 68) - 1] {
            let mut moved = ChaChaAny::<4>::from_seed_bytes([3u8; 32]);
            moved.set_word_pos(pos);
            assert_eq!(moved.get_word_pos(), pos);
            for _ in 0..70 {
                moved.next_u32();
            }
            assert_eq!(moved.get_word_pos(), (pos + 70) % (1 << 68));
        }
    }

    #[test]
    fn seed_and_stream_read_back() {
        let seed: [u8; 32] = std::array::from_fn(|i| (i * 7 + 1) as u8);
        let mut rng = ChaChaAny::<4>::from_seed_bytes(seed);
        rng.next_u32();
        assert_eq!(rng.get_seed(), seed);
        assert_eq!(rng.get_stream(), 0);
    }

    #[test]
    fn next_u64_straddles_refill_like_block_rng() {
        let mut a = ChaChaAny::<4>::from_seed_bytes([7u8; 32]);
        let mut b = ChaChaAny::<4>::from_seed_bytes([7u8; 32]);
        // Drain 63 words from `a`, then next_u64 must combine word 63 (low)
        // with word 0 of the next batch (high).
        for _ in 0..63 {
            a.next_u32();
        }
        let straddled = a.next_u64();
        let mut all = Vec::new();
        for _ in 0..128 {
            all.push(b.next_u32());
        }
        assert_eq!(straddled, (u64::from(all[64]) << 32) | u64::from(all[63]));
        // And afterwards `a` continues at word 1 of the new batch.
        assert_eq!(a.next_u32(), all[65]);
    }
}
