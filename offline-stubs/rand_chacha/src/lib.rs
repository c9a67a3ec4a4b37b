//! Offline stand-in for `rand_chacha` 0.3.1. The block cipher core and the
//! `BlockRng` buffering live in the `rand` stub (`rand::chacha_impl`); this
//! crate only wraps them under the real crate's type names.

use rand::chacha_impl::ChaChaAny;
use rand::{RngCore, SeedableRng};

macro_rules! chacha_rng {
    ($(#[$doc:meta])* $name:ident, $double_rounds:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $name(ChaChaAny<$double_rounds>);

        impl $name {
            /// The seed this generator was built from (its key).
            pub fn get_seed(&self) -> [u8; 32] {
                self.0.get_seed()
            }

            /// The stream id; always 0 here, since nothing sets it.
            pub fn get_stream(&self) -> u64 {
                self.0.get_stream()
            }

            /// The keystream position of the next `u32` drawn, in 32-bit
            /// words (wrapping at `2⁶⁸`).
            pub fn get_word_pos(&self) -> u128 {
                self.0.get_word_pos()
            }

            /// Moves to keystream word `word_offset`, modulo `2⁶⁸`.
            pub fn set_word_pos(&mut self, word_offset: u128) {
                self.0.set_word_pos(word_offset)
            }
        }

        impl SeedableRng for $name {
            type Seed = [u8; 32];

            fn from_seed(seed: [u8; 32]) -> Self {
                $name(ChaChaAny::from_seed_bytes(seed))
            }
        }

        impl RngCore for $name {
            #[inline]
            fn next_u32(&mut self) -> u32 {
                self.0.next_u32()
            }
            #[inline]
            fn next_u64(&mut self) -> u64 {
                self.0.next_u64()
            }
            #[inline]
            fn fill_bytes(&mut self, dest: &mut [u8]) {
                self.0.fill_bytes(dest)
            }
        }
    };
}

chacha_rng! {
    /// ChaCha with 8 rounds — the workspace's deterministic workhorse RNG.
    ChaCha8Rng, 4
}
chacha_rng! {
    /// ChaCha with 12 rounds (rand 0.8's `StdRng` core).
    ChaCha12Rng, 6
}
chacha_rng! {
    /// ChaCha with 20 rounds.
    ChaCha20Rng, 10
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seed_from_u64_is_deterministic_and_seed_sensitive() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let mut c = ChaCha8Rng::seed_from_u64(43);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn word_pos_follows_draws_and_set_word_pos_round_trips() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let words: Vec<u32> = (0..100).map(|_| rng.next_u32()).collect();
        assert_eq!(rng.get_word_pos(), 100);
        let mut fresh = ChaCha8Rng::seed_from_u64(9);
        for k in 0..40 {
            assert_eq!(fresh.get_word_pos(), k);
            fresh.next_u32();
        }
        for pos in [0u128, 5, 16, 63, 64, 99] {
            let mut moved = ChaCha8Rng::seed_from_u64(9);
            moved.set_word_pos(pos);
            assert_eq!(moved.get_word_pos(), pos);
            assert_eq!(moved.next_u32(), words[pos as usize]);
        }
    }

    #[test]
    fn get_seed_round_trips_and_the_stream_is_zero() {
        let seed: [u8; 32] = std::array::from_fn(|i| (i as u8).wrapping_mul(37));
        let mut rng = ChaCha8Rng::from_seed(seed);
        rng.next_u64();
        assert_eq!(rng.get_seed(), seed);
        assert_eq!(rng.get_stream(), 0);
    }

    #[test]
    fn f64_samples_are_in_unit_interval() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..1000 {
            let v: f64 = rng.gen();
            assert!((0.0..1.0).contains(&v));
        }
    }
}
