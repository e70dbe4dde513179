//! The Fx hash of rustc: one rotate, xor and multiply per word, for the
//! maps that key on small values of the program being compiled or
//! analysed (interned names, types, node pairs, field paths). A collision
//! attack could only slow down the processing of its own input.

use std::hash::{BuildHasherDefault, Hasher};

/// The Fx hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`FxHasher`]s: `HashMap<K, V, FxBuild>`.
pub type FxBuild = BuildHasherDefault<FxHasher>;
