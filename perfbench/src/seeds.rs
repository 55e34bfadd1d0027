//! Every input derives from the run's `--seed`: the load, the warm-up and
//! measured client streams, and the post-run sample, each through its own
//! stream id so that changing one leaves the others alone.

pub const LOAD: u64 = 1;
pub const WARMUP: u64 = 2;
pub const RUN: u64 = 3;
pub const CHECK: u64 = 4;

/// SplitMix64's output function: a bijective 64-bit mixer.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seed of element `index` of stream `stream` under run seed `seed`.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(mix(seed) ^ stream) ^ index)
}
