//! The random programs the round-trip and canonicalization tests share.

use gam_isa::litmus::space::{self, location, Space};
use gam_isa::litmus::{LitmusTest, Observation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The program of `seed` in `space` with a random initial state, one
/// observed location, and each written register observed or expected to
/// hold a value or a location's address.
pub fn random_test(space: &Space, seed: u64) -> LitmusTest {
    let mut rng = StdRng::seed_from_u64(seed);
    let generated = space::build(&space.draw(&mut rng));
    let mut builder = LitmusTest::builder(format!("random-{seed}"), generated.program().clone())
        .description(format!("randomly generated program, seed {seed}"));
    if rng.gen_bool(0.5) {
        builder = builder.init(location(0), rng.gen_range(0..3u64));
    }
    if rng.gen_bool(0.5) {
        builder = builder.init(location(1), location(2).value());
    }
    builder = builder.observe_mem(location(rng.gen_range(0..3u8)));
    for &obs in generated.observed() {
        if let Observation::Register(..) = obs {
            builder = match rng.gen_range(0..3u32) {
                0 => builder.observe(obs),
                1 => builder.expect(obs, rng.gen_range(0..3u64)),
                _ => builder.expect(obs, location(rng.gen_range(0..3u8)).value()),
            };
        }
    }
    builder.try_build().expect("every observed register is written")
}
