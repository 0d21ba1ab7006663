//! Pins the event order of [`EntanglementService`] bit for bit.
//!
//! A fixed, seeded call script (`advance_to` / `available` /
//! `time_of_next_available` / `try_take`) drives the service over a grid
//! of every configuration axis that changes which event runs next. The
//! whole observable trace — every grant time, taken link's fidelity bits
//! and age, availability count, the final [`ServiceStats`] and the
//! arrival timestamps — is folded into one FNV-1a fingerprint per case.
//! Any change to the processing order `(time, kind, index)` or to the RNG
//! draw sequence moves at least one fingerprint.

use dqc_entanglement::{
    ConsumeOrder, CutoffPolicy, EntanglementService, GenerationPattern, ServiceConfig,
    ServiceStats, TakenLink,
};
use dqc_types::{Fnv64, Tick};

/// Calls per case.
const STEPS: usize = 400;

/// One grid point, decoded from the bits of its case number.
#[derive(Debug)]
struct Case {
    config: ServiceConfig,
    preinitialize: bool,
}

fn case(index: usize) -> Case {
    let bit = |b: usize| index >> b & 1 == 1;
    Case {
        config: ServiceConfig {
            num_comm_pairs: 6,
            buffer_capacity: if bit(0) { 4 } else { 0 },
            pattern: if bit(1) {
                GenerationPattern::Asynchronous { groups: 3 }
            } else {
                GenerationPattern::Synchronous
            },
            // Short enough that links expire while parked, buffered, and
            // (with the slow single swap channel) still mid-swap.
            cutoff: if bit(2) {
                CutoffPolicy::MaxAge(Tick::new(150))
            } else {
                CutoffPolicy::Keep
            },
            consume_order: if bit(3) {
                ConsumeOrder::FreshestFirst
            } else {
                ConsumeOrder::OldestFirst
            },
            swap_latency: if bit(4) { Tick::new(45) } else { Tick::ZERO },
            swap_concurrency: if bit(5) { 2 } else { 1 },
            ..ServiceConfig::default()
        },
        preinitialize: bit(6),
    }
}

const CASES: usize = 128;

/// SplitMix64: the script generator, independent of the service's RNG.
struct Script(u64);

impl Script {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn fold_take(h: &mut Fnv64, taken: Option<TakenLink>) {
    match taken {
        Some(link) => {
            h.write_u8(1);
            h.write_f64(link.fidelity);
            h.write_i64(link.age.ticks());
        }
        None => h.write_u8(0),
    }
}

fn fold_stats(h: &mut Fnv64, s: &ServiceStats) {
    h.write_u64(s.attempts);
    h.write_u64(s.successes);
    h.write_u64(s.consumed);
    h.write_u64(s.wasted);
    h.write_u64(s.preinitialized);
    h.write_i64(s.total_consumed_age.ticks());
    h.write_usize(s.peak_buffered);
}

fn fingerprint(case: &Case, seed: u64) -> u64 {
    let mut svc = EntanglementService::new(case.config.clone(), seed);
    if case.preinitialize {
        svc.preinitialize(3);
    }
    let mut script = Script(seed);
    let mut h = Fnv64::new();
    let mut t = Tick::ZERO;
    for _ in 0..STEPS {
        let r = script.next();
        let dt = Tick::new((r >> 8) as i64 % 120);
        match r % 5 {
            0 => {
                t += dt;
                svc.advance_to(t);
            }
            1 => {
                let granted = svc.time_of_next_available(t);
                h.write_i64(granted.ticks());
                if granted != Tick::MAX {
                    t = granted;
                }
            }
            2 => {
                t += dt;
                fold_take(&mut h, svc.try_take(t));
            }
            3 => {
                // The executor's grant: wait for a link, take it there.
                let granted = svc.time_of_next_available(t);
                h.write_i64(granted.ticks());
                if granted != Tick::MAX {
                    t = granted;
                    fold_take(&mut h, svc.try_take(t));
                }
            }
            _ => {}
        }
        h.write_usize(svc.available());
        h.write_i64(svc.now().ticks());
    }
    fold_stats(&mut h, svc.stats());
    h.write_usize(svc.arrivals().len());
    for a in svc.arrivals() {
        h.write_i64(a.ticks());
    }
    h.finish()
}

/// Fingerprints of every case at seeds 1 and 2, recorded on the
/// scan-based event loop this service replaced.
#[rustfmt::skip]
const EXPECTED: [[u64; 2]; CASES] = [
    [0xd0c5d75650d19b16, 0x25b1e7f8f514cf0c],
    [0x89e7d1068df3185d, 0xcc3a67952218a4ee],
    [0xa23311dad84f3e21, 0x76d9a5eaa79a30aa],
    [0x92e0e3d0c19a3fa8, 0xa42109634b290ac0],
    [0x72459a5ce2ab7256, 0xe1a5ecff2998571a],
    [0xf60c4ed5e3bd404c, 0x2e25b1a8a5c7a241],
    [0x14cc2f60d7d2a50b, 0x8fd29c5ff2ca3107],
    [0xc8ffb9450d5abe26, 0x66df86ed5ec8527a],
    [0xe836e64eb53ab43a, 0x2c4887d578bce997],
    [0x0efb82569060210c, 0xb517d5c37ea4133b],
    [0xc23d9cc66e77871e, 0xf5d7647bc5143038],
    [0x2b65d3aa299c1084, 0x1ef0b95279eb17b5],
    [0x229bcbea834086cc, 0x472741411f8e59e3],
    [0x731957ed34c07b50, 0x38f59908e0dc920f],
    [0x522392d7ad142bc9, 0xde6f4559376e3c61],
    [0xbe6cfe4b69d06097, 0xd92ef1866bb88790],
    [0xd0c5d75650d19b16, 0x25b1e7f8f514cf0c],
    [0xba03c16111d3a1bf, 0x5b7b0b0e7b3dbc7f],
    [0xa23311dad84f3e21, 0x76d9a5eaa79a30aa],
    [0xd607b334eea893a6, 0x40e10e2a9130f8fc],
    [0x72459a5ce2ab7256, 0xe1a5ecff2998571a],
    [0x4ab3900676607ba6, 0x6612b7d949bf233d],
    [0x14cc2f60d7d2a50b, 0x8fd29c5ff2ca3107],
    [0x1c3cff0c0483c406, 0xda56b59f823e1149],
    [0xe836e64eb53ab43a, 0x2c4887d578bce997],
    [0x832fdacb095e50b9, 0x43ce62067a829e8b],
    [0xc23d9cc66e77871e, 0xf5d7647bc5143038],
    [0x8d890ac4f5847ddb, 0xb62e27ece37d76ad],
    [0x229bcbea834086cc, 0x472741411f8e59e3],
    [0x491a100f45ead8f2, 0xb22abe621742e337],
    [0x522392d7ad142bc9, 0xde6f4559376e3c61],
    [0x3c7e544fabb2969f, 0xf3aae72a7a42c8e1],
    [0xd0c5d75650d19b16, 0x25b1e7f8f514cf0c],
    [0x89e7d1068df3185d, 0xcc3a67952218a4ee],
    [0xa23311dad84f3e21, 0x76d9a5eaa79a30aa],
    [0x92e0e3d0c19a3fa8, 0xa42109634b290ac0],
    [0x72459a5ce2ab7256, 0xe1a5ecff2998571a],
    [0xf60c4ed5e3bd404c, 0x2e25b1a8a5c7a241],
    [0x14cc2f60d7d2a50b, 0x8fd29c5ff2ca3107],
    [0xc8ffb9450d5abe26, 0x66df86ed5ec8527a],
    [0xe836e64eb53ab43a, 0x2c4887d578bce997],
    [0x0efb82569060210c, 0xb517d5c37ea4133b],
    [0xc23d9cc66e77871e, 0xf5d7647bc5143038],
    [0x2b65d3aa299c1084, 0x1ef0b95279eb17b5],
    [0x229bcbea834086cc, 0x472741411f8e59e3],
    [0x731957ed34c07b50, 0x38f59908e0dc920f],
    [0x522392d7ad142bc9, 0xde6f4559376e3c61],
    [0xbe6cfe4b69d06097, 0xd92ef1866bb88790],
    [0xd0c5d75650d19b16, 0x25b1e7f8f514cf0c],
    [0x8e3b9b5d55a60ff0, 0x926b8873c8d2a6c1],
    [0xa23311dad84f3e21, 0x76d9a5eaa79a30aa],
    [0x767fe83e3a366367, 0x175f567cb76ec6cd],
    [0x72459a5ce2ab7256, 0xe1a5ecff2998571a],
    [0xfefee0d1eb440dbe, 0x604156a29cec5d3e],
    [0x14cc2f60d7d2a50b, 0x8fd29c5ff2ca3107],
    [0x22742e23cdcb3ef2, 0xe2abb6acf5ef76ae],
    [0xe836e64eb53ab43a, 0x2c4887d578bce997],
    [0x691e59077c76928b, 0x57ffe01886021aad],
    [0xc23d9cc66e77871e, 0xf5d7647bc5143038],
    [0xd782976fb965e354, 0xf25e1f162a5ab4f7],
    [0x229bcbea834086cc, 0x472741411f8e59e3],
    [0x9156f255bcaafd66, 0x219d191b34acae5c],
    [0x522392d7ad142bc9, 0xde6f4559376e3c61],
    [0xc80454a9120e4947, 0xb5baf59486414b80],
    [0xd0c5d75650d19b16, 0x25b1e7f8f514cf0c],
    [0xce5f5bbf2c8969a8, 0x845a660cda5c90f7],
    [0xa23311dad84f3e21, 0x76d9a5eaa79a30aa],
    [0xbadbe2238edf282d, 0x7341c1baa44c2e08],
    [0x72459a5ce2ab7256, 0xe1a5ecff2998571a],
    [0x8d172747cd5bc31d, 0x36d53d46692df45a],
    [0x14cc2f60d7d2a50b, 0x8fd29c5ff2ca3107],
    [0x01b8e1ffaf3b0532, 0x2af4aefeb4f8005e],
    [0xe836e64eb53ab43a, 0x2c4887d578bce997],
    [0x173a9415c82ffd3e, 0xd166374d650772cc],
    [0xc23d9cc66e77871e, 0xf5d7647bc5143038],
    [0xb28cbb26ff113458, 0x3cd4c54ab7f4398d],
    [0x229bcbea834086cc, 0x472741411f8e59e3],
    [0xdcfcf31fddd22a19, 0x475692d6b521a1d5],
    [0x522392d7ad142bc9, 0xde6f4559376e3c61],
    [0xddf4b5bece4dd037, 0xae2d79858c5f9c11],
    [0xd0c5d75650d19b16, 0x25b1e7f8f514cf0c],
    [0x43f8dc0a96c77ba4, 0x2b44af6df9d36d63],
    [0xa23311dad84f3e21, 0x76d9a5eaa79a30aa],
    [0x08c2f7b5801b1966, 0x9e90fc9f1faedcb6],
    [0x72459a5ce2ab7256, 0xe1a5ecff2998571a],
    [0xfce7f7e6f7869384, 0x430fd2f461ce9919],
    [0x14cc2f60d7d2a50b, 0x8fd29c5ff2ca3107],
    [0xfaa837fd42cbcb66, 0x9e72cb8383cf8a36],
    [0xe836e64eb53ab43a, 0x2c4887d578bce997],
    [0x0f3cd43a110776e1, 0xef5ad3eb54e0aa21],
    [0xc23d9cc66e77871e, 0xf5d7647bc5143038],
    [0xd6410e9801b95062, 0xadb7b11ba140e24d],
    [0x229bcbea834086cc, 0x472741411f8e59e3],
    [0xe6f7fef39d8f9006, 0x66e5f1ef148355ce],
    [0x522392d7ad142bc9, 0xde6f4559376e3c61],
    [0x9df3f0757f0bce25, 0x48f29862192fa819],
    [0xd0c5d75650d19b16, 0x25b1e7f8f514cf0c],
    [0xce5f5bbf2c8969a8, 0x845a660cda5c90f7],
    [0xa23311dad84f3e21, 0x76d9a5eaa79a30aa],
    [0xbadbe2238edf282d, 0x7341c1baa44c2e08],
    [0x72459a5ce2ab7256, 0xe1a5ecff2998571a],
    [0x8d172747cd5bc31d, 0x36d53d46692df45a],
    [0x14cc2f60d7d2a50b, 0x8fd29c5ff2ca3107],
    [0x01b8e1ffaf3b0532, 0x2af4aefeb4f8005e],
    [0xe836e64eb53ab43a, 0x2c4887d578bce997],
    [0x173a9415c82ffd3e, 0xd166374d650772cc],
    [0xc23d9cc66e77871e, 0xf5d7647bc5143038],
    [0xb28cbb26ff113458, 0x3cd4c54ab7f4398d],
    [0x229bcbea834086cc, 0x472741411f8e59e3],
    [0xdcfcf31fddd22a19, 0x475692d6b521a1d5],
    [0x522392d7ad142bc9, 0xde6f4559376e3c61],
    [0xddf4b5bece4dd037, 0xae2d79858c5f9c11],
    [0xd0c5d75650d19b16, 0x25b1e7f8f514cf0c],
    [0x199e4adee5fd09e2, 0xcc3a8dfb5427ffd2],
    [0xa23311dad84f3e21, 0x76d9a5eaa79a30aa],
    [0x8d2b848e571598c3, 0xc91351f91640eefe],
    [0x72459a5ce2ab7256, 0xe1a5ecff2998571a],
    [0x35ff5653b6ca2e52, 0x5557be9c62ebac30],
    [0x14cc2f60d7d2a50b, 0x8fd29c5ff2ca3107],
    [0xbf51197082aca600, 0x6b5342ce95d50351],
    [0xe836e64eb53ab43a, 0x2c4887d578bce997],
    [0xed52197fd683943c, 0x540875105364d8d1],
    [0xc23d9cc66e77871e, 0xf5d7647bc5143038],
    [0x59cbaa1bc12243c9, 0xb17d6bea632cc06e],
    [0x229bcbea834086cc, 0x472741411f8e59e3],
    [0x850f41fabd84095a, 0xdb71a07db259ae18],
    [0x522392d7ad142bc9, 0xde6f4559376e3c61],
    [0xdd84c3c670bec167, 0x63cd86a959f20cf6],
];

#[test]
fn event_trace_fingerprints_are_pinned() {
    let mut mismatches = Vec::new();
    for (index, expected) in EXPECTED.iter().enumerate() {
        let c = case(index);
        let got = [fingerprint(&c, 1), fingerprint(&c, 2)];
        if got != *expected {
            mismatches.push(format!(
                "case {index}: [{:#018x}, {:#018x}] != [{:#018x}, {:#018x}] for {c:?}",
                got[0], got[1], expected[0], expected[1]
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {CASES} cases moved:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
fn fingerprints_separate_seeds() {
    // The pin is only as strong as the fingerprint: two seeds must drive
    // every configuration through different traces.
    for (index, [a, b]) in EXPECTED.iter().enumerate() {
        assert_ne!(a, b, "case {index}: seeds 1 and 2 fold to the same trace");
    }
}
