//! Property tests for the `--faults` spec parser, which reads outside
//! input: it never panics, and every plan it accepts survives the
//! canonical round trip `parse(to_spec(p)) == p`.

use mgps_runtime::faults::MAX_PINS;
use mgps_runtime::FaultPlan;
use proptest::prelude::*;

/// Grammar fragments, separators and edge-case numbers: random
/// concatenations of these get deep into the parser.
const SOUP: &[&str] = &[
    "seed", "stall", "crash", "dma", "mbox", "broken", "pin", "retries", "backoff", "k",
    "readmit", "fallback", "watchdog", "jobr", "spe_stall", "=", ",", "@", " ", "on", "off",
    "0", "1", "7", "0.5", "1.5", "-1", "1e-7", "NaN", "inf", "18446744073709551616", "é",
];

/// `count` pin pairs of assorted kinds and tasks.
fn pins(count: usize, seed: u64) -> Vec<String> {
    const KINDS: [&str; 6] = ["stall", "crash", "dma", "mbox", "spe_stall", "dma_error"];
    (0..count)
        .map(|i| format!("pin={}@{}", KINDS[(seed as usize + i) % 6], seed % 10_000 + i as u64))
        .collect()
}

fn round_trips(plan: FaultPlan) -> bool {
    FaultPlan::parse(&plan.to_spec()) == Ok(plan)
}

proptest! {
    #[test]
    fn arbitrary_strings_never_panic_and_accepted_ones_round_trip(
        raw in prop::collection::vec(0u32..0x11_0000, 0..48),
        soup in prop::collection::vec(0usize..SOUP.len(), 0..24),
    ) {
        let raw: String = raw.into_iter().filter_map(char::from_u32).collect();
        let soup: String = soup.into_iter().map(|i| SOUP[i]).collect();
        for spec in [raw, soup] {
            if let Ok(plan) = FaultPlan::parse(&spec) {
                prop_assert!(round_trips(plan), "{spec:?} does not round-trip");
            }
        }
    }

    /// Specs drawn from the documented grammar: any subset of the keys,
    /// up to `MAX_PINS` pins.
    #[test]
    fn grammar_specs_parse_and_round_trip(
        ints in (0u64..u64::MAX, 0u32..9, 0u32..10, 0u64..10_000_000, 1u32..6, 0u32..100),
        more in (prop::bool::weighted(0.5), 0u64..20, 0u32..5, 0usize..=MAX_PINS),
        rates in prop::collection::vec(0u32..=1_000_000, 4),
        keep in prop::collection::vec(prop::bool::weighted(0.7), 16),
    ) {
        let (seed, broken, retries, backoff, k, readmit) = ints;
        let (fallback, watchdog, jobr, n_pins) = more;
        let mut pairs = vec![
            format!("seed={seed}"),
            format!("broken={broken}"),
            format!("retries={retries}"),
            format!("backoff={backoff}"),
            format!("k={k}"),
            format!("readmit={readmit}"),
            format!("fallback={}", if fallback { "on" } else { "off" }),
            format!("watchdog={watchdog}"),
            format!("jobr={jobr}"),
        ];
        for (kind, ppm) in ["stall", "crash", "dma", "mbox"].iter().zip(&rates) {
            pairs.push(format!("{kind}={:.6}", f64::from(*ppm) / 1e6));
        }
        let mut spec: Vec<String> =
            pairs.into_iter().zip(keep).filter(|(_, keep)| *keep).map(|(p, _)| p).collect();
        spec.extend(pins(n_pins, seed));
        let plan = FaultPlan::parse(&spec.join(","));
        prop_assert!(
            matches!(plan, Ok(p) if usize::from(p.pin_len) == n_pins && round_trips(p)),
            "{spec:?} -> {plan:?}"
        );
    }

    #[test]
    fn a_pin_past_the_limit_is_rejected(seed in 0u64..u64::MAX) {
        let err = FaultPlan::parse(&pins(MAX_PINS + 1, seed).join(",")).unwrap_err();
        prop_assert!(err.contains("too many pins"), "{err}");
    }
}
