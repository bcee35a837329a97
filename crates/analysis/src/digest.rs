//! Deterministic-replay digests.
//!
//! The simulator promises bit-determinism: the same `cellsim` `SimConfig`
//! seed must produce the same schedule. [`trace_digest`] collapses a
//! [`RunLog`] into one 64-bit FNV-1a hash of its canonical JSON
//! serialization, so two runs can be compared (and archived) without
//! diffing megabytes of events.

use mgps_runtime::event::RunLog;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over arbitrary bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A 64-bit digest of the run's full event log (canonical JSON form).
/// Equal seeds and configurations must produce equal digests.
pub fn trace_digest(log: &RunLog) -> u64 {
    fnv1a(log.to_value().to_json().as_bytes())
}

/// [`trace_digest`] rendered as fixed-width hex (for reports and logs).
pub fn digest_hex(log: &RunLog) -> String {
    format!("{:016x}", trace_digest(log))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_is_stable_for_equal_logs() {
        let log = RunLog {
            scheduler: mgps_runtime::event::SchedulerTag::Edtlp,
            n_spes: 8,
            quantum_ns: 1,
            seed: 7,
            local_store_bytes: 256 * 1024,
            loop_iters: 228,
            mgps_window: None,
            fault_policy: None,
            tenant_weights: None,
            events: Vec::new(),
        };
        assert_eq!(trace_digest(&log), trace_digest(&log.clone()));
        assert_eq!(digest_hex(&log).len(), 16);
        let mut other = log.clone();
        other.seed = 8;
        assert_ne!(trace_digest(&log), trace_digest(&other));
    }
}
