// The smallest tree the audit passes: every catalog root matches a file,
// and a one-variant vocabulary is alive on all four coverage surfaces.
// Synthetic-tree tests plant their files on top of it, so a finding they
// see comes from what they planted. Pulled in with `include!`.
const BASE_TREE: &[(&str, &str)] = &[
    ("crates/des/src/lib.rs", "pub fn f() {}\n"),
    ("crates/cellsim/src/emit.rs", "fn sim() { emit(EventKind::A); }\n"),
    ("crates/mgps-runtime/src/event.rs", "pub enum EventKind { A }\n"),
    ("crates/mgps-runtime/src/tracing.rs", "pub fn f() {}\n"),
    ("crates/mgps-runtime/src/faults.rs", "pub fn f() {}\n"),
    ("crates/mgps-runtime/src/native/adaptive.rs", "fn native() { record(EventKind::A); }\n"),
    ("crates/analysis/src/arms.rs", "fn check(k: K) { match k { EventKind::A => {} } }\n"),
    ("crates/obs/src/fold.rs", "fn fold(k: K) { match k { EventKind::A => {} } }\n"),
    ("src/serve.rs", "pub fn f() {}\n"),
    ("tests/t.rs", "fn t() {}\n"),
    ("examples/e.rs", "fn main() {}\n"),
    ("xtask/src/main.rs", "fn main() {}\n"),
];
