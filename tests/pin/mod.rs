//! The bless-or-compare step shared by the exact-pin suites.

/// Compares `generated` line by line with `tests/fixtures/<file>`. With
/// `AERO_BLESS_FIXTURES` set, it first overwrites the fixture with
/// `generated`. `test` names the test target, for the re-bless command.
pub fn check_fixture(file: &str, test: &str, generated: &str) {
    let path = format!("{}/tests/fixtures/{file}", env!("CARGO_MANIFEST_DIR"));
    #[expect(
        clippy::disallowed_methods,
        reason = "AERO_BLESS_FIXTURES rewrites the fixture; it changes no simulated result"
    )]
    if std::env::var("AERO_BLESS_FIXTURES").is_ok() {
        std::fs::write(&path, generated).expect("bless the fixture");
    }
    let bless = format!("AERO_BLESS_FIXTURES=1 cargo test -q --test {test}");
    let pinned = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing tests/fixtures/{file} — regenerate with {bless}"));
    for (i, (want, got)) in pinned.lines().zip(generated.lines()).enumerate() {
        assert_eq!(got, want, "drifted from {file} at line {}", i + 1);
    }
    assert_eq!(
        generated.lines().count(),
        pinned.lines().count(),
        "a different number of lines than {file}"
    );
}
