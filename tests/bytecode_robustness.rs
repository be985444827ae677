//! Corruption robustness: malformed bytecode must always produce a
//! diagnostic, never a panic, an out-of-bounds read, or a runaway
//! allocation.
//!
//! Two layers of coverage:
//! - pinned hand-corrupted fixtures under `tests/fixtures/bytecode/`, so
//!   the exact bytes that once exercised each reject path stay in the
//!   repository and keep failing the same way,
//! - a pinned encoder output (`nested.irbc`), so a change to the writer
//!   that moves a single byte fails here, and
//! - programmatic sweeps (every truncation length, single-byte
//!   overwrites at every offset) over a known-good file, so new decoder
//!   code is immediately exposed to the whole corruption surface.

use irdl_repro::ir::bytecode::{decode_module, encode_module};
use irdl_repro::ir::parse::parse_module;
use irdl_repro::ir::print::op_to_string;
use irdl_repro::ir::Context;
use irdl_repro::irdl::DialectBundle;

fn fixture(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/fixtures/bytecode/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The valid control fixture decodes and prints exactly the pinned text.
#[test]
fn valid_fixture_decodes_to_pinned_text() {
    let bytes = fixture("valid.irbc");
    let expected = String::from_utf8(fixture("valid.mlir")).unwrap();
    let mut ctx = Context::new();
    let module = decode_module(&mut ctx, &bytes).expect("valid fixture decodes");
    assert_eq!(format!("{}\n", op_to_string(&ctx, module)), expected);
}

/// The encoder's bytes are pinned. `nested.mlir` nests regions eight
/// levels deep, with block arguments, successors and attributes, and is
/// long enough that the outer region length prefixes take two and three
/// bytes. Encoding its parse, and re-encoding its decode, must both give
/// `nested.irbc` byte for byte.
#[test]
fn encoder_output_is_pinned() {
    let pinned = fixture("nested.irbc");
    let text = String::from_utf8(fixture("nested.mlir")).unwrap();

    let mut ctx = Context::new();
    let module = parse_module(&mut ctx, &text).expect("nested fixture parses");
    let encoded = encode_module(&ctx, module).expect("nested fixture encodes");
    assert!(encoded == pinned, "encode(parse(nested.mlir)) differs from nested.irbc");

    let mut ctx = Context::new();
    let decoded = decode_module(&mut ctx, &pinned).expect("nested fixture decodes");
    let reencoded = encode_module(&ctx, decoded).expect("decoded fixture encodes");
    assert!(reencoded == pinned, "encode(decode(nested.irbc)) differs from nested.irbc");
    assert_eq!(format!("{}\n", op_to_string(&ctx, decoded)), text);
}

#[test]
fn corrupted_fixtures_fail_with_diagnostics() {
    // (fixture, required diagnostic fragment)
    let cases = [
        ("bad_magic.irbc", "bad magic"),
        ("bad_version.irbc", "unsupported version"),
        ("truncated.irbc", "truncated"),
        ("oob_index.irbc", "out of range"),
    ];
    for (name, fragment) in cases {
        let bytes = fixture(name);
        let mut ctx = Context::new();
        let err = decode_module(&mut ctx, &bytes)
            .expect_err(&format!("{name} must not decode"))
            .to_string();
        assert!(
            err.contains(fragment),
            "{name}: diagnostic `{err}` does not mention `{fragment}`"
        );
    }
}

/// Every strict prefix of a valid file is rejected with a diagnostic.
#[test]
fn every_truncation_is_rejected() {
    let bytes = fixture("valid.irbc");
    let mut ctx = Context::new();
    for len in 0..bytes.len() {
        let err = decode_module(&mut ctx, &bytes[..len]);
        assert!(err.is_err(), "prefix of {len} bytes unexpectedly decoded");
    }
}

/// Overwriting any single byte with adversarial values never panics: the
/// decoder either rejects the bytes with a diagnostic or produces some
/// well-formed module (flips inside literal payloads are semantically
/// visible but structurally harmless).
#[test]
fn single_byte_overwrites_never_panic() {
    let bytes = fixture("valid.irbc");
    let mut ctx = Context::new();
    for pos in 0..bytes.len() {
        for value in [0x00, 0x7F, 0xFF, bytes[pos] ^ 0x01] {
            let mut corrupt = bytes.clone();
            corrupt[pos] = value;
            if let Ok(module) = decode_module(&mut ctx, &corrupt) {
                // A benign flip: the module must still print.
                let _ = op_to_string(&ctx, module);
                ctx.erase_op(module);
            }
        }
    }
}

/// Module and artifact magics are not interchangeable, and artifact
/// corruption is diagnosed, not fatal.
#[test]
fn artifact_corruption_is_diagnosed() {
    let natives = irdl_repro::dialects::corpus_natives();
    let sources = irdl_repro::dialects::corpus_sources();
    let bundle = DialectBundle::compile(&sources, &natives).expect("corpus compiles");
    let artifact = bundle.save().expect("corpus saves");

    // A bundle artifact is not a module.
    let mut ctx = Context::new();
    let err = decode_module(&mut ctx, &artifact).expect_err("IRDB bytes are not IRBC");
    assert!(err.to_string().contains("magic"), "unexpected diagnostic: {err}");

    // Truncated artifacts are rejected at every length.
    for len in (0..artifact.len()).step_by(7) {
        assert!(
            DialectBundle::load(&artifact[..len], &natives).is_err(),
            "artifact prefix of {len} bytes unexpectedly loaded"
        );
    }
}
