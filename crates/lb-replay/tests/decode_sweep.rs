//! Decode sweep over a captured trace: every prefix and thousands of seeded
//! byte corruptions.
//!
//! `decode` puts each run and each access record through the run and
//! record checks it shares with `ReplayKernel::validate` as it parses them,
//! instead of running `validate` afterwards. This sweep backs that up:
//!
//! - decode returns `Ok` or a typed `ReplayError` and never panics;
//! - every `Ok` kernel passes `validate()`, so decode's checks are never
//!   weaker than it;
//! - every `Ok` kernel survives `decode(encode(k))` op for op: the same
//!   runs, and the same line slice in every access record (pools may
//!   differ: a corrupted file may write fresh what the encoder writes as a
//!   repeat). The comparison reads runs and records, never walks ops, so a
//!   corruption that declares billions of ALU ops costs it nothing.

use std::cell::Cell;

use gpu_sim::policy::baseline_factory;
use gpu_sim::replay::ReplayKernel;
use gpu_sim::GpuConfig;
use lb_replay::{capture_app, decode, encode, ReplayError};

/// A 2-SM `S1` capture of two loop trips: about 2.8 KB of LBW1, holding
/// memory ops without lines, with fresh lines, and repeating a slice of
/// the pool (82 of its 768 records).
fn captured() -> Vec<u8> {
    let cfg = GpuConfig::default().with_sms(2).with_windows(5_000, 400_000);
    let (_, rep) = capture_app("S1", &cfg, 2, &baseline_factory()).unwrap();
    encode(&rep)
}

/// Asserts what an `Ok` decode promises: the kernel is valid and
/// round-trips through the wire format op for op.
fn check_decoded(k: &ReplayKernel, case: &str) {
    if let Err(e) = k.validate() {
        panic!("{case}: decoded kernel fails validate: {e}");
    }
    let back = decode(&encode(k)).unwrap_or_else(|e| panic!("{case}: re-decode failed: {e}"));
    assert_eq!(back.stub, k.stub, "{case}: stub");
    assert_eq!(back.n_streams(), k.n_streams(), "{case}: stream count");
    for (si, (a, b)) in k.streams().zip(back.streams()).enumerate() {
        assert_eq!(a.runs(), b.runs(), "{case}: stream {si} runs");
        assert_eq!(a.n_accesses(), b.n_accesses(), "{case}: stream {si} records");
        for (i, (la, lb)) in a.accesses().zip(b.accesses()).enumerate() {
            assert_eq!(la, lb, "{case}: stream {si} record {i} lines");
        }
    }
}

#[test]
fn every_prefix_is_a_typed_truncation() {
    let bytes = captured();
    assert!(bytes.len() > 1_000, "the sweep needs a non-trivial trace");
    for cut in 0..bytes.len() {
        match decode(&bytes[..cut]) {
            Err(ReplayError::UnexpectedEof { .. }) | Err(ReplayError::BadMagic) => {}
            other => panic!("prefix of {cut} bytes: expected EOF/BadMagic, got {other:?}"),
        }
    }
    let whole = decode(&bytes).expect("the whole capture decodes");
    check_decoded(&whole, "whole file");
    assert_eq!(encode(&whole), bytes, "canonical encoding");
}

#[test]
fn seeded_corruptions_decode_or_fail_typed() {
    let bytes = captured();
    let decoded_ok = Cell::new(0u32);
    // testkit::check_n reports the failing case index if decode panics.
    testkit::check_n("lbw1_corruption", 2_500, |rng| {
        let mut bad = bytes.clone();
        for _ in 0..rng.range_u32(1, 5) {
            let at = rng.range_usize(0, bad.len());
            bad[at] = rng.u64() as u8;
        }
        if let Ok(k) = decode(&bad) {
            check_decoded(&k, "corrupted file");
            decoded_ok.set(decoded_ok.get() + 1);
        }
    });
    // Some corruptions (line addresses, ALU-to-ALU body positions) leave a
    // valid kernel; the Ok-side checks above must not go unexercised.
    assert!(decoded_ok.get() > 0, "no corrupted file decoded, so no Ok case was checked");
}
