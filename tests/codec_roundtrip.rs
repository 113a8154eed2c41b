//! Property tests of the canonical binary codec: every payload the system
//! frames — instances, fault-injected synstates, repair deltas, mega
//! sub-chip views, plan artifacts — must survive an encode/decode round
//! trip bit-exactly, and every way a frame can be damaged must surface as
//! a *typed* [`CodecError`], never a wrong value.
//!
//! "Bit-exactly" is asserted on the canonical bytes themselves:
//! `canonical_bytes(decode(encode(x))) == canonical_bytes(x)` is the
//! codec's fixed-point property and needs no `PartialEq` on the domain
//! types (where one exists, direct equality is asserted too).

use proptest::prelude::*;

use pathdriver_wash::codec::{
    canonical_bytes, check_frame, check_frame_capped, decode_frame, encode_frame, frame_payload,
    read_frame, read_frame_capped, FrameType,
};
use pathdriver_wash::transport::hello;
use pathdriver_wash::{
    chip_hash, config_fingerprint, instance_hash, plan_resilient, CodecError, NetRequest,
    PdwConfig, PlanArtifact, PlanDelta, Weights,
};
use pdw_assay::OpId;
use pdw_biochip::Chip;
use pdw_gen::{instance, spec_strategy, Skip};
use pdw_synth::Synthesis;
use serde::{Deserialize, Serialize, Value};

/// Round-trips `value` through a frame of type `ty` and asserts the
/// decoded value re-encodes to the identical canonical bytes.
fn assert_fixed_point<T>(ty: FrameType, value: &T) -> T
where
    T: serde::Serialize + serde::Deserialize,
{
    let frame = encode_frame(ty, value);
    let decoded: T = decode_frame(ty, &frame).expect("frame decodes");
    assert_eq!(
        canonical_bytes(&decoded),
        canonical_bytes(value),
        "decode(encode(x)) drifted from x"
    );
    decoded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Generated instances (benchmark + synthesis), their wash
    /// requirements, and their fault-injected variants all round-trip
    /// bit-exactly, and the decoded instance hashes identically.
    #[test]
    fn generated_instances_round_trip(spec in spec_strategy()) {
        let (bench, s) = match instance(&spec) {
            Ok(pair) => pair,
            Err(Skip::Deadlock(_)) => {
                prop_assume!(false);
                unreachable!()
            }
            Err(Skip::Infeasible(e)) => {
                return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "synthesis: {e}"
                )))
            }
        };

        let decoded: Synthesis = assert_fixed_point(FrameType::Instance, &s);
        prop_assert_eq!(
            instance_hash(&bench, &decoded),
            instance_hash(&bench, &s),
            "decoded synthesis hashes differently"
        );
        prop_assert_eq!(chip_hash(&decoded.chip), chip_hash(&s.chip));

        // The analyzed wash-requirement set (the worker protocol's job
        // payload) round-trips as well.
        let analysis = pdw_contam::analyze(
            &s.chip,
            &bench.graph,
            &s.schedule,
            pdw_contam::NecessityOptions::full(),
        );
        assert_fixed_point(FrameType::Instance, &analysis.requirements);

        // Fault injection mutates the chip; the faulted synthesis must
        // round-trip with its fault set intact (distinct chip hash).
        let faulted = pdw_gen::inject_faults(&s, 7);
        let decoded_faulted: Synthesis = assert_fixed_point(FrameType::Instance, &faulted);
        prop_assert_eq!(chip_hash(&decoded_faulted.chip), chip_hash(&faulted.chip));
    }

    /// The direct canonical stream of an instance and of its certified
    /// artifact is byte-identical to the stream of its `Value` tree: the
    /// typed encoder and the tree-walking one agree.
    #[test]
    fn direct_encoding_matches_the_value_tree(spec in spec_strategy()) {
        let Ok((bench, s)) = instance(&spec) else {
            prop_assume!(false);
            unreachable!()
        };
        prop_assert_eq!(canonical_bytes(&bench), canonical_bytes(&bench.to_value()));
        prop_assert_eq!(canonical_bytes(&s), canonical_bytes(&s.to_value()));
        let config = PdwConfig {
            ilp: false,
            ..PdwConfig::default()
        };
        let outcome = plan_resilient(&bench, &s, &config);
        if let (Some(result), Some(rung)) = (outcome.served, outcome.rung) {
            let artifact = PlanArtifact::certified(
                instance_hash(&bench, &s),
                config_fingerprint(&config),
                rung,
                &bench,
                &s,
                result,
            );
            prop_assert_eq!(
                canonical_bytes(&artifact),
                canonical_bytes(&artifact.to_value())
            );
        }
    }

    /// Every mega sub-chip view — a region carved from a partitioned
    /// mega grid, band faults applied — round-trips bit-exactly.
    #[test]
    fn mega_sub_chip_views_round_trip(seed in 0u64..4) {
        let spec = pdw_gen::mega_spec(65, 12, seed);
        let (_, pristine) = pdw_gen::mega_instance(&spec).expect("mega instance synthesizes");
        let s = pdw_gen::inject_faults(&pristine, seed);
        let part = pdw_biochip::partition(&s.chip, 4).expect("mega grid partitions");
        prop_assert!(part.regions().len() > 1);
        for region in part.regions() {
            let decoded: Chip = assert_fixed_point(FrameType::Chip, region.chip());
            prop_assert_eq!(chip_hash(&decoded), chip_hash(region.chip()));
        }
    }
}

#[test]
fn every_plan_delta_variant_round_trips_equal() {
    let bench = pdw_assay::benchmarks::demo();
    let s = pdw_synth::synthesize(&bench).expect("demo synthesizes");
    let analysis = pdw_contam::analyze(
        &s.chip,
        &bench.graph,
        &s.schedule,
        pdw_contam::NecessityOptions::full(),
    );
    let requirement = analysis.requirements.first().expect("demo needs washes");
    let fault = (1..32)
        .find_map(|seed| pdw_gen::fault_delta(&s, seed))
        .expect("some seed yields a fault delta");
    let deltas = [
        PlanDelta::Fault(fault),
        PlanDelta::DelayOp {
            op: OpId(3),
            delay: 17,
        },
        PlanDelta::AddRequirement(requirement.clone()),
        PlanDelta::DropRequirement {
            cell: requirement.cell,
        },
    ];
    for delta in &deltas {
        let decoded: PlanDelta = assert_fixed_point(FrameType::Delta, delta);
        assert_eq!(&decoded, delta, "PlanDelta implements PartialEq; use it");
    }
}

#[test]
fn certified_artifacts_round_trip_and_still_verify() {
    let bench = pdw_assay::benchmarks::demo();
    let s = pdw_synth::synthesize(&bench).expect("demo synthesizes");
    let config = PdwConfig {
        ilp: false,
        ..PdwConfig::default()
    };
    let outcome = plan_resilient(&bench, &s, &config);
    let result = outcome.served.expect("demo solves");
    let rung = outcome.rung.expect("a rung served");
    let artifact = PlanArtifact::certified(
        instance_hash(&bench, &s),
        config_fingerprint(&config),
        rung,
        &bench,
        &s,
        result,
    );
    let decoded = PlanArtifact::decode(&artifact.encode()).expect("artifact decodes");
    assert_eq!(
        canonical_bytes(&decoded),
        canonical_bytes(&artifact),
        "artifact round trip drifted"
    );
    decoded
        .verify(&bench, &s)
        .expect("decoded artifact re-verifies against the live instance");
}

/// A frame for damage tests: small, deterministic, cheap to build.
fn sample_frame() -> Vec<u8> {
    encode_frame(FrameType::Config, &PdwConfig::default())
}

#[test]
fn truncation_at_every_length_is_a_typed_error() {
    let frame = sample_frame();
    // Every proper prefix must fail closed with Truncated — never panic,
    // never decode to a value.
    for cut in 0..frame.len() {
        match check_frame(&frame[..cut]) {
            Err(CodecError::Truncated { needed, have }) => {
                assert_eq!(have, cut);
                assert!(needed > cut, "cut {cut}: needed {needed} not past cut");
            }
            other => panic!("cut {cut}: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn corrupted_payload_is_a_digest_mismatch() {
    let mut frame = sample_frame();
    let mid = frame.len() / 2;
    frame[mid] ^= 0x40;
    assert!(
        matches!(check_frame(&frame), Err(CodecError::DigestMismatch { .. })),
        "a flipped payload byte must fail the digest"
    );
}

#[test]
fn corrupted_digest_trailer_is_a_digest_mismatch() {
    let mut frame = sample_frame();
    let last = frame.len() - 1;
    frame[last] ^= 0x01;
    assert!(matches!(
        check_frame(&frame),
        Err(CodecError::DigestMismatch { .. })
    ));
}

#[test]
fn foreign_magic_and_version_skew_are_typed() {
    let mut frame = sample_frame();
    frame[0] = b'X';
    assert!(matches!(
        check_frame(&frame),
        Err(CodecError::BadMagic { .. })
    ));

    let mut frame = sample_frame();
    frame[4] = frame[4].wrapping_add(1);
    match check_frame(&frame) {
        Err(CodecError::VersionSkew { found, expected }) => {
            assert_eq!(found, expected.wrapping_add(1));
        }
        other => panic!("expected VersionSkew, got {other:?}"),
    }
}

#[test]
fn mislabelled_frame_type_is_typed() {
    let frame = sample_frame();
    match decode_frame::<PdwConfig>(FrameType::Chip, &frame) {
        Err(CodecError::UnexpectedFrameType { found, expected }) => {
            assert_eq!(found, FrameType::Config as u8);
            assert_eq!(expected, FrameType::Chip as u8);
        }
        other => panic!("expected UnexpectedFrameType, got {other:?}"),
    }
}

#[test]
fn stream_ending_mid_frame_is_truncated_not_eof() {
    let frame = sample_frame();
    // Clean EOF at a frame boundary: None.
    let mut cursor = std::io::Cursor::new(frame.clone());
    let read = read_frame(&mut cursor).expect("whole frame reads");
    assert_eq!(read.as_deref(), Some(frame.as_slice()));
    assert!(matches!(read_frame(&mut cursor), Ok(None)), "clean EOF");

    // EOF mid-header and mid-payload: Truncated with honest counts.
    for cut in [3, frame.len() - 5] {
        let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
        match read_frame(&mut cursor) {
            Err(CodecError::Truncated { have, .. }) => assert_eq!(have, cut),
            other => panic!("cut {cut}: expected Truncated, got {other:?}"),
        }
    }
}

/// A reader that counts how many bytes the decoder actually consumed —
/// the observable proof that an oversized length field is rejected
/// *before* any payload byte is read (and hence before any payload
/// buffer is allocated).
struct CountingReader {
    inner: std::io::Cursor<Vec<u8>>,
    consumed: usize,
}

impl CountingReader {
    fn new(bytes: Vec<u8>) -> Self {
        CountingReader {
            inner: std::io::Cursor::new(bytes),
            consumed: 0,
        }
    }
}

impl std::io::Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.consumed += n;
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite: corrupting the u32 length field — any of its four bytes,
    /// any non-zero XOR mask — never drives an allocation past the cap.
    /// An inflated length is a typed `FrameTooLarge` raised after exactly
    /// the header was read (no payload byte consumed, nothing allocated);
    /// a deflated length misaligns the digest and fails `check_frame`.
    #[test]
    fn corrupt_length_bytes_at_every_offset_never_allocate_past_cap(mask in 1u8..=u8::MAX) {
        let clean = sample_frame();
        let (_, payload) = check_frame(&clean).expect("clean frame checks");
        let cap = payload.len();
        let header_len = clean.len() - payload.len() - 8; // magic+ver+type+len
        prop_assert_eq!(header_len, 10);
        for offset in 6..10 {
            let mut frame = clean.clone();
            frame[offset] ^= mask;
            let corrupted_len =
                u32::from_le_bytes(frame[6..10].try_into().unwrap()) as usize;
            prop_assert_ne!(corrupted_len, cap, "non-zero mask must change the length");
            let mut reader = CountingReader::new(frame.clone());
            match read_frame_capped(&mut reader, cap) {
                Err(CodecError::FrameTooLarge { len, cap: c }) => {
                    prop_assert!(corrupted_len > cap, "only oversized lengths are FrameTooLarge");
                    prop_assert_eq!(len, corrupted_len);
                    prop_assert_eq!(c, cap);
                    prop_assert_eq!(
                        reader.consumed, header_len,
                        "rejection must happen before any payload byte is read"
                    );
                }
                Ok(Some(bytes)) => {
                    // A deflated length reads fewer bytes than the real
                    // frame; the digest trailer no longer lines up, so the
                    // envelope check fails closed — typed, never a value.
                    prop_assert!(corrupted_len < cap);
                    prop_assert!(check_frame_capped(&bytes, cap).is_err());
                }
                Err(other) => {
                    // Any other typed refusal (e.g. Truncated when the
                    // deflated read path lands mid-stream) is fine too.
                    prop_assert!(corrupted_len != cap, "typed error expected: {other:?}");
                }
                Ok(None) => prop_assert!(false, "corrupt frame must not be a clean EOF"),
            }
        }
    }
}

#[test]
fn oversized_length_field_is_frame_too_large_not_an_allocation() {
    let mut frame = sample_frame();
    // Claim a ~3.9 GiB payload.
    frame[6..10].copy_from_slice(&0xf000_0000u32.to_le_bytes());
    let mut reader = CountingReader::new(frame.clone());
    match read_frame(&mut reader) {
        Err(CodecError::FrameTooLarge { len, cap }) => {
            assert_eq!(len, 0xf000_0000usize);
            assert_eq!(cap, pathdriver_wash::codec::DEFAULT_MAX_FRAME_LEN);
            assert_eq!(reader.consumed, 10, "no payload byte read");
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    assert!(matches!(
        check_frame(&frame),
        Err(CodecError::FrameTooLarge { .. })
    ));
}

#[test]
fn canonical_bytes_are_insensitive_to_weight_noise_only_when_equal() {
    // The fingerprint is a function of the config *values*: a changed
    // weight must change the canonical bytes (no accidental lossiness).
    let base = PdwConfig::default();
    let tweaked = PdwConfig {
        weights: Weights {
            alpha: base.weights.alpha + 1.0,
            ..base.weights
        },
        ..base.clone()
    };
    assert_ne!(canonical_bytes(&base), canonical_bytes(&tweaked));
    assert_ne!(config_fingerprint(&base), config_fingerprint(&tweaked));
}

/// A struct with a required, an optional and a float field.
#[derive(Debug, Serialize, Deserialize)]
struct Probe {
    a: u32,
    b: Option<u32>,
    x: f64,
}

/// An enum with a unit, a tuple and a named-field variant.
#[derive(Debug, Serialize, Deserialize)]
enum Shape {
    Unit,
    Pair(u32, u32),
    Named { w: u32 },
}

fn obj(entries: &[(&str, Value)]) -> Value {
    Value::Object(
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

/// Decodes `doc` as `T` from its canonical bytes and from its `Value`
/// tree (directly, and through JSON text when the text reproduces the
/// tree), and checks every path agrees with `expect`: `Ok(debug)` for the
/// decoded value's `Debug` form, `Err(part)` for a byte-path
/// `Malformed` and a tree-path error whose messages contain `part`.
fn check_parity<T: Deserialize + std::fmt::Debug>(doc: &Value, expect: Result<&str, &str>) {
    let frame = encode_frame(FrameType::Config, doc);
    let bytes = decode_frame::<T>(FrameType::Config, &frame).map_err(|e| match e {
        CodecError::Malformed(msg) => msg,
        other => panic!("{doc:?}: expected Malformed, got {other:?}"),
    });
    let mut paths = vec![
        ("bytes", bytes),
        ("value", T::from_value(doc).map_err(|e| e.to_string())),
    ];
    let json = serde_json::to_string(doc).expect("a value renders as JSON");
    if serde_json::from_str::<Value>(&json).ok().as_ref() == Some(doc) {
        paths.push((
            "json",
            serde_json::from_str::<T>(&json).map_err(|e| e.to_string()),
        ));
    }
    for (path, got) in paths {
        match (&got, expect) {
            (Ok(v), Ok(want)) => assert_eq!(format!("{v:?}"), want, "{path}: {doc:?}"),
            (Err(msg), Err(part)) => {
                assert!(
                    msg.contains(part),
                    "{path}: {doc:?}: {msg:?} lacks {part:?}"
                )
            }
            _ => panic!("{path}: {doc:?}: got {got:?}, expected {expect:?}"),
        }
    }
}

#[test]
fn decode_semantics_match_across_byte_and_value_sources() {
    use Value::{Array, Float, Int, Null, Str, UInt};
    let probes: Vec<(&str, Value, Result<&str, &str>)> = vec![
        (
            "missing Option is None, fields in any order",
            obj(&[("x", Float(1.5)), ("a", Int(1))]),
            Ok("Probe { a: 1, b: None, x: 1.5 }"),
        ),
        (
            "missing non-Option is an error naming type and field",
            obj(&[("b", Int(2)), ("x", Float(0.5))]),
            Err("Probe: missing field `a`"),
        ),
        (
            "unknown field is skipped",
            obj(&[
                ("a", Int(1)),
                ("zz", Array(vec![Int(1), obj(&[("q", Str("r".into()))])])),
                ("b", Int(2)),
                ("x", Float(0.5)),
            ]),
            Ok("Probe { a: 1, b: Some(2), x: 0.5 }"),
        ),
        (
            "the first duplicate wins, the second is not type-checked",
            obj(&[("a", Int(1)), ("a", Str("two".into())), ("x", Float(0.0))]),
            Ok("Probe { a: 1, b: None, x: 0.0 }"),
        ),
        (
            "u32 from UInt",
            obj(&[("a", UInt(7)), ("x", Float(0.0))]),
            Ok("Probe { a: 7, b: None, x: 0.0 }"),
        ),
        (
            "u32 from an integral Float",
            obj(&[("a", Float(3.0)), ("x", Float(0.0))]),
            Ok("Probe { a: 3, b: None, x: 0.0 }"),
        ),
        (
            "u32 out of range names the field",
            obj(&[("a", Int(1 << 32)), ("x", Float(0.0))]),
            Err("Probe.a"),
        ),
        (
            "u32 from a fractional Float names the field",
            obj(&[("a", Float(2.5)), ("x", Float(0.0))]),
            Err("Probe.a"),
        ),
        (
            "f64 from Null is NaN",
            obj(&[("a", Int(1)), ("x", Null)]),
            Ok("Probe { a: 1, b: None, x: NaN }"),
        ),
        (
            "missing f64 is NaN",
            obj(&[("a", Int(1))]),
            Ok("Probe { a: 1, b: None, x: NaN }"),
        ),
        ("not an object names the type", Array(vec![]), Err("Probe")),
    ];
    for (what, doc, expect) in &probes {
        eprintln!("probe: {what}");
        check_parity::<Probe>(doc, *expect);
    }
    let shapes: Vec<(&str, Value, Result<&str, &str>)> = vec![
        ("unit variant as a string", Str("Unit".into()), Ok("Unit")),
        (
            "tuple variant as a single-key object",
            obj(&[("Pair", Array(vec![Int(1), Int(2)]))]),
            Ok("Pair(1, 2)"),
        ),
        (
            "named variant as a single-key object",
            obj(&[("Named", obj(&[("w", Int(4))]))]),
            Ok("Named { w: 4 }"),
        ),
        (
            "wrong tuple arity",
            obj(&[("Pair", Array(vec![Int(1), Int(2), Int(3)]))]),
            Err("Shape::Pair"),
        ),
        (
            "unknown data variant",
            obj(&[("Nope", Int(1))]),
            Err("unknown variant `Nope` for Shape"),
        ),
        (
            "unknown unit variant",
            Str("Nope".into()),
            Err("unknown unit variant `Nope` for Shape"),
        ),
        (
            "a two-key object is no variant",
            obj(&[("Unit", Null), ("Pair", Null)]),
            Err("Shape"),
        ),
        (
            "missing field inside a variant",
            obj(&[("Named", obj(&[]))]),
            Err("Shape::Named: missing field `w`"),
        ),
    ];
    for (what, doc, expect) in &shapes {
        eprintln!("shape: {what}");
        check_parity::<Shape>(doc, *expect);
    }
    let tuples: Vec<(&str, Value, Result<&str, &str>)> = vec![
        ("tuple of two", Array(vec![Int(1), Int(2)]), Ok("(1, 2)")),
        ("tuple arity", Array(vec![Int(1)]), Err("wrong tuple arity")),
    ];
    for (what, doc, expect) in &tuples {
        eprintln!("tuple: {what}");
        check_parity::<(u32, u32)>(doc, *expect);
    }

    // Two failures only bytes can carry. Trailing bytes after the value:
    let mut payload = canonical_bytes(&obj(&[("a", Int(1)), ("x", Float(0.0))]));
    payload.push(0);
    let frame = frame_payload(FrameType::Config, &[&payload]);
    assert!(matches!(
        decode_frame::<Probe>(FrameType::Config, &frame),
        Err(CodecError::Malformed(m)) if m.contains("trailing")
    ));
    // And a string that is not UTF-8, as a value and as a key:
    for doc in [
        obj(&[("a", Int(1)), ("s", Str("\u{7f}".into()))]),
        obj(&[("a", Int(1)), ("\u{7f}", Null)]),
    ] {
        let mut payload = canonical_bytes(&doc);
        let at = payload
            .iter()
            .rposition(|&b| b == 0x7f)
            .expect("marker byte");
        payload[at] = 0xff;
        let frame = frame_payload(FrameType::Config, &[&payload]);
        assert!(matches!(
            decode_frame::<Probe>(FrameType::Config, &frame),
            Err(CodecError::Malformed(m)) if m.contains("UTF-8")
        ));
    }
    // A payload that ends mid-value is still Truncated, not Malformed.
    let payload = canonical_bytes(&obj(&[("a", Int(1))]));
    let frame = frame_payload(FrameType::Config, &[&payload[..payload.len() - 3]]);
    assert!(matches!(
        decode_frame::<Probe>(FrameType::Config, &frame),
        Err(CodecError::Truncated { .. })
    ));
}

/// A canonical payload of `depth` nested one-element arrays.
fn nested_arrays(depth: usize) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(depth * 5 + 1);
    for _ in 0..depth {
        // Tag 7 (array) and a length of one.
        bytes.extend_from_slice(&[7, 1, 0, 0, 0]);
    }
    bytes.push(0);
    bytes
}

/// A `NetRequest` frame whose payload nests `depth` arrays deep: bare, or
/// as an unknown field of a `Hello` (the first frame a server decodes).
fn deep_request_frames(depth: usize) -> [Vec<u8>; 2] {
    let deep = nested_arrays(depth);
    let bare = frame_payload(FrameType::NetRequest, &[&deep]);
    let NetRequest::Hello { codec_version } = hello() else {
        unreachable!("hello() is a Hello")
    };
    let mut head = canonical_bytes(&obj(&[(
        "Hello",
        obj(&[
            ("codec_version", Value::Int(codec_version.into())),
            ("pad", Value::Null),
        ]),
    )]));
    head.pop(); // the `pad` placeholder: the deep value takes its place
    let padded = frame_payload(FrameType::NetRequest, &[&head, &deep]);
    [bare, padded]
}

#[test]
fn deeply_nested_frames_are_typed_errors_not_stack_overflows() {
    // A spawned thread has the default stack: recursing once per level
    // would overflow it and abort the process.
    std::thread::spawn(|| {
        for frame in deep_request_frames(30_000) {
            assert!(matches!(
                decode_frame::<NetRequest>(FrameType::NetRequest, &frame),
                Err(CodecError::Malformed(_))
            ));
            assert!(matches!(
                decode_frame::<Value>(FrameType::NetRequest, &frame),
                Err(CodecError::Malformed(m)) if m.contains("deeper")
            ));
        }
    })
    .join()
    .expect("decoding a deep frame returns instead of aborting");

    // The limit is exact: `serde::MAX_DEPTH` levels decode (into `Value`,
    // or skipped as an unknown field), one more does not.
    let [bare, padded] = deep_request_frames(serde::MAX_DEPTH);
    assert!(decode_frame::<Value>(FrameType::NetRequest, &bare).is_ok());
    assert!(matches!(
        decode_frame::<NetRequest>(FrameType::NetRequest, &padded),
        Ok(NetRequest::Hello { .. })
    ));
    let [bare, padded] = deep_request_frames(serde::MAX_DEPTH + 1);
    assert!(matches!(
        decode_frame::<Value>(FrameType::NetRequest, &bare),
        Err(CodecError::Malformed(m)) if m.contains("deeper")
    ));
    assert!(matches!(
        decode_frame::<NetRequest>(FrameType::NetRequest, &padded),
        Err(CodecError::Malformed(m)) if m.contains("deeper")
    ));
}
