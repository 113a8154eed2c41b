//! Golden-file test pinning the canonical binary encoding.
//!
//! The codec is the wire and disk format: persistent memo stores and the
//! plan-serving socket both speak it, so its byte layout is a compatibility
//! contract, not an implementation detail. This test freezes the exact
//! encoded bytes of a small deterministic payload (the default
//! [`PdwConfig`] frame) and the canonical digests of the demo instance,
//! of its certified plan artifact frame and of the plan response that
//! carries it.
//! Any codec change — a reordered field, a new value tag, a different
//! float encoding, a digest tweak — diffs here first.
//!
//! An *intentional* format change must bump
//! [`pathdriver_wash::SCHEMA_VERSION`] (so old stores are evicted as
//! [`CodecError::VersionSkew`](pathdriver_wash::CodecError), not
//! misread), and then refresh the snapshot with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p pathdriver-wash --test codec_golden
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use pathdriver_wash::codec::{check_frame, encode_frame, xxh64, CodecError, FrameType};
use pathdriver_wash::transport::encode_plan_frame;
use pathdriver_wash::{
    chip_hash, config_fingerprint, instance_hash, memo_key, plan_resilient, PdwConfig,
    PipelineStats, PlanArtifact, SCHEMA_VERSION,
};
use pdw_assay::benchmarks;
use pdw_synth::synthesize;

fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 && i % 32 == 0 {
            out.push('\n');
        }
        write!(out, "{b:02x}").expect("string write");
    }
    out
}

fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); create it with \
             UPDATE_GOLDEN=1 cargo test -p pathdriver-wash --test codec_golden",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{name}: the canonical encoding drifted. If intentional, bump \
         SCHEMA_VERSION and refresh with UPDATE_GOLDEN=1"
    );
}

#[test]
fn default_config_frame_bytes_are_pinned() {
    let frame = encode_frame(FrameType::Config, &PdwConfig::default());
    assert_golden("codec_config_frame.hex", &(hex(&frame) + "\n"));
}

fn unhex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(u8::is_ascii_hexdigit).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).expect("ascii"), 16).expect("hex"))
        .collect()
}

/// Reads the default config frame as an older codec wrote it and checks
/// it is typed skew. A config holds no coordinates and no paths, so its
/// value encoding is the same in v2 to v5: the frames differ only in
/// the version byte and the 8-byte digest trailer, and the version is
/// checked before the digest, so an old frame is typed skew, not a digest
/// mismatch.
fn assert_old_config_frame_is_version_skew(version: u8, fixture: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(fixture);
    let old = unhex(&fs::read_to_string(&path).expect("old config frame fixture"));
    assert_eq!(
        check_frame(&old).unwrap_err(),
        CodecError::VersionSkew {
            found: version,
            expected: SCHEMA_VERSION
        }
    );
    let now = encode_frame(FrameType::Config, &PdwConfig::default());
    assert_eq!(old.len(), now.len());
    let body = 5..now.len() - 8;
    assert_eq!((&old[..4], &old[body.clone()]), (&now[..4], &now[body]));
    assert_eq!((old[4], now[4]), (version, SCHEMA_VERSION));
}

/// The schema-v2 frame has an FNV-1a trailer.
#[test]
fn schema_v2_config_frame_is_version_skew() {
    assert_old_config_frame_is_version_skew(2, "codec_config_frame_v2.hex");
}

/// The schema-v3 frame has an XXH64 trailer and, like v4, no coordinate.
#[test]
fn schema_v3_config_frame_is_version_skew() {
    assert_old_config_frame_is_version_skew(3, "codec_config_frame_v3.hex");
}

/// The schema-v4 frame: v5 changed only the shape of `PipelineStats`,
/// which a config does not hold.
#[test]
fn schema_v4_config_frame_is_version_skew() {
    assert_old_config_frame_is_version_skew(4, "codec_config_frame_v4.hex");
}

#[test]
fn demo_instance_digests_are_pinned() {
    let bench = benchmarks::demo();
    let s = synthesize(&bench).expect("demo synthesizes");
    let config = PdwConfig::default();
    let ih = instance_hash(&bench, &s);
    let fp = config_fingerprint(&config);
    // The demo's certified plan, greedy so it is deterministic, with its
    // wall-clock stage timings zeroed: the frame then depends only on the
    // plan and the codec.
    let greedy = PdwConfig {
        ilp: false,
        ..PdwConfig::default()
    };
    let outcome = plan_resilient(&bench, &s, &greedy);
    let mut result = outcome.served.expect("demo is servable");
    result.pipeline = PipelineStats::default();
    let artifact = PlanArtifact::certified(
        ih,
        config_fingerprint(&greedy),
        outcome.rung.expect("a served plan has a rung"),
        &bench,
        &s,
        result,
    );
    let artifact_frame = artifact.encode();
    let (_, payload) = check_frame(&artifact_frame).expect("a fresh frame checks");
    let report = format!(
        "schema_version = {}\n\
         demo_chip_hash = {:016x}\n\
         demo_instance_hash = {:016x}\n\
         default_config_fingerprint = {:016x}\n\
         demo_memo_key = {:016x}\n\
         demo_artifact_frame_digest = {:016x}\n\
         demo_plan_response_digest = {:016x}\n",
        SCHEMA_VERSION,
        chip_hash(&s.chip),
        ih,
        fp,
        memo_key(ih, fp),
        xxh64(&artifact_frame),
        xxh64(&encode_plan_frame(7, true, false, payload)),
    );
    assert_golden("codec_digests.txt", &report);
}
