//! Golden-file test pinning the canonical binary encoding.
//!
//! The codec is the wire and disk format: persistent memo stores and
//! worker pipes both speak it, so its byte layout is a compatibility
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

use pathdriver_wash::codec::{check_frame, encode_frame, Fnv64, FrameType};
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
    let fnv = |bytes: &[u8]| {
        let mut h = Fnv64::new();
        h.write(bytes);
        h.finish()
    };
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
        fnv(&artifact_frame),
        fnv(&encode_plan_frame(7, true, false, payload)),
    );
    assert_golden("codec_digests.txt", &report);
}
