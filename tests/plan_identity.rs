//! Pinned plan digests: the front end must reproduce, bit for bit, the
//! groups and schedules recorded before the merge memo and candidate reuse
//! went in.
//!
//! For every bundled benchmark and the `pdw-gen` seeds 0–31, each row holds
//! the digests (FNV-1a over the canonical codec bytes) of
//! - the merged PDW front-end groups (Shortest policy, parts and candidate
//!   paths) and the greedy PDW schedule;
//! - the DAWO front-end groups (Nearest policy) and the DAWO schedule.
//!
//! One partitioned `mega` plan (K = 4) covers the overlap-gated cleanup
//! merge. A performance change to routing, grouping or merging must leave
//! every digest unchanged; a deliberate plan change re-pins the table from
//! the `actual` listing the failure prints.
//!
//! The digests hash canonical bytes, so they also move with a
//! `SCHEMA_VERSION` bump that changes how a plan's values encode (schema
//! v4 did: a `Coord` became one word and a `FlowPath` a step string). Such
//! a re-pin is justified only by showing the plans did not move: on a
//! scratch copy of the change, revert just the encoding impls and run this
//! test against the previous table; it must pass unchanged. Then re-pin
//! from the `actual` listing, and record every old → new digest.

use pathdriver_wash::codec::canonical_bytes;
use pathdriver_wash::{
    dawo_ctx, pdw_ctx, plan_partitioned, CandidatePolicy, FrontEndKey, PdwConfig, PlanContext,
    RungKind,
};
use pdw_assay::benchmarks::{self, Benchmark};
use pdw_contam::NecessityOptions;
use pdw_synth::{synthesize, Synthesis};

/// `(instance, PDW groups, PDW schedule, DAWO groups, DAWO schedule)`.
type Row = (String, u64, u64, u64, u64);

fn config() -> PdwConfig {
    PdwConfig {
        ilp: false,
        ..PdwConfig::default()
    }
}

fn instances() -> Vec<(String, Benchmark, Synthesis)> {
    let mut out = Vec::new();
    for bench in std::iter::once(benchmarks::demo()).chain(benchmarks::suite()) {
        let s = synthesize(&bench).expect("bundled benchmark synthesizes");
        out.push((bench.name.clone(), bench, s));
    }
    for seed in 0..32 {
        // Specs that do not synthesize are skipped; the skip set is part of
        // the pinned table (a row appears only for a synthesized seed).
        if let Ok((bench, s)) = pdw_gen::instance(&pdw_gen::spec_from_seed(seed)) {
            out.push((format!("seed-{seed}"), bench, s));
        }
    }
    out
}

/// FNV-1a 64 over a value's canonical bytes: the digest this table was
/// pinned with, kept here so the pins outlive the codec's own hash.
fn canonical_digest<T: serde::Serialize + ?Sized>(value: &T) -> u64 {
    canonical_bytes(value)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn front_end_digest(ctx: &PlanContext<'_>, key: FrontEndKey) -> u64 {
    canonical_digest(
        ctx.front_end(key)
            .expect("the planner cached its front end"),
    )
}

fn row(name: String, bench: &Benchmark, s: &Synthesis) -> Row {
    let config = config();
    let mut ctx = PlanContext::new(bench, s);
    let pdw = pdw_ctx(&mut ctx, &config).expect("greedy PDW plans");
    let pdw_groups = front_end_digest(
        &ctx,
        FrontEndKey {
            necessity: NecessityOptions::full(),
            policy: CandidatePolicy::Shortest,
            candidates: config.candidates,
            merged: true,
        },
    );
    let dawo = dawo_ctx(&mut ctx).expect("DAWO plans");
    let dawo_groups = front_end_digest(
        &ctx,
        FrontEndKey {
            necessity: NecessityOptions::reuse_only(),
            policy: CandidatePolicy::Nearest,
            candidates: 1,
            merged: false,
        },
    );
    (
        name,
        pdw_groups,
        canonical_digest(&pdw.schedule),
        dawo_groups,
        canonical_digest(&dawo.schedule),
    )
}

#[rustfmt::skip]
const PINNED: &[(&str, u64, u64, u64, u64)] = &[
    ("demo", 0x57e01b35720b7e48, 0xf6a6edbe85a1e131, 0xfafc09d21899603f, 0x18d9e661338400f2),
    ("PCR", 0xaff90c6c82787b8a, 0x611a07569270ef14, 0xb216af13425b8e8c, 0xffbeab170954acbb),
    ("IVD", 0xb6f7929f878f5925, 0x49b2fc4751c470e0, 0xeffa3697708bbd88, 0xb97c5f59360495cf),
    ("ProteinSplit", 0x32612049fda1757b, 0xac4b9baedf9115aa, 0x4760e85b5e385d42, 0x1d1d3aff477924e1),
    ("Kinase act-1", 0x5246c405a00df7bd, 0x230d060a9625c821, 0x393372abdf12d516, 0x9455f53184649857),
    ("Kinase act-2", 0x604aa2ae50002b92, 0xdd5f35d54e42f66b, 0x2fb8ec6d7ba0105a, 0x6aa3c1e6da14f8cb),
    ("Synthetic1", 0xa8a3e18301311f20, 0x8f6e605857afb335, 0x920d905c59f38af0, 0xe815bce1bdf6709f),
    ("Synthetic2", 0x13ac91d632734f35, 0x6a240bd0ca6e2d5e, 0x37846d360fcd748b, 0x2e52c0dbe66d7f3d),
    ("Synthetic3", 0xf46321fe34247d2b, 0x9686f945d7ea60fb, 0x6acecc685505ebc1, 0xd36be9ecd5daad14),
    ("seed-0", 0x616cc7b93fcd0132, 0x071df583f984e775, 0x7f865c39db608260, 0xe00e7a82b2e92094),
    ("seed-1", 0x1bbbe8300fda75f9, 0x105be9d2b650fb12, 0x1b68d45b849feb7b, 0x6bcfe514bc552035),
    ("seed-2", 0xdf3f7295c9fa18d0, 0xec99f2a02c08760f, 0x383d68a57c090716, 0xc84c355f80c6deb3),
    ("seed-3", 0xaa6a0e00b15c0f98, 0x683f91eeb36a4344, 0xf10f578b61a5e94b, 0x1ee9998b3596ab57),
    ("seed-4", 0x9b19b7e3ac908405, 0x4392cf49bf9e4d22, 0x2a596838dda7f953, 0xa6b3a70623be267f),
    ("seed-5", 0x971c34d4194aa4f5, 0x787c6686b7710910, 0x7c10b233935bf901, 0x27a6716eaa99b0f6),
    ("seed-6", 0x7b06a73b46797506, 0xbe24687df73c6e88, 0xa8d22d24e900a42a, 0x352b1333d85fff85),
    ("seed-7", 0xebf70cc5b9beda38, 0x87d1116ae7632d12, 0x25d66d7a498f4055, 0x5306649b3c8d4932),
    ("seed-8", 0x34c1ec15c094257d, 0xcd2db10738568a2c, 0xcd2d94feeb1c43c9, 0x15fa0b208a738bb7),
    ("seed-9", 0xbd065f2e221b1d4d, 0x679651fc28215329, 0x72cd3a31b90361b8, 0x85f29e6695a1f234),
    ("seed-10", 0x0ec73e7201c51878, 0x34675b5976595bbd, 0xbc27c3817a8fbf59, 0x429939be9f6a59b0),
    ("seed-11", 0xab7d44bb7eb78787, 0xe0affc99dd49fd9c, 0x00e98370cd8f7a9a, 0xce91b81192ac8417),
    ("seed-12", 0x7d288d124586383d, 0xc2742a69900bf336, 0x16fda7d057393dbb, 0x6fd6b64f58c1f78e),
    ("seed-13", 0xa77889f5bfd3f9ba, 0xdf4c24d3f7e5a208, 0x381ebebea0c9f0e8, 0x3904eb5bedd57772),
    ("seed-14", 0x5b150d7af8656517, 0x0ab2788d4c8499fd, 0x374c392c445307b3, 0x7525533df3b061f5),
    ("seed-15", 0x96f890f7872ecbb6, 0x72535771ce8fd502, 0xd4dc6ba9e96d3543, 0xe1a9dff636f2309d),
    ("seed-16", 0x62a5ba6e389e4148, 0x6e337c6af2711434, 0x1153aba2236e6c65, 0x5c20254736f4ad62),
    ("seed-17", 0xacc6ef8f9b2c998c, 0x2eaf24cbe71e5d59, 0x0f9440b7f5850e8a, 0x5d99f9a54018aaad),
    ("seed-18", 0xee5e733ba1cacff7, 0xe77ae3b143cc753a, 0x219b6abb58e7e1dc, 0x1c43bfb8174c1190),
    ("seed-19", 0x7715198497396d76, 0xa407db609f3fa667, 0x83a461b6862875a4, 0x7c15bd45da91cf37),
    ("seed-20", 0x3c7155e2d70e3642, 0x73b5c19e519b473c, 0x8c09d937401b84ef, 0x31e1853a5586c665),
    ("seed-21", 0x62bfae178ec35b25, 0xfeae3e2d59fe3b46, 0x61b2a0be483533f4, 0x75d152f03e858688),
    ("seed-22", 0x0b0818086b3b1027, 0xe63224983c45fdcc, 0x28fe1072c2ee8eca, 0xb639ccb5f9591c72),
    ("seed-23", 0x39da411803db3f06, 0x0ad0be886166afb7, 0x09a8f42ab7d9c81f, 0x04a7d14879e8f0b0),
    ("seed-24", 0xd7d442c80aaa5da6, 0x2ac2e7d8223c3d2e, 0x9212d17428a71e99, 0x93c0afd5e074b3aa),
    ("seed-25", 0x1fc907eb1a54652e, 0x4d675c20475b54df, 0xcc4a2c55a36272cb, 0x6d3fc0fb9140d97f),
    ("seed-26", 0x9bad802a10b544ce, 0x54d56590b9068244, 0xa023d1aafaa07d26, 0x62e16f20c1e44e6f),
    ("seed-27", 0xfd5b23c6427d6ab3, 0x579b6acc1fdc2528, 0xefcbca770a870765, 0x5f3c23128d2684ef),
    ("seed-28", 0x2139616c6e26c277, 0xfd21fe626a37ad09, 0x64cd56f3e1547bef, 0xcb032cef54b9a477),
    ("seed-29", 0xbc37fef8ddef6718, 0x220233903c081c10, 0x48c5b9453d4d62e5, 0x4a6971a032de2a84),
    ("seed-30", 0x9e5143a90eea28f6, 0x18f69381e42913b1, 0xcc371341a5de8b89, 0x2e0f11a8955fed8f),
    ("seed-31", 0xf638b92a7a0db611, 0x8233bbf0c4abcb51, 0xfb300a35a3c06e32, 0x60d174a62ce36b36),
];

#[test]
fn front_end_groups_and_schedules_match_the_pinned_digests() {
    let actual: Vec<Row> = instances()
        .into_iter()
        .map(|(name, bench, s)| row(name, &bench, &s))
        .collect();
    let pinned: Vec<Row> = PINNED
        .iter()
        .map(|&(n, a, b, c, d)| (n.to_string(), a, b, c, d))
        .collect();
    if actual != pinned {
        let listing: String = actual
            .iter()
            .map(|(n, a, b, c, d)| {
                format!("    ({n:?}, {a:#018x}, {b:#018x}, {c:#018x}, {d:#018x}),\n")
            })
            .collect();
        panic!("plan digests moved; actual:\n{listing}");
    }
}

const PINNED_MEGA_SCHEDULE: u64 = 0x14200a667aa4b618;

#[test]
fn partitioned_mega_schedule_matches_the_pinned_digest() {
    let spec = pdw_gen::mega_spec(41, 10, 1);
    let (bench, s) = pdw_gen::mega_instance(&spec).expect("mega instance synthesizes");
    let outcome = plan_partitioned(&bench, &s, &config(), 4);
    assert_eq!(outcome.rung, Some(RungKind::Partitioned), "{outcome}");
    let served = outcome.served.expect("partitioned plan served");
    let digest = canonical_digest(&served.schedule);
    assert_eq!(digest, PINNED_MEGA_SCHEDULE, "actual: {digest:#018x}");
}
