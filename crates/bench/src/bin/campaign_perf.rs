//! Campaign-pipeline performance trajectory: writes `BENCH_campaign.json`
//! at the repository root with median wall-times per campaign stage
//! (profile indexing, injection-run generation, indexed FCA, reference
//! FCA, phase-one clustering), so successive PRs can track the analysis
//! hot path the way `BENCH_beam.json` tracks the search.
//!
//! The indexed FCA figure **includes every index build** (the per-test
//! `ProfileIndex` and the per-experiment `TraceIndex`), so the reported
//! speedup is end-to-end honest. Outcome equivalence against
//! `analyze_experiment_reference` is asserted over the whole campaign,
//! sparse clustering is verified against the retained O(n³) reference on
//! the **full** campaign vector set (the reference left the hot path, so
//! it can afford one full-size run), and the large-n clustering cases —
//! scales a dense pairwise matrix could not reach — are checked against
//! the §5.2 cut-quality bounds plus the matrix-vs-sparse-graph byte
//! comparison, all recorded in the artifact.
//!
//! Run with `cargo run --release -p csnake-bench --bin campaign_perf`;
//! set `CSNAKE_PERF_SMOKE=1` for the CI-sized campaign.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use csnake_bench::campaign::{
    hot_dimension_vectors, synthetic_vectors, CampaignSpec, SyntheticCampaign,
};
use csnake_bench::watchdog;
use csnake_core::cluster::{
    hierarchical_cluster, hierarchical_cluster_reference, hierarchical_cluster_with_stats,
    verify_cut_quality,
};
use csnake_core::fca::{analyze_experiment_indexed, analyze_experiment_reference, ProfileIndex};
use csnake_core::idf::{IdfVectorizer, SparseVec};
use csnake_core::{ExperimentOutcome, FcaConfig};
use csnake_inject::{FaultId, TestId};

const SAMPLES: usize = 5;
const CLUSTER_THRESHOLD: f64 = 0.5;
/// The timed reference stage stays at this prefix size (its key has been
/// tracked since the artifact's introduction); the *equivalence check*
/// runs on the full vector set.
const CLUSTER_REFERENCE_TIMED_N: usize = 300;
/// Large-n clustering cases: scales where the dense `8·n²`-byte matrix
/// would not fit (50k vectors ⇒ 20 GB, 200k ⇒ 320 GB).
const CLUSTER_LARGE_FULL: &[usize] = &[50_000, 200_000];
const CLUSTER_LARGE_SMOKE: &[usize] = &[10_000];
const CLUSTER_LARGE_SEED: u64 = 0x5EED_C10C;

fn median(mut xs: Vec<u128>) -> u128 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn main() {
    #[allow(clippy::disallowed_methods)] // smoke switch read once at start-up
    let smoke = std::env::var_os("CSNAKE_PERF_SMOKE").is_some();
    let spec = if smoke {
        CampaignSpec::smoke()
    } else {
        CampaignSpec::full()
    };
    let campaign = SyntheticCampaign::generate(&spec);
    let registry = campaign.registry().clone();
    let tests = campaign.tests();
    let experiments: Vec<(FaultId, TestId)> = campaign
        .faults()
        .iter()
        .flat_map(|&f| tests.iter().map(move |&t| (f, t)))
        .collect();
    let cfg = FcaConfig::default();
    eprintln!(
        "campaign: {} points, {} faults × {} tests = {} experiments, {} reps{}",
        registry.points().len(),
        campaign.faults().len(),
        tests.len(),
        experiments.len(),
        spec.reps,
        if smoke { " (smoke)" } else { "" }
    );

    // Stage 1: profile runs + per-test profile indexing (shared by every
    // experiment on the test).
    let wd = watchdog::guard("campaign:profile");
    let mut profile_ns = Vec::with_capacity(SAMPLES);
    let mut profiles: Vec<Vec<csnake_inject::RunTrace>> = Vec::new();
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        profiles = tests.iter().map(|&t| campaign.profile_traces(t)).collect();
        let idx: Vec<ProfileIndex> = profiles
            .iter()
            .map(|tr| ProfileIndex::build(&registry, tr))
            .collect();
        std::hint::black_box(idx);
        profile_ns.push(t0.elapsed().as_nanos());
    }
    let profile_ns = median(profile_ns);

    drop(wd);
    let wd = watchdog::guard("campaign:injection");

    // Stage 2: injection-run generation for the whole campaign (the
    // simulated "run the workloads" cost; regenerated per experiment so
    // the campaign never holds all traces at once).
    let mut injection_ns = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        let mut total_runs = 0usize;
        for &(f, t) in &experiments {
            total_runs += campaign.injection_traces(f, t).len();
        }
        std::hint::black_box(total_runs);
        injection_ns.push(t0.elapsed().as_nanos());
    }
    let injection_ns = median(injection_ns);

    drop(wd);
    let wd = watchdog::guard("campaign:fca-indexed");

    // Stage 3: indexed FCA over the whole campaign, timing only analysis
    // (per-experiment TraceIndex build + edge extraction) plus the
    // ProfileIndex builds — trace generation is excluded on both paths, so
    // the comparison isolates the analysis.
    let mut fca_indexed_ns = Vec::with_capacity(SAMPLES);
    let mut outcomes: Vec<ExperimentOutcome> = Vec::new();
    for sample in 0..SAMPLES {
        let mut spent = Duration::ZERO;
        let t0 = Instant::now();
        let idx: Vec<ProfileIndex> = profiles
            .iter()
            .map(|tr| ProfileIndex::build(&registry, tr))
            .collect();
        spent += t0.elapsed();
        let mut outs = Vec::with_capacity(experiments.len());
        for &(f, t) in &experiments {
            let traces = campaign.injection_traces(f, t);
            let plan = campaign.plan_for(f);
            let t1 = Instant::now();
            let out = analyze_experiment_indexed(
                &registry,
                &idx[t.0 as usize],
                &traces,
                plan,
                t,
                1,
                &cfg,
            );
            spent += t1.elapsed();
            outs.push(out);
        }
        fca_indexed_ns.push(spent.as_nanos());
        if sample == 0 {
            outcomes = outs;
        }
    }
    let fca_indexed_ns = median(fca_indexed_ns);

    drop(wd);
    let wd = watchdog::guard("campaign:fca-reference");

    // Stage 4: the reference FCA path on identical inputs, with a
    // campaign-wide outcome-equivalence assertion on the first sample.
    let mut fca_reference_ns = Vec::with_capacity(SAMPLES);
    for sample in 0..SAMPLES {
        let mut spent = Duration::ZERO;
        for (i, &(f, t)) in experiments.iter().enumerate() {
            let traces = campaign.injection_traces(f, t);
            let plan = campaign.plan_for(f);
            let t1 = Instant::now();
            let out = analyze_experiment_reference(
                &registry,
                &profiles[t.0 as usize],
                &traces,
                plan,
                t,
                1,
                &cfg,
            );
            spent += t1.elapsed();
            if sample == 0 {
                assert_eq!(
                    out, outcomes[i],
                    "indexed FCA diverged from reference at experiment {i} ({f}, {t})"
                );
            }
        }
        fca_reference_ns.push(spent.as_nanos());
    }
    let fca_reference_ns = median(fca_reference_ns);
    let fca_speedup = fca_reference_ns as f64 / fca_indexed_ns.max(1) as f64;
    let total_edges: usize = outcomes.iter().map(|o| o.edges.len()).sum();
    eprintln!(
        "fca: indexed {:.2} ms vs reference {:.2} ms → {:.1}× ({} edges, outcomes verified equal)",
        fca_indexed_ns as f64 / 1e6,
        fca_reference_ns as f64 / 1e6,
        fca_speedup,
        total_edges
    );

    drop(wd);
    let wd = watchdog::guard("campaign:clustering");

    // Stage 5: phase-one clustering over every experiment's interference
    // vector (the 3PA §5.2 shape, at campaign scale). The timed reference
    // stage keeps its historical prefix size; equivalence is asserted on
    // the FULL vector set — the O(n³) reference left the hot path, so one
    // full-size run per bench invocation is affordable.
    let docs: Vec<BTreeSet<FaultId>> = outcomes.iter().map(|o| o.interference.clone()).collect();
    let idf = IdfVectorizer::fit(&docs);
    let vectors: Vec<SparseVec> = docs.iter().map(|d| idf.vectorize(d)).collect();
    let small = &vectors[..CLUSTER_REFERENCE_TIMED_N.min(vectors.len())];
    let mut cluster_ref_small_ns = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        let c = hierarchical_cluster_reference(small, CLUSTER_THRESHOLD);
        cluster_ref_small_ns.push(t0.elapsed().as_nanos());
        std::hint::black_box(c);
    }
    let cluster_ref_small_ns = median(cluster_ref_small_ns);
    assert_eq!(
        hierarchical_cluster(&vectors, CLUSTER_THRESHOLD),
        hierarchical_cluster_reference(&vectors, CLUSTER_THRESHOLD),
        "sparse clustering diverged from the reference on the full campaign"
    );
    let reference_equivalence_verified_at = vectors.len();
    let mut cluster_ns = Vec::with_capacity(SAMPLES);
    let mut n_clusters = 0usize;
    let mut cluster_stats = Default::default();
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        let (c, stats) = hierarchical_cluster_with_stats(&vectors, CLUSTER_THRESHOLD);
        cluster_ns.push(t0.elapsed().as_nanos());
        n_clusters = c.n_clusters;
        cluster_stats = stats;
    }
    let cluster_ns = median(cluster_ns);
    eprintln!(
        "clustering: {} vectors → {} clusters in {:.2} ms (sparse: {} groups, {} candidate edges; reference verified at n={})",
        vectors.len(),
        n_clusters,
        cluster_ns as f64 / 1e6,
        cluster_stats.groups,
        cluster_stats.candidate_edges,
        reference_equivalence_verified_at
    );

    drop(wd);
    let wd = watchdog::guard("campaign:clustering-large");

    // Stage 6: large-n clustering — the scales the dense matrix could not
    // reach. One sample per case (the cases dominate bench wall-time);
    // each cut is checked against the §5.2 cut-quality bounds.
    struct LargeCase {
        n: usize,
        ns: u128,
        clusters: usize,
        stats: csnake_core::ClusterStats,
    }
    let large_ns_cases = if smoke {
        CLUSTER_LARGE_SMOKE
    } else {
        CLUSTER_LARGE_FULL
    };
    let mut large_cases: Vec<LargeCase> = Vec::new();
    for &n in large_ns_cases {
        let big = synthetic_vectors(n, CLUSTER_LARGE_SEED);
        let t0 = Instant::now();
        let (c, stats) = hierarchical_cluster_with_stats(&big, CLUSTER_THRESHOLD);
        let ns = t0.elapsed().as_nanos();
        assert!(
            stats.sparse_graph_bytes < stats.matrix_bytes,
            "sparse working set must undercut the dense matrix at n={n}: {stats:?}"
        );
        verify_cut_quality(&big, &c, CLUSTER_THRESHOLD, 64)
            .unwrap_or_else(|e| panic!("cut-quality violation at n={n}: {e}"));
        eprintln!(
            "clustering_large: {} vectors → {} clusters in {:.1} ms ({} groups, {} edges; sparse {:.1} MB vs matrix {:.1} GB; cut quality verified)",
            n,
            c.n_clusters,
            ns as f64 / 1e6,
            stats.groups,
            stats.candidate_edges,
            stats.sparse_graph_bytes as f64 / 1e6,
            stats.matrix_bytes as f64 / 1e9,
        );
        large_cases.push(LargeCase {
            n,
            ns,
            clusters: c.n_clusters,
            stats,
        });
    }
    drop(wd);
    let wd = watchdog::guard("campaign:clustering-hotdim");

    // Stage 7: the candidate-generation worst case — one near-ubiquitous
    // dimension shared by ~90% of the vectors. Exactness of the capped
    // path is proven against the reference in-tree (`cluster_sparse.rs`);
    // what the bench asserts is the worst-case *bound*: the hot-posting
    // cap must keep the candidate graph far from the hot posting list's
    // square, which is the regression a future change would silently
    // reintroduce.
    let hot_n = if smoke { 20_000 } else { 100_000 };
    let hot_vectors = hot_dimension_vectors(hot_n, CLUSTER_LARGE_SEED);
    let t0 = Instant::now();
    let (hot_cut, hot_stats) = hierarchical_cluster_with_stats(&hot_vectors, CLUSTER_THRESHOLD);
    let hot_ns = t0.elapsed().as_nanos();
    assert!(
        hot_stats.hot_dims >= 1,
        "the shared dimension must trip the default hot cap: {hot_stats:?}"
    );
    let hot_quadratic = hot_stats.groups * hot_stats.groups.saturating_sub(1) / 2;
    assert!(
        hot_stats.candidate_edges < hot_stats.groups * 2,
        "worst case must stay near-linear in groups under the cap: {} edges for {} groups",
        hot_stats.candidate_edges,
        hot_stats.groups
    );
    verify_cut_quality(&hot_vectors, &hot_cut, CLUSTER_THRESHOLD, 64)
        .unwrap_or_else(|e| panic!("hot-dimension cut-quality violation: {e}"));
    eprintln!(
        "clustering_hotdim: {} vectors → {} clusters in {:.1} ms ({} groups, {} hot dims, {} edges vs {} quadratic pairs; cut quality verified)",
        hot_n,
        hot_cut.n_clusters,
        hot_ns as f64 / 1e6,
        hot_stats.groups,
        hot_stats.hot_dims,
        hot_stats.candidate_edges,
        hot_quadratic,
    );
    drop(wd);

    let mut body = String::new();
    writeln!(body, "{{").unwrap();
    writeln!(body, "  \"generated_by\": \"campaign_perf\",").unwrap();
    writeln!(body, "  \"smoke\": {smoke},").unwrap();
    writeln!(body, "  \"samples_per_stage\": {SAMPLES},").unwrap();
    writeln!(body, "  \"campaign\": {{").unwrap();
    writeln!(
        body,
        "    \"registry_points\": {},",
        registry.points().len()
    )
    .unwrap();
    writeln!(body, "    \"faults\": {},", campaign.faults().len()).unwrap();
    writeln!(body, "    \"tests\": {},", tests.len()).unwrap();
    writeln!(body, "    \"experiments\": {},", experiments.len()).unwrap();
    writeln!(body, "    \"reps\": {},", spec.reps).unwrap();
    writeln!(body, "    \"edges_found\": {total_edges}").unwrap();
    writeln!(body, "  }},").unwrap();
    writeln!(body, "  \"stages_ns\": {{").unwrap();
    writeln!(body, "    \"profile\": {profile_ns},").unwrap();
    writeln!(body, "    \"injection\": {injection_ns},").unwrap();
    writeln!(
        body,
        "    \"fca_indexed_incl_index_build\": {fca_indexed_ns},"
    )
    .unwrap();
    writeln!(body, "    \"fca_reference\": {fca_reference_ns},").unwrap();
    writeln!(body, "    \"clustering_sparse\": {cluster_ns},").unwrap();
    writeln!(
        body,
        "    \"clustering_reference_small\": {cluster_ref_small_ns}"
    )
    .unwrap();
    writeln!(body, "  }},").unwrap();
    writeln!(body, "  \"clustering\": {{").unwrap();
    writeln!(body, "    \"vectors\": {},", vectors.len()).unwrap();
    writeln!(body, "    \"clusters\": {n_clusters},").unwrap();
    writeln!(body, "    \"threshold\": {CLUSTER_THRESHOLD},").unwrap();
    writeln!(body, "    \"duplicate_groups\": {},", cluster_stats.groups).unwrap();
    writeln!(
        body,
        "    \"candidate_edges\": {},",
        cluster_stats.candidate_edges
    )
    .unwrap();
    writeln!(
        body,
        "    \"matrix_bytes_avoided\": {},",
        cluster_stats.matrix_bytes
    )
    .unwrap();
    writeln!(
        body,
        "    \"sparse_graph_bytes\": {},",
        cluster_stats.sparse_graph_bytes
    )
    .unwrap();
    writeln!(
        body,
        "    \"reference_equivalence_verified_at\": {reference_equivalence_verified_at},"
    )
    .unwrap();
    writeln!(body, "    \"reference_timed_at\": {}", small.len()).unwrap();
    writeln!(body, "  }},").unwrap();
    writeln!(body, "  \"clustering_large\": [").unwrap();
    for (i, case) in large_cases.iter().enumerate() {
        let comma = if i + 1 < large_cases.len() { "," } else { "" };
        writeln!(body, "    {{").unwrap();
        writeln!(body, "      \"vectors\": {},", case.n).unwrap();
        writeln!(body, "      \"ns\": {},", case.ns).unwrap();
        writeln!(body, "      \"clusters\": {},", case.clusters).unwrap();
        writeln!(body, "      \"duplicate_groups\": {},", case.stats.groups).unwrap();
        writeln!(
            body,
            "      \"candidate_edges\": {},",
            case.stats.candidate_edges
        )
        .unwrap();
        writeln!(
            body,
            "      \"matrix_bytes_avoided\": {},",
            case.stats.matrix_bytes
        )
        .unwrap();
        writeln!(
            body,
            "      \"sparse_graph_bytes\": {},",
            case.stats.sparse_graph_bytes
        )
        .unwrap();
        writeln!(body, "      \"cut_quality\": \"verified\"").unwrap();
        writeln!(body, "    }}{comma}").unwrap();
    }
    writeln!(body, "  ],").unwrap();
    writeln!(body, "  \"clustering_hot_worst_case\": {{").unwrap();
    writeln!(body, "    \"vectors\": {hot_n},").unwrap();
    writeln!(body, "    \"ns\": {hot_ns},").unwrap();
    writeln!(body, "    \"clusters\": {},", hot_cut.n_clusters).unwrap();
    writeln!(body, "    \"duplicate_groups\": {},", hot_stats.groups).unwrap();
    writeln!(body, "    \"hot_dims\": {},", hot_stats.hot_dims).unwrap();
    writeln!(
        body,
        "    \"candidate_edges\": {},",
        hot_stats.candidate_edges
    )
    .unwrap();
    writeln!(body, "    \"quadratic_pairs_avoided\": {hot_quadratic},").unwrap();
    writeln!(body, "    \"cut_quality\": \"verified\"").unwrap();
    writeln!(body, "  }},").unwrap();
    writeln!(
        body,
        "  \"fca_outcome_equivalence\": \"verified_full_campaign\","
    )
    .unwrap();
    writeln!(body, "  \"fca_speedup_vs_reference\": {fca_speedup:.2}").unwrap();
    writeln!(body, "}}").unwrap();

    // crates/bench → workspace root. Smoke runs write to a separate file
    // so reproducing the CI step locally never clobbers the committed
    // full-scale trajectory artifact.
    let name = if smoke {
        "BENCH_campaign.smoke.json"
    } else {
        "BENCH_campaign.json"
    };
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::write(&out, body).expect("write campaign bench json");
    eprintln!("wrote {}", out.display());
}
