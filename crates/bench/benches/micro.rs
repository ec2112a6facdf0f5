//! Criterion micro-benchmarks of the pipeline's hot components: crawling,
//! subgraph induction, estimation, dK construction, triangle counting,
//! rewiring throughput, and property computation.

use criterion::{criterion_group, criterion_main, Criterion};
use sgr_core::{restore, RestoreConfig};
use sgr_dk::rewire::reference::ApplyRollbackEngine;
use sgr_dk::rewire::RewireEngine;
use sgr_dk::{joint_degree_matrix, wire_stubs, ConstructScratch};
use sgr_estimate::estimate_all;
use sgr_graph::Graph;
use sgr_props::triangles::triangle_counts;
use sgr_props::{PropsConfig, StructuralProperties};
use sgr_sample::{random_walk, AccessModel, Crawl};
use sgr_util::Xoshiro256pp;
use std::hint::black_box;

fn social(n: usize, seed: u64) -> Graph {
    sgr_gen::holme_kim(n, 4, 0.5, &mut Xoshiro256pp::seed_from_u64(seed)).unwrap()
}

fn crawl_of(g: &Graph, frac: f64, seed: u64) -> Crawl {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut am = AccessModel::new(g);
    let start = am.random_seed(&mut rng);
    let target = ((g.num_nodes() as f64 * frac) as usize).max(2);
    random_walk(&mut am, start, target, &mut rng)
}

fn bench_crawling(c: &mut Criterion) {
    let g = social(4_000, 1);
    c.bench_function("random_walk_10pct_4k", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(crawl_of(&g, 0.10, seed))
        })
    });
    c.bench_function("subgraph_induction_10pct_4k", |b| {
        let crawl = crawl_of(&g, 0.10, 7);
        b.iter(|| black_box(crawl.subgraph()))
    });
}

fn bench_estimators(c: &mut Criterion) {
    let g = social(4_000, 2);
    let crawl = crawl_of(&g, 0.10, 8);
    c.bench_function("estimate_all_10pct_4k", |b| {
        b.iter(|| black_box(estimate_all(&crawl).unwrap()))
    });
}

fn bench_dk(c: &mut Criterion) {
    let g = social(2_000, 3);
    c.bench_function("triangle_counts_2k_nodes", |b| {
        b.iter(|| black_box(triangle_counts(&g)))
    });
    c.bench_function("construct_2k_model", |b| {
        let target: Vec<u32> = g.nodes().map(|u| g.degree(u) as u32).collect();
        let jdm = joint_degree_matrix(&g);
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut scratch = ConstructScratch::new();
        b.iter(|| {
            let mut h = Graph::with_nodes(g.num_nodes());
            wire_stubs(&mut h, &target, &jdm, &mut rng, &mut scratch).unwrap();
            black_box(h)
        })
    });
    c.bench_function("rewire_1000_attempts", |b| {
        let target = vec![0.05; g.max_degree() + 1];
        b.iter_batched(
            || {
                let edges: Vec<_> = g.edges().collect();
                RewireEngine::new(g.clone(), edges, &target)
            },
            |mut engine| {
                let mut rng = Xoshiro256pp::seed_from_u64(10);
                black_box(engine.run_attempts(1_000, &mut rng))
            },
            criterion::BatchSize::LargeInput,
        )
    });
}

/// Throughput gate: evaluate-then-commit vs apply-rollback on the same
/// graph, same target (≈half the current clustering — a fixed mix of
/// accepts early and rejects late), same RNG seed.
fn bench_rewire_throughput(c: &mut Criterion) {
    let g = social(2_000, 6);
    let props = sgr_props::local::LocalProperties::compute(&g);
    let target: Vec<f64> = props
        .clustering_by_degree
        .iter()
        .map(|&c| c * 0.5)
        .collect();
    c.bench_function("rewire_attempts_per_sec/evaluate_commit", |b| {
        b.iter_batched(
            || {
                let edges: Vec<_> = g.edges().collect();
                RewireEngine::new(g.clone(), edges, &target)
            },
            |mut engine| {
                let mut rng = Xoshiro256pp::seed_from_u64(10);
                black_box(engine.run_attempts(5_000, &mut rng))
            },
            criterion::BatchSize::LargeInput,
        )
    });
    c.bench_function("rewire_attempts_per_sec/apply_rollback", |b| {
        b.iter_batched(
            || {
                let edges: Vec<_> = g.edges().collect();
                ApplyRollbackEngine::new(g.clone(), edges, &target)
            },
            |mut engine| {
                let mut rng = Xoshiro256pp::seed_from_u64(10);
                black_box(engine.run_attempts(5_000, &mut rng))
            },
            criterion::BatchSize::LargeInput,
        )
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let g = social(2_000, 4);
    c.bench_function("restore_full_10pct_2k_rc5", |b| {
        let mut seed = 100u64;
        b.iter(|| {
            seed += 1;
            let crawl = crawl_of(&g, 0.10, seed);
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let cfg = RestoreConfig {
                rewiring_coefficient: 5.0,
                ..RestoreConfig::default()
            };
            black_box(restore(&crawl, &cfg, &mut rng).unwrap())
        })
    });
}

fn bench_properties(c: &mut Criterion) {
    let g = social(2_000, 5);
    let cfg = PropsConfig {
        exact_threshold: 10_000, // exact at this size
        ..PropsConfig::default()
    };
    c.bench_function("all_12_properties_exact_2k", |b| {
        b.iter(|| black_box(StructuralProperties::compute(&g, &cfg)))
    });
    let sampled = PropsConfig {
        exact_threshold: 10,
        num_pivots: 256,
        ..PropsConfig::default()
    };
    c.bench_function("all_12_properties_sampled_2k", |b| {
        b.iter(|| black_box(StructuralProperties::compute(&g, &sampled)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_crawling, bench_estimators, bench_dk, bench_rewire_throughput, bench_pipeline, bench_properties
}
criterion_main!(benches);
