//! Micro-benchmarks of the mapping pipeline (the `O(n·(m·l)²)`
//! preprocessing of Theorem 4): logical mapping, physical mapping with
//! Choi's per-chain strengths, and unembedding.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mqo_chimera::graph::ChimeraGraph;
use mqo_chimera::physical::PhysicalMapping;
use mqo_core::logical::LogicalMapping;
use mqo_workload::paper::{self, PaperWorkloadConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_mapping(c: &mut Criterion) {
    let graph = ChimeraGraph::new(6, 6);
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let inst = paper::generate(&graph, &PaperWorkloadConfig::paper_class(3), &mut rng)
        .expect("benchmark machine hosts the paper class");
    let logical = LogicalMapping::with_default_epsilon(&inst.problem);

    let mut g = c.benchmark_group("mapping");
    g.bench_function("logical_mapping_72q_3p", |b| {
        b.iter(|| LogicalMapping::with_default_epsilon(&inst.problem))
    });
    g.bench_function("physical_mapping_per_chain", |b| {
        b.iter_batched(
            || inst.layout.embedding.clone(),
            |e| PhysicalMapping::new(logical.qubo(), e, &graph, 0.25).unwrap(),
            BatchSize::SmallInput,
        )
    });

    let pm =
        PhysicalMapping::new(logical.qubo(), inst.layout.embedding.clone(), &graph, 0.25).unwrap();
    let sample = pm.extend(&vec![true; logical.qubo().num_vars()]);
    g.bench_function("unembed", |b| b.iter(|| pm.unembed(&sample)));
    g.bench_function("decode_with_repair", |b| {
        let un = pm.unembed(&sample);
        b.iter(|| logical.decode_with_repair(&inst.problem, &un.logical))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_mapping
}
criterion_main!(benches);
