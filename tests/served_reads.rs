//! Every read behind a served answer, pinned bit for bit. The golden answers
//! of `served_configuration.rs` keep only each request's best read, so a
//! lane-walk fault that changes a losing read passes them. Here the device
//! run that `QuantumMqoSolver::solve` makes under the served protocol
//! (`EngineConfig::new(ChimeraGraph::dwave_2x()).device`, SA) is digested
//! read by read: spin bits and energy bits. 1, 2, 4, 8 and 10 reads run
//! the one-read kernel, every lane-walk width and the 8 + 2 split, on two
//! TRIAD-placed paper instances whose reads end in different local minima.

use mqo::chimera::physical::PhysicalMapping;
use mqo::core::logical::LogicalMapping;
use mqo::prelude::*;
use mqo::workload::paper::{self, PaperWorkloadConfig};
use mqo_service::EngineConfig;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A paper-class instance of `queries` queries with `plans` plans each.
fn paper_instance(graph: &ChimeraGraph, queries: usize, plans: usize) -> MqoProblem {
    let config = PaperWorkloadConfig {
        max_queries: queries,
        ..PaperWorkloadConfig::paper_class(plans)
    };
    let mut rng = ChaCha8Rng::seed_from_u64((queries * 10 + plans) as u64);
    let problem = paper::generate(graph, &config, &mut rng).unwrap().problem;
    assert_eq!(problem.num_plans(), queries * plans);
    problem
}

/// FNV-1a digest of every read (spin bits, then energy bits) of the device
/// run `QuantumMqoSolver::solve` makes for `problem` at `reads` reads, with
/// the qubits it uses and the number of distinct read energies in it.
fn digest_reads(problem: &MqoProblem, reads: usize, seed: u64) -> (u64, usize, usize) {
    let config = EngineConfig::new(ChimeraGraph::dwave_2x());
    let mut device = config.device;
    device.num_reads = reads;
    device.num_gauges = device.num_gauges.min(reads);
    let mut solver = QuantumMqoSolver::new(
        config.graph,
        QuantumAnnealer::new(device, SimulatedAnnealingSampler::default()),
    );
    solver.epsilon = config.epsilon;
    let clique = solver
        .place_clique(problem.num_plans())
        .expect("a TRIAD block hosts the instance");
    let logical = LogicalMapping::new(problem, solver.epsilon);
    let physical =
        PhysicalMapping::new(logical.qubo(), clique, &solver.graph, solver.epsilon).unwrap();
    let set = solver.device.run(&physical, &solver.graph, seed).unwrap();

    // The run above is the one `solve` makes.
    let solved = solver.solve(problem, seed).unwrap();
    assert_eq!(solved.reads, set.len());
    assert_eq!(solved.qubits_used, physical.num_physical_vars());
    assert_eq!(
        solved.device_time_us.to_bits(),
        set.reads().last().unwrap().elapsed_us.to_bits()
    );

    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |byte: u8| h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
    let mut energies = std::collections::BTreeSet::new();
    for read in set.reads() {
        let energy = read.energy.to_bits();
        let bytes = read.assignment.iter().map(|&bit| u8::from(bit));
        bytes.chain(energy.to_le_bytes()).for_each(&mut eat);
        energies.insert(energy);
    }
    (h, physical.num_physical_vars(), energies.len())
}

/// Digests recorded before the AVX-512 build of the lane walk existed; every
/// build of the walk must reproduce them.
#[test]
fn served_device_reads_match_pinned_digests() {
    let graph = ChimeraGraph::dwave_2x();
    let cases = [
        ("4x5", paper_instance(&graph, 4, 5), 120),
        ("20x2", paper_instance(&graph, 20, 2), 440),
    ];
    let pinned: [[u64; 5]; 2] = [
        [
            0x8193_56fd_53be_75d5,
            0x86d3_5e0a_284b_bcdc,
            0x4167_830f_b920_64fd,
            0xb4bc_5085_71bf_0b2b,
            0x134d_1914_1855_d56a,
        ],
        [
            0x6d7e_493c_3988_9ff4,
            0x8b8e_da00_8cd1_3e71,
            0x0ac5_d0ac_6977_89bc,
            0x47ca_7208_1da6_efcb,
            0xb471_36ae_f00b_630e,
        ],
    ];
    for ((name, problem, qubits), pinned) in cases.iter().zip(pinned) {
        for (reads, want) in [1, 2, 4, 8, 10].into_iter().zip(pinned) {
            let (digest, qubits_used, minima) = digest_reads(problem, reads, 7);
            assert_eq!(qubits_used, *qubits, "{name}");
            assert_eq!(minima, reads, "{name}, {reads} reads: shared minima");
            assert_eq!(digest, want, "{name}, {reads} reads: {digest:#018x}");
        }
    }
}
