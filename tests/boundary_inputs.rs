//! Boundary tests for the parsers of untrusted input: `nvidia-smi topo -m`
//! matrices, `numactl --hardware` text, and trace, manifest and result
//! JSON. Every truncation and every single-byte deletion of a valid text,
//! and single-byte substitutions drawn at random, must parse to `Ok` or
//! `Err`; a panic fails the test. A mutant that is no longer UTF-8 is read
//! the way a lossy file read would, with U+FFFD in place of the bad byte.

use gpu_topo_aware::prelude::*;
use gpu_topo_aware::topo::{dgx2, to_topo_matrix};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// A parser under test: whether it accepted the text.
type Parse = fn(&str) -> bool;

/// `numactl --hardware` on a four-socket host.
const NUMACTL: &str = "available: 4 nodes (0-3)
node 0 cpus: 0 1 2 3 4 5 6 7
node 0 size: 261788 MB
node 0 free: 240211 MB
node 1 cpus: 8 9 10 11 12 13 14 15
node 1 size: 261788 MB
node 1 free: 251923 MB
node 2 cpus: 16 17 18 19 20 21 22 23
node 2 size: 130894 MB
node 2 free: 120000 MB
node 3 cpus: 24 25 26 27 28 29 30 31
node 3 size: 130894 MB
node 3 free: 99999 MB
node distances:
node   0   1   2   3
  0:  10  21  31  41
  1:  21  10  21  31
  2:  31  21  10  21
  3:  41  31  21  10
";

/// Every valid text, named, with its parser. Built once: the result JSON
/// comes from a small simulation with a failure, a restart and a
/// postponement in its event log.
fn corpus() -> &'static [(&'static str, String, Parse)] {
    static CORPUS: OnceLock<Vec<(&'static str, String, Parse)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let topo: Parse = |text| parse_topo_matrix(text).is_ok();
        let jobs = WorkloadGenerator::with_defaults(5).generate(3);
        let machine = power8_minsky();
        let profiles = Arc::new(ProfileLibrary::generate(&machine, 42));
        let cluster = Arc::new(ClusterTopology::homogeneous(machine, 2));
        let run: Vec<JobSpec> = (0..3)
            .map(|id| {
                JobSpec::new(id, NnModel::AlexNet, BatchClass::Tiny, 1 + id as u32)
                    .arriving_at(id as f64)
                    .with_iterations(50)
                    .with_min_utility(0.5)
            })
            .collect();
        let config = SimConfig::new(Policy::new(PolicyKind::TopoAwareP))
            .with_machine_failures(vec![(1.5, MachineId(0))]);
        let result = Simulation::new(cluster, profiles, config).run(run);
        vec![
            ("minsky matrix", to_topo_matrix(&power8_minsky()), topo),
            ("dgx-1 matrix", to_topo_matrix(&dgx1()), topo),
            ("dgx-2 matrix", to_topo_matrix(&dgx2()), topo),
            ("numactl", NUMACTL.to_string(), |text| {
                NumaInfo::parse(text).is_ok()
            }),
            (
                "trace",
                Trace::new("boundary", jobs.clone()).to_json(),
                |text| Trace::from_json(text).is_ok(),
            ),
            ("manifest", JobManifest { jobs }.to_json(), |text| {
                JobManifest::from_json(text).is_ok()
            }),
            ("sim result", result.to_json(), |text| {
                SimResult::from_json(text).is_ok()
            }),
        ]
    })
}

/// `bytes` as a parser would read them from a file, lossily.
fn lossy(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Parses the mutant `bytes` of the text `name`, naming the mutant if the
/// parser panics.
fn parse_mutant(name: &str, what: std::fmt::Arguments, parse: Parse, bytes: &[u8]) {
    let text = lossy(bytes);
    if std::panic::catch_unwind(|| parse(&text)).is_err() {
        panic!("{name}: the parser panicked on {what}: {text:?}");
    }
}

#[test]
fn every_valid_text_parses() {
    for (name, text, parse) in corpus() {
        assert!(parse(text), "{name}: the valid text is rejected");
    }
}

#[test]
fn every_truncation_parses_or_errs() {
    for (name, text, parse) in corpus() {
        let bytes = text.as_bytes();
        for end in 0..bytes.len() {
            parse_mutant(
                name,
                format_args!("the cut at byte {end}"),
                *parse,
                &bytes[..end],
            );
        }
    }
}

#[test]
fn every_single_byte_deletion_parses_or_errs() {
    for (name, text, parse) in corpus() {
        for at in 0..text.len() {
            let mut mutant = text.as_bytes().to_vec();
            mutant.remove(at);
            parse_mutant(name, format_args!("deleting byte {at}"), *parse, &mutant);
        }
    }
}

/// Bytes that steer the parsers: digits, signs, JSON structure, matrix
/// cell letters and whitespace.
const STRUCTURAL: &[u8] = b"0123456789-+.eE:,[]{}\"\\ \t\nXGPUNVSYHBLMOCu";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn single_byte_substitutions_parse_or_err(
        which in prop::sample::select((0..corpus().len()).collect::<Vec<_>>()),
        at in 0usize..1 << 20,
        byte in prop_oneof![0u8..=255, prop::sample::select(STRUCTURAL.to_vec())],
    ) {
        let (name, text, parse) = &corpus()[which];
        let mut mutant = text.as_bytes().to_vec();
        let at = at % mutant.len();
        mutant[at] = byte;
        parse_mutant(name, format_args!("byte {at} set to {byte:#04x}"), *parse, &mutant);
    }
}
