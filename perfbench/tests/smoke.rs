//! Every workload at a tiny scale: no failed op, and the same outputs
//! across two set-ups and across job counts, at two seeds.

use atomig_perfbench::trace::Tracer;
use atomig_perfbench::{Bench, Scale, Workload, JOBS};

fn one_round(workload: Workload, seed: u64, jobs: usize, traced: bool) -> Bench {
    let mut tracer = Tracer::new(traced);
    let mut bench = Bench::setup(workload, Scale::SMOKE, seed, &mut tracer).expect("set-up");
    bench.round(jobs, &mut tracer);
    bench
}

#[test]
fn every_workload_passes_at_tiny_scale() {
    for seed in [1, 2] {
        for workload in Workload::ALL {
            let mut a = one_round(workload, seed, JOBS, true);
            a.round(1, &mut Tracer::new(false));
            let b = one_round(workload, seed, JOBS, false);
            for bench in [&a, &b] {
                assert_eq!(
                    bench.ops.failed,
                    0,
                    "{} seed {seed}: {:?}",
                    workload.name(),
                    bench.ops.failures
                );
            }
            assert!(a.ops.attempted > 0);
            assert_eq!(a.digests(), b.digests(), "{} seed {seed}", workload.name());
        }
    }
}

#[test]
fn seeds_change_the_corpus() {
    let digests = |seed| {
        one_round(Workload::PortCorpus, seed, JOBS, false)
            .digests()
            .to_vec()
    };
    assert_ne!(digests(1), digests(2));
}
