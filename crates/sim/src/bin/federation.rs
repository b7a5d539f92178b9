//! Federated multi-cluster simulation driver.
//!
//! Runs one synthetic workload per cluster through the sharded
//! federation executor and reports per-cluster and federation-wide
//! metrics plus the cross-shard traffic (remote routes, migrations).
//!
//! ```text
//! cargo run --release -p dynp-sim --bin federation -- \
//!     --jobs 2500 --clusters 4 --route-policy least-loaded
//! ```
//!
//! `federation --help` lists the flags.
//!
//! With `--trace-out BASE`, each cluster's trace lands in
//! `BASE.cluster{i}.jsonl` — one audit log per shard ring.

use dynp_core::DeciderKind;
use dynp_des::SimDuration;
use dynp_sim::cli::{usage, CommonArgs, Flags, TRACING};
use dynp_sim::{
    run_federation, ClusterSpec, FederationConfig, LinkModel, RoutePolicy, SchedulerSpec,
};
use dynp_workload::{JobSet, MultiClusterWorkload};

fn main() {
    let accepts = [&["--jobs", "--trace", "--seed"][..], &TRACING].concat();
    let mut flags = Flags::from_env(usage(
        "usage: federation [flags]\n  \
         --clusters N         clusters in the federation (default 4)\n  \
         --route-policy P     least-loaded|locality|random[:SEED]\n  \
         --migration-factor F migrate a waiting job when the busiest/idlest relative\n  \
         \x20                    backlog ratio exceeds F (default: off)\n  \
         --link-latency S     inter-cluster link latency in seconds, also the epoch\n  \
         \x20                    width (default 30)\n  \
         (one workload per cluster from the first --trace)",
        &accepts,
    ));
    let mut clusters = 4usize;
    let mut route = RoutePolicy::LeastLoaded;
    let mut migration_factor: Option<u64> = None;
    let mut link_latency_secs = 30u64;
    let args = CommonArgs::read(&mut flags, &accepts, |flags, flag| {
        match flag {
            "--clusters" => clusters = flags.positive(flag),
            "--route-policy" => {
                let name = flags.value(flag);
                route = RoutePolicy::parse(&name).unwrap_or_else(|| {
                    flags.bail(&format!(
                        "--route-policy expects least-loaded|locality|random[:SEED], got {name:?}"
                    ))
                });
            }
            "--migration-factor" => migration_factor = Some(flags.positive(flag)),
            "--link-latency" => link_latency_secs = flags.positive(flag),
            _ => return false,
        }
        true
    });

    let model = &args.traces[0];
    let sets: Vec<JobSet> = (0..clusters)
        .map(|c| model.generate(args.jobs, args.seed + c as u64))
        .collect();
    let workload = MultiClusterWorkload::merge(format!("{}×{}", model.name, clusters), &sets);

    let specs: Vec<ClusterSpec> = sets
        .iter()
        .map(|set| {
            let mut spec =
                ClusterSpec::new(set.machine_size, SchedulerSpec::dynp(DeciderKind::Advanced));
            spec.tracer = args.tracer();
            spec
        })
        .collect();
    let tracers: Vec<_> = specs.iter().map(|s| s.tracer.clone()).collect();

    let config = FederationConfig {
        route,
        link: LinkModel::Constant {
            latency: SimDuration::from_secs(link_latency_secs),
        },
        migration_factor,
        ..FederationConfig::default()
    };

    println!(
        "federation: {} clusters × {} jobs ({}), route={}, link={}s, migration={}",
        clusters,
        args.jobs,
        model.name,
        config.route.name(),
        link_latency_secs,
        migration_factor.map_or("off".to_string(), |f| format!("factor {f}")),
    );

    let wall = std::time::Instant::now();
    let fed = run_federation(&workload, specs, &config);
    let elapsed = wall.elapsed();

    println!(
        "\n{:>7} {:>8} {:>8} {:>8} {:>10} {:>9} {:>9} {:>9} {:>6}",
        "cluster", "jobs", "sldwa", "util", "avg-wait", "routed", "remote", "migr±", "lost"
    );
    for r in &fed.reports {
        println!(
            "{:>7} {:>8} {:>8.3} {:>8.3} {:>9.0}s {:>9} {:>9} {:>4}/{:<4} {:>6}",
            r.cluster,
            r.metrics.jobs,
            r.metrics.sldwa,
            r.metrics.utilization,
            r.metrics.avg_wait_secs,
            r.routed_in,
            r.remote_in,
            r.migrated_in,
            r.migrated_out,
            r.lost,
        );
    }
    let f = &fed.federated;
    println!(
        "\nfederated: jobs={} sldwa={:.3} util={:.3} avg-wait={:.0}s \
         remote-routes={} migrations={} lost={}",
        f.jobs, f.sldwa, f.utilization, f.avg_wait_secs, f.remote_routes, f.migrations, f.lost
    );
    println!(
        "executor: {} epochs, {} events, {:.2}s wall, {:.0} events/sec",
        fed.epochs,
        fed.events,
        elapsed.as_secs_f64(),
        fed.events as f64 / elapsed.as_secs_f64().max(1e-9),
    );

    if let Some(base) = &args.trace_out {
        for (i, tracer) in tracers.iter().enumerate() {
            if !tracer.is_enabled() {
                continue;
            }
            let path = std::path::PathBuf::from(format!("{}.cluster{i}.jsonl", base.display()));
            let snapshot = tracer.snapshot();
            match dynp_obs::write_jsonl(&snapshot, &path) {
                Ok(()) => println!(
                    "trace: cluster {i} → {} ({} records, {} dropped)",
                    path.display(),
                    snapshot.records.len(),
                    snapshot.dropped
                ),
                Err(e) => {
                    eprintln!("error: writing {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
    }
}
