//! Exploration of the CI configurations: the chaos + reservation
//! protocols pass `dynp_sim::check_state` on every reachable
//! interleaving, and the search itself is deterministic and
//! strategy-independent.

use dynp_mc::{explore, scheduler_factory, ExploreConfig, Scenario, ScenarioConfig, Strategy};

const CI_CONFIG: ScenarioConfig = ScenarioConfig {
    nodes: 2,
    jobs: 3,
    outages: 1,
    reservations: 1,
};

#[test]
fn ci_config_has_no_violations_under_any_interleaving() {
    let scenario = Scenario::build(&CI_CONFIG);
    for scheduler in ["fcfs", "dynp"] {
        let make = scheduler_factory(scheduler).unwrap();
        for strategy in [Strategy::Dfs, Strategy::Bfs] {
            let result = explore(
                &scenario,
                make.as_ref(),
                &ExploreConfig {
                    strategy,
                    ..ExploreConfig::default()
                },
            );
            assert!(
                result.violation.is_none(),
                "{scheduler}/{strategy:?}: {:?}",
                result.violation
            );
            assert!(result.stats.explored > 0);
            assert!(
                result.stats.terminal_states > 0,
                "no path drained the queue"
            );
            assert_eq!(result.stats.truncated, 0, "CI config must fit the bounds");
        }
    }
}

#[test]
fn dfs_and_bfs_explore_the_same_state_graph() {
    // The reachable state set is a property of the scenario, not of the
    // frontier discipline; only the visit order (and peak frontier)
    // differs.
    let scenario = Scenario::build(&CI_CONFIG);
    let make = scheduler_factory("dynp").unwrap();
    let run = |strategy| {
        explore(
            &scenario,
            make.as_ref(),
            &ExploreConfig {
                strategy,
                ..ExploreConfig::default()
            },
        )
        .stats
    };
    let dfs = run(Strategy::Dfs);
    let bfs = run(Strategy::Bfs);
    assert_eq!(dfs.explored, bfs.explored);
    assert_eq!(dfs.deduplicated, bfs.deduplicated);
    assert_eq!(dfs.terminal_states, bfs.terminal_states);
}

#[test]
fn exploration_is_deterministic() {
    let scenario = Scenario::build(&CI_CONFIG);
    let make = scheduler_factory("fcfs").unwrap();
    let cfg = ExploreConfig::default();
    let a = explore(&scenario, make.as_ref(), &cfg).stats;
    let b = explore(&scenario, make.as_ref(), &cfg).stats;
    assert_eq!(a, b);
}

#[test]
fn state_cap_truncates_instead_of_diverging() {
    let scenario = Scenario::build(&CI_CONFIG);
    let make = scheduler_factory("fcfs").unwrap();
    let result = explore(
        &scenario,
        make.as_ref(),
        &ExploreConfig {
            max_states: 10,
            ..ExploreConfig::default()
        },
    );
    assert!(result.violation.is_none());
    assert_eq!(result.stats.explored, 10);
    assert!(result.stats.truncated > 0);
}
