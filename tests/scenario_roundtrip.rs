//! Integration tests of the declarative scenario layer: every spec variant round-trips
//! through JSON, runs to a byte-identical report for a fixed seed, and invalid specs
//! fail with typed errors instead of panics.

use sfoverlay::prelude::*;
use sfoverlay::scenario::json::{FromJson, JsonValue, ToJson};
use sfoverlay::topology::fitness::FitnessDistribution;

/// One small static spec per topology family, plus one per search algorithm, plus the
/// two dynamic kinds — together they cover every `ScenarioSpec` variant.
fn all_spec_variants() -> Vec<ScenarioSpec> {
    let nodes = 120usize;
    let topologies = vec![
        TopologySpec::Pa {
            nodes,
            m: 2,
            cutoff: Some(10),
        },
        TopologySpec::Hapa {
            nodes,
            m: 2,
            cutoff: None,
        },
        TopologySpec::Cm {
            nodes,
            gamma: 2.2,
            m: 2,
            cutoff: Some(20),
        },
        TopologySpec::Ucm {
            nodes,
            gamma: 2.6,
            m: 1,
            cutoff: None,
        },
        TopologySpec::DapaGrn {
            nodes,
            m: 2,
            tau_sub: 4,
            cutoff: Some(15),
        },
        TopologySpec::DapaMesh {
            nodes,
            m: 2,
            tau_sub: 6,
            cutoff: None,
        },
        TopologySpec::NonlinearPa {
            nodes,
            m: 2,
            alpha: 0.8,
            cutoff: None,
        },
        TopologySpec::Fitness {
            nodes,
            m: 2,
            distribution: FitnessDistribution::Exponential { rate: 1.0 },
            cutoff: Some(25),
        },
        TopologySpec::LocalEvents {
            nodes,
            m: 2,
            p_add_links: 0.2,
            q_rewire: 0.1,
            cutoff: None,
        },
        TopologySpec::Attractiveness {
            nodes,
            m: 2,
            a: 2.0,
            cutoff: Some(30),
        },
    ];
    let mut specs: Vec<ScenarioSpec> = topologies
        .into_iter()
        .map(|topology| {
            ScenarioSpec::sweep(
                format!("roundtrip-{}", topology.label()),
                topology,
                SearchSpec::Flooding,
                SweepSpec::single(vec![1, 3], 4),
                17,
                2,
            )
        })
        .collect();

    let searches = vec![
        SearchSpec::Flooding,
        SearchSpec::NormalizedFlooding { k_min: None },
        SearchSpec::NormalizedFlooding { k_min: Some(3) },
        SearchSpec::ProbabilisticFlooding { p: 0.5 },
        SearchSpec::ExpandingRing {
            initial_ttl: 1,
            increment: 2,
        },
        SearchSpec::RandomWalk,
        SearchSpec::MultipleRandomWalk { walkers: 4 },
        SearchSpec::DegreeBiasedWalk,
        SearchSpec::RwNormalizedToNf { k_min: None },
    ];
    for (i, search) in searches.into_iter().enumerate() {
        specs.push(ScenarioSpec::sweep(
            format!("roundtrip-search-{i}"),
            TopologySpec::Pa {
                nodes,
                m: 2,
                cutoff: Some(12),
            },
            search,
            SweepSpec::single(vec![2, 4], 4),
            23,
            1,
        ));
    }

    // A curve-label override (single curve, static): the label names the legend *and*
    // the RNG stream family.
    let mut labelled = ScenarioSpec::degree_distribution(
        "roundtrip-curve-label",
        TopologySpec::Pa {
            nodes,
            m: 2,
            cutoff: Some(10),
        },
        None,
        8,
        29,
        2,
    );
    labelled.curve_label = Some("m=2".to_string());
    specs.push(labelled);

    let mut sim = SimulationConfig::small();
    sim.initial_peers = 120;
    sim.duration = 120;
    specs.push(ScenarioSpec::churn("roundtrip-churn", sim, 31, 2));

    let mut run = TraceRunConfig::small();
    run.bootstrap_peers = 80;
    specs.push(ScenarioSpec::trace(
        "roundtrip-trace",
        ChurnTraceConfig {
            duration: 150,
            arrival_rate: 0.4,
            sessions: SessionModel::Exponential { mean: 60.0 },
            crash_fraction: 0.25,
        },
        run,
        37,
        2,
    ));
    specs
}

#[test]
fn every_spec_variant_round_trips_and_reruns_byte_identically() {
    let runner = ScenarioRunner::new();
    for spec in all_spec_variants() {
        // Spec -> JSON -> spec is lossless.
        let spec_text = spec.to_json_string();
        let reparsed = ScenarioSpec::parse(&spec_text)
            .unwrap_or_else(|e| panic!("{}: reparse failed: {e}", spec.name));
        assert_eq!(reparsed, spec, "{}", spec.name);

        // Run once, serialize the report, parse it back, and rerun from the embedded
        // spec: the two report serializations must be byte-identical.
        let report = runner
            .run(&spec)
            .unwrap_or_else(|e| panic!("{}: run failed: {e}", spec.name));
        assert_eq!(
            report.spec, spec,
            "{}: report must embed its spec",
            spec.name
        );
        let report_text = report.to_json_string();
        let parsed_report = ScenarioReport::parse(&report_text)
            .unwrap_or_else(|e| panic!("{}: report reparse failed: {e}", spec.name));
        assert_eq!(parsed_report, report, "{}", spec.name);
        let rerun = runner
            .run(&parsed_report.spec)
            .unwrap_or_else(|e| panic!("{}: rerun failed: {e}", spec.name));
        assert_eq!(
            rerun.to_json_string(),
            report_text,
            "{}: rerunning the embedded spec must reproduce the report byte for byte",
            spec.name
        );
    }
}

#[test]
fn snapshot_topology_specs_round_trip_through_json() {
    // The snapshot family has no generator parameters — just a path — and must survive
    // spec -> JSON -> spec like every other family. (Validation and execution against
    // real .sfos files are covered by tests/snapshot_roundtrip.rs; this is the codec.)
    let mut spec = ScenarioSpec::sweep(
        "snapshot-sweep",
        TopologySpec::Snapshot {
            path: "realization0.sfos".to_string(),
        },
        SearchSpec::NormalizedFlooding { k_min: Some(2) },
        SweepSpec::single(vec![1, 2, 4], 10),
        2024,
        1,
    );
    spec.sweep.as_mut().unwrap().batch = true;
    // The worker list is part of the sweep section and must round-trip verbatim.
    spec.sweep.as_mut().unwrap().workers = vec![
        "10.0.0.1:9000".to_string(),
        "unix:/var/run/sfo.sock".to_string(),
    ];
    let text = spec.to_json_string();
    assert!(text.contains("\"family\": \"snapshot\""));
    assert!(text.contains("\"path\": \"realization0.sfos\""));
    assert!(text.contains("\"workers\""));
    assert!(text.contains("unix:/var/run/sfo.sock"));
    let back = ScenarioSpec::parse(&text).unwrap();
    assert_eq!(back, spec, "{text}");
    assert_eq!(back.to_json_string(), text);

    // Pre-sfo-net spec files have no "workers" key at all; absence parses to an empty
    // worker list (local execution).
    let legacy = text.replace(
        ",\n    \"workers\": [\"10.0.0.1:9000\", \"unix:/var/run/sfo.sock\"]",
        "",
    );
    assert_ne!(legacy, text, "the replace must have found the worker list");
    let mut no_workers = spec.clone();
    no_workers.sweep.as_mut().unwrap().workers = Vec::new();
    assert_eq!(ScenarioSpec::parse(&legacy).unwrap(), no_workers);

    // Unknown or generator-family fields on a snapshot topology fail loudly.
    let stray = r#"{"family": "snapshot", "path": "x.sfos", "nodes": 100}"#;
    let full = format!(
        r#"{{"name": "s", "topology": {stray}, "search": null,
            "dynamics": {{"kind": "static"}}, "sweep": null,
            "measure": {{"kind": "search_sweep"}}, "seed": 1, "realizations": 1}}"#
    );
    assert!(matches!(
        ScenarioSpec::parse(&full),
        Err(ScenarioError::InvalidSpec { .. })
    ));
}

#[test]
fn invalid_specs_return_typed_errors_not_panics() {
    let base = |topology| {
        ScenarioSpec::sweep(
            "invalid",
            topology,
            SearchSpec::Flooding,
            SweepSpec::single(vec![2], 4),
            1,
            1,
        )
    };

    // Zero nodes.
    let zero_nodes = base(TopologySpec::Pa {
        nodes: 0,
        m: 2,
        cutoff: None,
    });
    assert!(matches!(
        zero_nodes.validate(),
        Err(ScenarioError::InvalidSpec { .. })
    ));

    // Hard cutoff below m.
    let cutoff_below_m = base(TopologySpec::Hapa {
        nodes: 100,
        m: 3,
        cutoff: Some(2),
    });
    assert!(matches!(
        cutoff_below_m.validate(),
        Err(ScenarioError::InvalidSpec { .. })
    ));

    // The same spec arriving through JSON text stays a typed error.
    let text = cutoff_below_m.to_json_string();
    let reparsed = ScenarioSpec::parse(&text).expect("structurally valid JSON");
    assert!(matches!(
        reparsed.validate(),
        Err(ScenarioError::InvalidSpec { .. })
    ));

    // Flash-crowd intensity outside [0, 1].
    let mut run = TraceRunConfig::small();
    run.workload = Workload::FlashCrowd {
        hot_item: sfoverlay::sim::catalog::ItemId::new(0),
        start: 0,
        end: 50,
        intensity: 1.5,
    };
    let bad_intensity = ScenarioSpec::trace(
        "invalid-intensity",
        ChurnTraceConfig {
            duration: 100,
            arrival_rate: 0.5,
            sessions: SessionModel::Fixed { length: 10.0 },
            crash_fraction: 0.2,
        },
        run,
        1,
        1,
    );
    assert!(matches!(
        bad_intensity.validate(),
        Err(ScenarioError::Sim(_))
    ));

    // Zero realizations, empty TTL grid, zero fan-out.
    let mut spec = base(TopologySpec::Pa {
        nodes: 100,
        m: 2,
        cutoff: None,
    });
    spec.realizations = 0;
    assert!(matches!(
        spec.validate(),
        Err(ScenarioError::InvalidSpec { .. })
    ));
    let mut spec = base(TopologySpec::Pa {
        nodes: 100,
        m: 2,
        cutoff: None,
    });
    spec.sweep.as_mut().unwrap().ttls.clear();
    assert!(matches!(
        spec.validate(),
        Err(ScenarioError::InvalidSpec { .. })
    ));
    let mut spec = base(TopologySpec::Pa {
        nodes: 100,
        m: 2,
        cutoff: None,
    });
    spec.search = Some(SearchSpec::NormalizedFlooding { k_min: Some(0) });
    assert!(matches!(
        spec.validate(),
        Err(ScenarioError::InvalidSpec { .. })
    ));

    // Malformed JSON text is a parse error with a position, not a panic.
    assert!(matches!(
        ScenarioSpec::parse("{\"name\": }"),
        Err(ScenarioError::Parse { .. })
    ));
}

#[test]
fn shipped_example_specs_validate_and_the_smoke_spec_runs() {
    let examples_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut spec_files: Vec<_> = std::fs::read_dir(&examples_dir)
        .expect("examples directory exists")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension()? == "json").then_some(path)
        })
        .collect();
    spec_files.sort();
    assert!(
        spec_files.len() >= 5,
        "expected several shipped scenario files, found {spec_files:?}"
    );
    for path in &spec_files {
        let text = std::fs::read_to_string(path).unwrap();
        assert!(
            text.starts_with("//"),
            "{}: example specs carry a header comment tying them to the paper",
            path.display()
        );
        let spec = ScenarioSpec::parse(&text)
            .unwrap_or_else(|e| panic!("{}: parse failed: {e}", path.display()));
        spec.validate()
            .unwrap_or_else(|e| panic!("{}: validation failed: {e}", path.display()));
    }

    // The CI smoke spec runs end to end and its report embeds the spec.
    let smoke_text = std::fs::read_to_string(examples_dir.join("scenario_smoke.json")).unwrap();
    let smoke = ScenarioSpec::parse(&smoke_text).unwrap();
    let report = ScenarioRunner::new().run(&smoke).unwrap();
    assert_eq!(report.spec, smoke);
    let curves = report.sweep_curves().unwrap();
    assert_eq!(curves.len(), 4);
    for curve in curves {
        assert!(curve.points.iter().all(|p| p.hits.mean > 0.0));
    }
}

#[test]
fn scenario_reports_expose_figure_ready_series() {
    let spec = ScenarioSpec::sweep(
        "series-check",
        TopologySpec::Pa {
            nodes: 200,
            m: 2,
            cutoff: None,
        },
        SearchSpec::NormalizedFlooding { k_min: None },
        SweepSpec::grid(vec![1, 2], vec![Some(10), None], vec![2, 4], 5),
        3,
        2,
    );
    let report = ScenarioRunner::new().run(&spec).unwrap();
    let hits = report.series(SweepMetric::Hits);
    assert_eq!(hits.len(), 4);
    assert_eq!(hits[0].label, "PA, m=1, k_c=10");
    for series in &hits {
        assert_eq!(series.points.len(), 2);
        for p in &series.points {
            assert_eq!(p.realizations, 2);
        }
    }
}

// ---------------------------------------------------------------------------------------
// Canonical JSON: the exact bytes every spec, report and workload serializes to.

/// One report per `ScenarioResult` kind. Their embedded specs reach the variants
/// `all_spec_variants` leaves out (snapshot topologies, worker lists, live growth,
/// flash crowds, every join strategy, session model and fitness law), so together the
/// two lists touch every JSON-mapped type of the scenario layer.
fn one_report_per_result_kind() -> Vec<ScenarioReport> {
    use sfoverlay::scenario::{
        ChurnRealization, DegreeBinPoint, ScenarioResult, Stat, SweepCurve, SweepPoint,
        TraceRealization,
    };
    use sfoverlay::sim::catalog::ItemId;
    use sfoverlay::sim::simulation::OverlaySample;

    let stat = |mean: f64, std_error: f64| Stat {
        mean,
        std_error,
        realizations: 2,
    };
    let samples = vec![
        OverlaySample {
            time: 0,
            peers: 120,
            edges: 340,
            mean_degree: 5.666666666666667,
            max_degree: 30,
            giant_component_fraction: 1.0,
        },
        OverlaySample {
            time: 25,
            peers: 118,
            edges: 331,
            mean_degree: 5.610169491525424,
            max_degree: 29,
            giant_component_fraction: 0.9915254237288136,
        },
    ];

    let mut snapshot_sweep = ScenarioSpec::sweep(
        "golden-snapshot-sweep",
        TopologySpec::Snapshot {
            path: "realization0.sfos".to_string(),
        },
        SearchSpec::NormalizedFlooding { k_min: Some(2) },
        SweepSpec::single(vec![1, 2, 4], 10).with_engine(4),
        u64::MAX,
        1,
    );
    let sweep = snapshot_sweep.sweep.as_mut().unwrap();
    sweep.threads = 2;
    sweep.workers = vec![
        "10.0.0.1:9000".to_string(),
        "unix:/run/sfo.sock".to_string(),
    ];
    sweep.placed = true;

    let degree = ScenarioSpec::degree_distribution(
        "golden-degrees",
        TopologySpec::Fitness {
            nodes: 400,
            m: 1,
            distribution: FitnessDistribution::UniformRange { min: 0.1, max: 0.9 },
            cutoff: Some(15),
        },
        Some(SweepSpec::axes(vec![1, 2], vec![Some(10), None])),
        8,
        11,
        2,
    );

    let mut sim = SimulationConfig::small();
    sim.overlay = OverlayConfig {
        stubs: 2,
        cutoff: DegreeCutoff::Unbounded,
        join_strategy: JoinStrategy::DegreePreferential,
        repair_on_leave: false,
    };
    sim.query_method = QueryMethod::RandomWalk;

    let mut run = TraceRunConfig::small();
    run.overlay.join_strategy = JoinStrategy::UniformRandom;
    run.replication = ReplicationStrategy::Proportional;
    run.workload = Workload::FlashCrowd {
        hot_item: ItemId::new(3),
        start: 10,
        end: 90,
        intensity: 0.75,
    };
    run.query_method = QueryMethod::Flooding;

    let mut live = LiveConfig::small();
    live.sessions = SessionModel::Pareto {
        shape: 1.2,
        minimum: 64.0,
    };
    live.crash_fraction = 0.5;

    vec![
        ScenarioReport {
            spec: snapshot_sweep,
            result: ScenarioResult::Sweep {
                curves: vec![SweepCurve {
                    label: "PA, m=2, k_c=10".to_string(),
                    points: vec![
                        SweepPoint {
                            ttl: 1,
                            hits: stat(2.5, 0.0),
                            messages: stat(3.0, 0.125),
                        },
                        SweepPoint {
                            ttl: 4,
                            hits: stat(0.1 + 0.2, 1e-9),
                            messages: stat(41.75, 2.5e-3),
                        },
                    ],
                }],
            },
        },
        ScenarioReport {
            spec: degree,
            result: ScenarioResult::DegreeDistribution {
                curves: vec![DegreeCurve {
                    label: "fitness U[0.1,0.9], m=1, k_c=10".to_string(),
                    points: vec![
                        DegreeBinPoint {
                            k: 1.1547005383792515,
                            density: 0.4325,
                            count: 346,
                        },
                        DegreeBinPoint {
                            k: 7.498942093324558,
                            density: 1.25e-4,
                            count: 1,
                        },
                    ],
                }],
            },
        },
        ScenarioReport {
            spec: ScenarioSpec::churn("golden-churn", sim, 31, 1),
            result: ScenarioResult::Churn {
                realizations: vec![ChurnRealization {
                    realization: 0,
                    queries_issued: 400,
                    queries_successful: 391,
                    query_messages: 5120,
                    success_rate: 0.9775,
                    mean_query_messages: 12.8,
                    mean_hops_to_find: 2.340153452685422,
                    joins: 97,
                    leaves: 60,
                    crashes: 21,
                    mean_churn_messages: 14.5,
                    final_peers: 216,
                    samples: samples.clone(),
                }],
            },
        },
        ScenarioReport {
            spec: ScenarioSpec::trace(
                "golden-trace",
                ChurnTraceConfig {
                    duration: 300,
                    arrival_rate: 0.4,
                    sessions: SessionModel::Fixed { length: 12.0 },
                    crash_fraction: 0.25,
                },
                run,
                9,
                1,
            ),
            result: ScenarioResult::Trace {
                realizations: vec![TraceRealization {
                    realization: 0,
                    arrivals_applied: 120,
                    leaves_applied: 61,
                    crashes_applied: 20,
                    departures_skipped: 3,
                    queries_issued: 300,
                    queries_successful: 288,
                    success_rate: 0.96,
                    query_messages: 9001,
                    control_messages: 1234,
                    final_peers: 186,
                    worst_connectivity: 0.875,
                    samples,
                }],
            },
        },
        ScenarioReport {
            spec: ScenarioSpec::live("golden-live", live, "live.sfos", 5),
            result: ScenarioResult::Live {
                realizations: vec![LiveRealization {
                    realization: 0,
                    arrivals: 48,
                    leaves: 7,
                    crashes: 6,
                    final_peers: 35,
                    edges: 101,
                    max_degree: 12,
                    messages: 98765,
                    snapshot: "live.sfos".to_string(),
                    identity: 0xDEAD_BEEF_0123_4567,
                }],
            },
        },
    ]
}

/// One workload per `ArrivalSpec` process.
fn one_workload_per_arrival_process() -> Vec<WorkloadSpec> {
    let poisson = WorkloadSpec {
        name: "golden-poisson".to_string(),
        arrivals: ArrivalSpec::Poisson { rate_hz: 200.0 },
        duration_secs: 2.5,
        connections: 2,
        jobs_per_request: 4,
        search: SearchSpec::NormalizedFlooding { k_min: Some(2) },
        ttl: 4,
        seed: 42,
    };
    let bursty = WorkloadSpec {
        name: "golden-bursty".to_string(),
        arrivals: ArrivalSpec::Bursty {
            rate_hz: 500.0,
            shape: 1.5,
            mean_on_secs: 0.2,
            mean_off_secs: 0.3,
        },
        search: SearchSpec::ProbabilisticFlooding { p: 0.625 },
        ..poisson.clone()
    };
    vec![poisson, bursty]
}

/// Which top-level type a canonical-JSON entry decodes as.
#[derive(Clone, Copy)]
enum Golden {
    Spec,
    Report,
    Workload,
}

impl Golden {
    fn decode(self, value: &JsonValue) -> Result<(), ScenarioError> {
        match self {
            Golden::Spec => ScenarioSpec::from_json(value).map(drop),
            Golden::Report => ScenarioReport::from_json(value).map(drop),
            Golden::Workload => WorkloadSpec::from_json(value).map(drop),
        }
    }
}

/// Every golden value as `(name, kind, canonical JSON)`.
fn golden_values() -> Vec<(String, Golden, JsonValue)> {
    let mut values = Vec::new();
    for spec in all_spec_variants() {
        values.push((format!("spec {}", spec.name), Golden::Spec, spec.to_json()));
    }
    for report in one_report_per_result_kind() {
        let name = format!("report {}", report.spec.name);
        values.push((name, Golden::Report, report.to_json()));
    }
    for workload in one_workload_per_arrival_process() {
        let name = format!("workload {}", workload.name);
        values.push((name, Golden::Workload, workload.to_json()));
    }
    values
}

const GOLDEN_PATH: &str = "tests/golden/canonical_json.txt";

#[test]
fn canonical_json_matches_the_golden_bytes() {
    // The golden file pins the writer's exact output — member order, number forms,
    // `null` for absent options, layout — so any change to how a type maps to JSON
    // shows up here as a byte diff, not just as a lossless-but-different round trip.
    let mut text = String::new();
    for (name, _, json) in golden_values() {
        text.push_str(&format!("=== {name}\n"));
        text.push_str(&json.to_pretty_string());
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    let golden = std::fs::read_to_string(&path).expect("golden file exists");
    let expected: Vec<&str> = golden.split("=== ").collect();
    let actual: Vec<&str> = text.split("=== ").collect();
    for (want, got) in expected.iter().zip(&actual) {
        assert_eq!(got, want, "canonical JSON drifted from {GOLDEN_PATH}");
    }
    assert_eq!(actual.len(), expected.len(), "golden entry count");
    // Every golden value also decodes, and reports and workloads decode back to the
    // value that wrote them (specs are checked by the round-trip test above).
    for (name, kind, json) in golden_values() {
        kind.decode(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    for report in one_report_per_result_kind() {
        assert_eq!(
            ScenarioReport::parse(&report.to_json_string()).unwrap(),
            report
        );
    }
    for workload in one_workload_per_arrival_process() {
        assert_eq!(
            WorkloadSpec::parse(&workload.to_json_string()).unwrap(),
            workload
        );
    }
}

/// One step from a JSON node to a child: an object member or an array element.
#[derive(Clone, Debug)]
enum Step {
    Member(String),
    Element(usize),
}

/// Collects the path of every object node under `value`, parents before children.
fn object_paths(value: &JsonValue, path: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    match value {
        JsonValue::Object(members) => {
            out.push(path.clone());
            for (key, child) in members {
                path.push(Step::Member(key.clone()));
                object_paths(child, path, out);
                path.pop();
            }
        }
        JsonValue::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                path.push(Step::Element(i));
                object_paths(child, path, out);
                path.pop();
            }
        }
        _ => {}
    }
}

/// The members of the object at `path`.
fn members_at<'a>(root: &'a mut JsonValue, path: &[Step]) -> &'a mut Vec<(String, JsonValue)> {
    let mut node = root;
    for step in path {
        node = match (node, step) {
            (JsonValue::Object(members), Step::Member(key)) => {
                &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1
            }
            (JsonValue::Array(items), Step::Element(i)) => &mut items[*i],
            _ => unreachable!("paths come from object_paths"),
        };
    }
    match node {
        JsonValue::Object(members) => members,
        _ => unreachable!("object_paths lists objects only"),
    }
}

/// The documented default-when-absent members: every `SweepSpec` field, the optional
/// sections of a `ScenarioSpec`, every `cutoff`, and the `k_min` of a `SearchSpec`
/// (a `QueryMethod`'s `k_min` is required).
fn defaults_when_absent(kind: Golden, path: &[Step], key: &str) -> bool {
    let parent = match path.last() {
        Some(Step::Member(name)) => Some(name.as_str()),
        _ => None,
    };
    let scenario_object = match kind {
        Golden::Spec => path.is_empty(),
        Golden::Report => matches!(path, [Step::Member(name)] if name == "spec"),
        Golden::Workload => false,
    };
    match key {
        "cutoff" => true,
        "k_min" => parent == Some("search"),
        "topology" | "search" | "sweep" | "measure" | "curve_label" if scenario_object => true,
        _ => parent == Some("sweep"),
    }
}

#[test]
fn every_object_rejects_unknown_members_and_requires_its_required_ones() {
    const TAGS: [&str; 7] = [
        "kind",
        "family",
        "algorithm",
        "method",
        "strategy",
        "model",
        "process",
    ];
    let mut objects = 0;
    for (name, kind, json) in golden_values() {
        let mut paths = Vec::new();
        object_paths(&json, &mut Vec::new(), &mut paths);
        for path in paths {
            objects += 1;
            let at = format!("{name} at {path:?}");

            // An unknown member is refused, naming itself and the allowed set.
            let mut extended = json.clone();
            members_at(&mut extended, &path).push(("zz_unknown".to_string(), JsonValue::Null));
            match kind.decode(&extended) {
                Err(ScenarioError::InvalidSpec { reason }) => assert!(
                    reason.contains("\"zz_unknown\"") && reason.contains("allowed"),
                    "{at}: {reason}"
                ),
                other => panic!("{at}: an unknown member decoded to {other:?}"),
            }

            let keys: Vec<String> = members_at(&mut json.clone(), &path)
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            for (i, key) in keys.iter().enumerate() {
                // Deleting a member either falls back to its documented default or
                // fails as an invalid spec.
                let mut trimmed = json.clone();
                members_at(&mut trimmed, &path).remove(i);
                let result = kind.decode(&trimmed);
                if defaults_when_absent(kind, &path, key) {
                    assert!(result.is_ok(), "{at}: dropping \"{key}\": {result:?}");
                } else {
                    assert!(
                        matches!(result, Err(ScenarioError::InvalidSpec { .. })),
                        "{at}: dropping required \"{key}\" decoded to {result:?}"
                    );
                }

                // An unknown tag value is refused, naming the value.
                if TAGS.contains(&key.as_str()) {
                    let mut retagged = json.clone();
                    members_at(&mut retagged, &path)[i].1 =
                        JsonValue::String("zz_bogus".to_string());
                    match kind.decode(&retagged) {
                        Err(ScenarioError::InvalidSpec { reason }) => {
                            assert!(reason.contains("\"zz_bogus\""), "{at}: {reason}")
                        }
                        other => panic!("{at}: tag \"zz_bogus\" decoded to {other:?}"),
                    }
                }
            }
        }
    }
    assert!(objects > 100, "the sweep visited only {objects} objects");
}

#[test]
fn thirty_two_bit_fields_refuse_wider_integers() {
    let too_wide = JsonValue::from_u64(u64::from(u32::MAX) + 1);
    let spec = all_spec_variants()
        .into_iter()
        .find(|s| matches!(s.topology, Some(TopologySpec::DapaGrn { .. })))
        .unwrap();
    let mut json = spec.to_json();
    members_at(&mut json, &[Step::Member("topology".to_string())])
        .iter_mut()
        .find(|(k, _)| k == "tau_sub")
        .unwrap()
        .1 = too_wide.clone();
    assert!(matches!(
        ScenarioSpec::from_json(&json),
        Err(ScenarioError::InvalidSpec { .. })
    ));
    let mut json = spec.to_json();
    members_at(&mut json, &[Step::Member("sweep".to_string())])
        .iter_mut()
        .find(|(k, _)| k == "ttls")
        .unwrap()
        .1 = JsonValue::Array(vec![too_wide]);
    assert!(matches!(
        ScenarioSpec::from_json(&json),
        Err(ScenarioError::InvalidSpec { .. })
    ));
}
