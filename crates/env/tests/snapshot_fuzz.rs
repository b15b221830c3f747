//! Corpus fuzz of the checkpoint trust boundary.
//!
//! The corpus is four small real `snapshot_env` texts, each taken a few
//! steps into a world: Smart EXP3 in `equal_share`, an event-stepped
//! `duty_cycle` whose wake queue is mid-run, `dense_urban` on the alias
//! sampler, and a netsim world whose devices stand in an area without
//! networks (its weight tables hold `-inf`). Each text is truncated at every
//! byte, overwritten at 1–3 random bytes from a JSON alphabet (a fixed-seed
//! generator), and stripped or doubled one object member at a time, the
//! members of the embedded environment text included.
//!
//! Every case must end in a typed error, or restore into a freshly built
//! world and step 3 slots; a panic anywhere fails the suite. The untouched
//! text restores, re-serializes byte-identically and continues on the
//! original's trajectory.
//!
//! Two pins guard the JSON layer itself. The writer pin fixes the length and
//! 64-bit FNV-1a of every corpus text, of its environment text and of one
//! `JsonlSink` telemetry line. The reader pin fixes a digest of every case's
//! verdict: the `SnapshotError` variant that refused it, or the FNV-1a of
//! the restored fleet's re-serialized text.

use netsim::{
    setting1_networks, AreaId, CongestionEnvironment, DeviceProfile, ServiceArea, SimulationConfig,
    Topology,
};
use smartexp3_core::{
    splitmix64, Environment, NetworkId, PolicyFactory, PolicyKind, SamplerStrategy,
};
use smartexp3_engine::{FleetConfig, FleetEngine, FleetSnapshot, SnapshotError};
use smartexp3_env::{
    dense_urban, duty_cycle, equal_share, DenseUrbanConfig, DutyCycleConfig, Scenario,
};
use smartexp3_telemetry::{
    JsonlSink, LatencyStats, RingSink, SlotTiming, TelemetryRecord, TelemetrySink,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Random overwrites per corpus text.
const OVERWRITES: u64 = 1500;
/// Bytes an overwrite draws from; the first ten, the digits, also replace
/// digits in place.
const ALPHABET: &[u8] = b"0123456789-+.eE\",:[]{}nulltruefalseNaNinf \\";
/// Slots a restored case steps.
const STEPS: usize = 3;

/// One corpus entry: its world, how it steps, and how far it ran.
struct Entry {
    name: &'static str,
    build: fn() -> (FleetEngine, Box<dyn Environment>),
    events: bool,
    warm_up: usize,
}

fn config() -> FleetConfig {
    FleetConfig::with_root_seed(61).with_threads(1)
}

fn split(scenario: Scenario) -> (FleetEngine, Box<dyn Environment>) {
    (scenario.fleet, scenario.environment)
}

fn equal_share_world() -> (FleetEngine, Box<dyn Environment>) {
    split(equal_share(3, PolicyKind::SmartExp3, config()).unwrap())
}

fn duty_cycle_world() -> (FleetEngine, Box<dyn Environment>) {
    let duty = DutyCycleConfig {
        cadences: vec![1, 2, 3],
        burst_period: 4,
        horizon_slots: 16,
        sampler: SamplerStrategy::Linear,
    };
    split(duty_cycle(3, PolicyKind::SmartExp3, config(), duty).unwrap())
}

fn dense_urban_world() -> (FleetEngine, Box<dyn Environment>) {
    let dense = DenseUrbanConfig {
        networks_per_area: 8,
        devices_per_area: 2,
        sampler: SamplerStrategy::Alias,
    };
    split(dense_urban(2, PolicyKind::Exp3, config(), dense).unwrap())
}

/// An Exp3 and a Smart EXP3 device that leave the covered area 0 for area
/// 1, which has no networks, at slot 2 and return at slot 6.
fn dead_zone_world() -> (FleetEngine, Box<dyn Environment>) {
    let networks = setting1_networks();
    let ids: Vec<NetworkId> = networks.iter().map(|n| n.id).collect();
    let rates = networks.iter().map(|n| (n.id, n.bandwidth_mbps)).collect();
    let mut factory = PolicyFactory::new(rates).unwrap();
    let mut fleet = FleetEngine::new(config());
    for kind in [PolicyKind::Exp3, PolicyKind::SmartExp3] {
        fleet.add_fleet(&mut factory, kind, 1).unwrap();
    }
    let topology = Topology::new(vec![
        ServiceArea {
            id: AreaId(0),
            name: "covered".to_string(),
            networks: ids.clone(),
        },
        ServiceArea {
            id: AreaId(1),
            name: "dead zone".to_string(),
            networks: Vec::new(),
        },
    ]);
    let profiles = (0..2)
        .map(|id| {
            DeviceProfile::new(id, AreaId(0), ids.clone())
                .moving_to(2, AreaId(1))
                .moving_to(6, AreaId(0))
        })
        .collect();
    let env = CongestionEnvironment::new(
        networks,
        topology,
        Vec::new(),
        profiles,
        SimulationConfig::default(),
        config().environment_seed(),
    );
    (fleet, Box::new(env))
}

const CORPUS: [Entry; 4] = [
    Entry {
        name: "equal_share",
        build: equal_share_world,
        events: false,
        warm_up: 6,
    },
    Entry {
        name: "duty_cycle",
        build: duty_cycle_world,
        events: true,
        warm_up: 4,
    },
    Entry {
        name: "dense_urban",
        build: dense_urban_world,
        events: false,
        warm_up: 6,
    },
    Entry {
        name: "dead_zone",
        build: dead_zone_world,
        events: false,
        warm_up: 4,
    },
];

fn step(fleet: &mut FleetEngine, env: &mut dyn Environment, events: bool, steps: usize) {
    for _ in 0..steps {
        if events {
            fleet.step_events(env);
        } else {
            fleet.step_env(env);
        }
    }
}

fn checkpoint(fleet: &FleetEngine, env: &dyn Environment) -> String {
    fleet.snapshot_env(env).unwrap().to_json().unwrap()
}

/// Restores `text` into a freshly built world of `entry`. Every way of
/// refusing the text is a typed error; a text that does not parse is
/// `Malformed`, as [`FleetEngine::from_json`] reports it.
fn restore(
    entry: &Entry,
    text: &str,
) -> Result<(FleetEngine, Box<dyn Environment>), SnapshotError> {
    let snapshot: FleetSnapshot =
        serde_json::from_str(text).map_err(|e| SnapshotError::Malformed(e.to_string()))?;
    let (_, mut env) = (entry.build)();
    let fleet = FleetEngine::from_snapshot_env(snapshot, env.as_mut())?;
    Ok((fleet, env))
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A case's verdict as the reader pin hashes it.
fn verdict(outcome: &Result<(FleetEngine, Box<dyn Environment>), SnapshotError>) -> String {
    match outcome {
        Ok((fleet, env)) => format!(
            "restored {:016x}",
            fnv1a(checkpoint(fleet, env.as_ref()).as_bytes())
        ),
        Err(SnapshotError::UnsupportedPolicy { .. }) => "UnsupportedPolicy".to_string(),
        Err(SnapshotError::UnsupportedVersion(_)) => "UnsupportedVersion".to_string(),
        Err(SnapshotError::Malformed(_)) => "Malformed".to_string(),
        Err(SnapshotError::Environment(_)) => "Environment".to_string(),
    }
}

/// Byte span of every object member (`"key":value`) of the JSON `text`, at
/// any depth.
fn members(text: &str) -> Vec<(usize, usize)> {
    // One entry per open container: `None` for an array; for an object,
    // where its current member began, if one has.
    let mut open: Vec<Option<Option<usize>>> = Vec::new();
    let mut spans = Vec::new();
    let (mut in_string, mut escaped) = (false, false);
    for (at, byte) in text.bytes().enumerate() {
        if in_string {
            match byte {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match byte {
            b'"' => {
                in_string = true;
                if let Some(Some(member @ None)) = open.last_mut() {
                    *member = Some(at);
                }
            }
            b'{' => open.push(Some(None)),
            b'[' => open.push(None),
            b']' => {
                open.pop();
            }
            b',' | b'}' => {
                if let Some(Some(member)) = open.last_mut() {
                    if let Some(start) = member.take() {
                        spans.push((start, at));
                    }
                }
                if byte == b'}' {
                    open.pop();
                }
            }
            _ => {}
        }
    }
    spans
}

/// Every text with one member of `text` dropped, and every text with one
/// member doubled.
fn member_mutations(text: &str) -> Vec<(String, String)> {
    let mut cases = Vec::new();
    for (start, end) in members(text) {
        let member = &text[start..end];
        let key = &member[..member.find(':').unwrap_or(member.len())];
        // Drop the member with one of its commas.
        let (cut_start, cut_end) = if text.as_bytes()[end] == b',' {
            (start, end + 1)
        } else if text.as_bytes()[start - 1] == b',' {
            (start - 1, end)
        } else {
            (start, end)
        };
        cases.push((
            format!("drop {key} at {start}"),
            format!("{}{}", &text[..cut_start], &text[cut_end..]),
        ));
        cases.push((
            format!("double {key} at {start}"),
            format!("{},{member}{}", &text[..end], &text[end..]),
        ));
    }
    cases
}

/// Every mutation of `text`, labelled: truncations, random overwrites, and
/// member drops and doubles in the fleet text and in its environment text.
fn mutations(text: &str, salt: u64) -> Vec<(String, String)> {
    let mut cases: Vec<(String, String)> = (0..text.len())
        .map(|cut| (format!("truncate at {cut}"), text[..cut].to_string()))
        .collect();
    let mut state = splitmix64(salt);
    let mut next = move || {
        state = splitmix64(state);
        state
    };
    // Half the overwritten bytes replace a digit by a digit, which keeps
    // the text parseable, so those cases reach restore's checks and the
    // steps after it.
    let digits: Vec<usize> = (0..text.len())
        .filter(|&at| text.as_bytes()[at].is_ascii_digit())
        .collect();
    for case in 0..OVERWRITES {
        let mut bytes = text.as_bytes().to_vec();
        let mut what = format!("overwrite {case}:");
        for _ in 0..=next() % 3 {
            let (at, byte) = if next() % 2 == 0 {
                let at = digits[(next() % digits.len() as u64) as usize];
                (at, ALPHABET[(next() % 10) as usize])
            } else {
                let at = (next() % bytes.len() as u64) as usize;
                (at, ALPHABET[(next() % ALPHABET.len() as u64) as usize])
            };
            bytes[at] = byte;
            what.push_str(&format!(" {at}={}", byte as char));
        }
        cases.push((what, String::from_utf8(bytes).expect("ASCII stays ASCII")));
    }
    cases.extend(member_mutations(text));
    let snapshot: FleetSnapshot = serde_json::from_str(text).unwrap();
    let environment = snapshot.environment.clone().expect("an env snapshot");
    for (what, mutated) in member_mutations(&environment) {
        let mut edited = snapshot.clone();
        edited.environment = Some(mutated);
        cases.push((format!("environment {what}"), edited.to_json().unwrap()));
    }
    cases
}

#[test]
fn member_scanner_finds_every_member_at_every_depth() {
    let text = r#"{"a":1,"b":{"c":[1,{"d":"x,}\"y"}],"e":null},"f":[]}"#;
    let keys: Vec<&str> = members(text)
        .into_iter()
        .map(|(start, end)| &text[start..end])
        .collect();
    assert_eq!(
        keys,
        [
            r#""a":1"#,
            r#""d":"x,}\"y""#,
            r#""c":[1,{"d":"x,}\"y"}]"#,
            r#""e":null"#,
            r#""b":{"c":[1,{"d":"x,}\"y"}],"e":null}"#,
            r#""f":[]"#,
        ]
    );
    let cases = member_mutations(r#"{"a":1,"b":2}"#);
    let texts: Vec<&str> = cases.iter().map(|(_, text)| text.as_str()).collect();
    assert_eq!(
        texts,
        [
            r#"{"b":2}"#,
            r#"{"a":1,"a":1,"b":2}"#,
            r#"{"a":1}"#,
            r#"{"a":1,"b":2,"b":2}"#,
        ]
    );
}

#[test]
fn mutated_checkpoints_fail_typed_or_restore_and_step() {
    let mut panicked = Vec::new();
    let (mut restored_cases, mut total) = (0usize, 0usize);
    let mut verdicts = String::new();
    for (salt, entry) in CORPUS.iter().enumerate() {
        let (mut fleet, mut env) = (entry.build)();
        step(&mut fleet, env.as_mut(), entry.events, entry.warm_up);
        let text = checkpoint(&fleet, env.as_ref());
        assert!(text.is_ascii(), "{}", entry.name);
        if entry.name == "dead_zone" {
            assert!(text.contains("-inf"), "the dead zone left no -inf");
        }
        if entry.events {
            let snapshot: FleetSnapshot = serde_json::from_str(&text).unwrap();
            let queue = snapshot.wake_queue.expect("the wake queue is primed");
            assert!(
                queue.iter().any(|pending| pending.wake > snapshot.slot),
                "the wake queue is mid-run"
            );
        }

        // The untouched text round-trips and continues on the original's
        // trajectory.
        let (mut restored, mut restored_env) = restore(entry, &text).unwrap();
        assert_eq!(
            checkpoint(&restored, restored_env.as_ref()),
            text,
            "{}",
            entry.name
        );
        step(&mut fleet, env.as_mut(), entry.events, STEPS);
        step(&mut restored, restored_env.as_mut(), entry.events, STEPS);
        assert_eq!(
            checkpoint(&restored, restored_env.as_ref()),
            checkpoint(&fleet, env.as_ref()),
            "{}",
            entry.name
        );

        for (what, mutated) in mutations(&text, salt as u64) {
            total += 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let outcome = restore(entry, &mutated);
                let verdict = verdict(&outcome);
                if let Ok((mut fleet, mut env)) = outcome {
                    step(&mut fleet, env.as_mut(), entry.events, STEPS);
                }
                verdict
            }));
            match outcome {
                Ok(verdict) => {
                    restored_cases += usize::from(verdict.starts_with("restored"));
                    verdicts.push_str(&verdict);
                    verdicts.push('\n');
                }
                Err(_) => panicked.push(format!("{}: {what}", entry.name)),
            }
        }
    }
    assert!(
        panicked.is_empty(),
        "{} of {total} cases panicked:\n{}",
        panicked.len(),
        panicked.join("\n")
    );
    // The overwrites must reach restores, not only parse errors.
    assert!(restored_cases > 0, "no mutated case restored");
    assert_eq!(
        (total, restored_cases, fnv1a(verdicts.as_bytes())),
        READER_PIN,
        "a case's verdict moved"
    );
}

/// Cases, restored cases and the FNV-1a of every case's verdict line, in
/// corpus and mutation order.
const READER_PIN: (usize, usize, u64) = (20415, 2230, 0xb87d_3fce_9621_7f18);

/// Length and FNV-1a of each corpus text, then of its environment text.
const WRITER_PINS: [(&str, [(usize, u64); 2]); 4] = [
    (
        "equal_share",
        [(4796, 0x5ce4_5a84_0446_72fe), (675, 0x58f4_76be_d741_31b7)],
    ),
    (
        "duty_cycle",
        [(4223, 0x2538_fdb3_e3dc_e5eb), (645, 0xcdd9_9aa1_3848_d09b)],
    ),
    (
        "dense_urban",
        [(2166, 0xb7b5_e834_42bf_5219), (542, 0x3cde_d680_7680_43fb)],
    ),
    (
        "dead_zone",
        [(1982, 0x68ec_58f1_cbbd_c5b2), (511, 0x115a_8050_0157_ed5f)],
    ),
];

/// Length and FNV-1a of the `JsonlSink` line of [`telemetry_record`].
const TELEMETRY_PIN: (usize, u64) = (624, 0x3558_5a55_a6eb_03ce);

/// The last record of a short equal_share run with telemetry, with fixed
/// timing and latency in place of the host clock's.
fn telemetry_record() -> TelemetryRecord {
    let mut scenario = equal_share(5, PolicyKind::SmartExp3, config()).unwrap();
    assert!(scenario.enable_telemetry());
    let mut ring = RingSink::new(1);
    scenario.run_streaming(4, &mut ring);
    let mut record = ring.latest().expect("a record per slot").clone();
    record.timing = SlotTiming {
        begin_slot_s: 0.1 + 0.2,
        choose_s: 1e-7,
        feedback_s: 2.5e-6,
        observe_s: f64::MIN_POSITIVE,
    };
    record.latency = Some(LatencyStats {
        count: 7,
        mean_s: 1.0 / 3.0,
        p50_s: 0.0,
        p95_s: 1e300,
        p99_s: 123_456.789,
    });
    record
}

#[test]
fn corpus_texts_and_a_telemetry_line_keep_their_bytes() {
    let pin = |text: &str| (text.len(), fnv1a(text.as_bytes()));
    for (entry, (name, pins)) in CORPUS.iter().zip(WRITER_PINS) {
        assert_eq!(entry.name, name);
        let (mut fleet, mut env) = (entry.build)();
        step(&mut fleet, env.as_mut(), entry.events, entry.warm_up);
        let text = checkpoint(&fleet, env.as_ref());
        let environment = env.state().expect("every corpus world checkpoints");
        assert_eq!([pin(&text), pin(&environment)], pins, "{name}");
    }

    let path = std::env::temp_dir().join(format!(
        "snapshot_fuzz_telemetry_{}.jsonl",
        std::process::id()
    ));
    let mut sink = JsonlSink::create(&path).unwrap();
    sink.record(&telemetry_record());
    assert_eq!(sink.finish().unwrap(), 1);
    let line = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(pin(&line), TELEMETRY_PIN, "{line}");
}
