//! Refusals of the version-4 checkpoint layout.
//!
//! A version-2 document (one object per cart and per pending launch) and a
//! version-3 one are refused by their version, and a resume refuses a hop
//! that does not touch the library: the simulator's movement table holds
//! only library hops.

mod json_dom;

use std::collections::BTreeMap;

use dhl_sim::{
    Checkpoint, CheckpointError, DhlSystem, EndpointKind, EndpointSpec, SimConfig, SimError,
};
use dhl_units::{Bytes, Metres, Seconds};
use json_dom::JsonValue;

/// A library and two racks, 5 s into a mission: carts are on their way
/// out and more wait to launch.
fn two_rack_capture() -> (SimConfig, String) {
    let mut cfg = SimConfig::paper_default();
    cfg.endpoints.push(EndpointSpec {
        position: Metres::new(1_000.0),
        docks: 4,
        kind: EndpointKind::Rack,
    });
    let mut sys = DhlSystem::new(cfg.clone()).expect("valid configuration");
    let demands = [
        (1, Bytes::from_petabytes(2.0)),
        (2, Bytes::from_petabytes(2.0)),
    ];
    sys.begin_multi_rack(&demands).expect("begin");
    let _ = sys.run_until(Seconds::new(5.0)).expect("run");
    (cfg, sys.checkpoint().to_json())
}

fn object(members: &[(&str, JsonValue)]) -> JsonValue {
    let map: BTreeMap<String, JsonValue> = members
        .iter()
        .map(|(k, v)| ((*k).to_string(), v.clone()))
        .collect();
    JsonValue::Object(map)
}

/// `text` rewritten in the version-2 layout: each cart and each pending
/// launch an object, and a location an enum object.
fn as_version_2(text: &str) -> String {
    let JsonValue::Object(mut doc) = json_dom::parse(text).expect("parses") else {
        panic!("a checkpoint is an object");
    };
    let carts = doc["carts"].clone();
    let column = |name: &str, i: usize| match &carts.get(name).expect("column") {
        JsonValue::Array(items) => items[i].clone(),
        _ => JsonValue::Null,
    };
    let fleet = carts
        .get("locations")
        .and_then(JsonValue::as_array)
        .map_or(0, <[_]>::len);
    let per_cart = (0..fleet)
        .map(|i| {
            let location = match column("locations", i) {
                JsonValue::Array(hop) => object(&[
                    ("from", hop[0].clone()),
                    ("t", JsonValue::String("moving".into())),
                    ("to", hop[1].clone()),
                ]),
                endpoint => object(&[
                    ("endpoint", endpoint),
                    ("t", JsonValue::String("docked".into())),
                ]),
            };
            object(&[
                ("connector_cycles", column("connector_cycles", i)),
                ("location", location),
                ("matings", column("matings", i)),
                ("movement", column("movements", i)),
                ("verify", column("verify", i)),
                ("wear_written", column("wear_written", i)),
            ])
        })
        .collect();
    doc.insert("carts".into(), JsonValue::Array(per_cart));
    let pending = doc["pending"]
        .as_array()
        .expect("pending launches")
        .to_vec();
    let pending = pending
        .iter()
        .map(|launch| {
            let field = |i: usize| launch.as_array().expect("a tuple")[i].clone();
            object(&[
                ("attempt", field(4)),
                ("cart", field(0)),
                ("from", field(1)),
                ("payload", field(3)),
                ("to", field(2)),
            ])
        })
        .collect();
    doc.insert("pending".into(), JsonValue::Array(pending));
    doc.insert("version".into(), JsonValue::UInt(2));
    JsonValue::Object(doc).to_json_string()
}

#[test]
fn a_version_2_document_is_refused_by_its_version() {
    let (_, text) = two_rack_capture();
    let old = as_version_2(&text);
    assert!(old.contains("\"location\":{\"endpoint\":0,\"t\":\"docked\"}"));
    assert!(old.contains("\"pending\":[{\"attempt\":1,\"cart\":"));
    let relabelled =
        |version: u64| text.replace("\"version\":4", &format!("\"version\":{version}"));
    for (doc, version) in [(old, 2), (relabelled(2), 2), (relabelled(3), 3)] {
        match Checkpoint::from_json(&doc) {
            Err(CheckpointError::Shape(msg)) => {
                let expected = format!("unsupported checkpoint version {version} (expected 4)");
                assert_eq!(msg, expected);
            }
            other => panic!("expected a version refusal, got {other:?}"),
        }
    }
}

/// The value at `path` in `doc`, each step a key or an array index.
fn at<'a>(doc: &'a mut JsonValue, path: &[&str]) -> &'a mut JsonValue {
    path.iter().fold(doc, |v, step| match v {
        JsonValue::Object(map) => map.get_mut(*step).expect("key"),
        JsonValue::Array(items) => &mut items[step.parse::<usize>().expect("index")],
        scalar => panic!("no {step} in {scalar:?}"),
    })
}

/// The field and reason `DhlSystem::resume` refuses `doc` with.
fn refusal(cfg: &SimConfig, doc: &JsonValue) -> (String, String) {
    let cp = Checkpoint::from_json(&doc.to_json_string()).expect("well-formed");
    match DhlSystem::resume(cfg.clone(), &cp) {
        Err(SimError::InvalidCheckpointState { field, reason }) => (field, reason),
        other => panic!("expected InvalidCheckpointState, got {other:?}"),
    }
}

#[test]
fn a_hop_that_skips_the_library_is_refused() {
    let (cfg, text) = two_rack_capture();
    let clean = json_dom::parse(&text).expect("parses");
    let reason = "1 to 2 is not a hop to or from the library".to_string();

    let mut doc = clean.clone();
    *at(&mut doc, &["pending", "0", "1"]) = JsonValue::UInt(1);
    *at(&mut doc, &["pending", "0", "2"]) = JsonValue::UInt(2);
    assert_eq!(
        refusal(&cfg, &doc),
        ("pending[0].to".into(), reason.clone())
    );

    let moving = (clean.get("carts").and_then(|c| c.get("movements")))
        .and_then(JsonValue::as_array)
        .and_then(|m| m.iter().position(|m| *m != JsonValue::Null))
        .expect("a cart in motion")
        .to_string();
    let mut doc = clean;
    *at(&mut doc, &["carts", "movements", &moving, "from"]) = JsonValue::UInt(1);
    *at(&mut doc, &["carts", "movements", &moving, "to"]) = JsonValue::UInt(2);
    let field = format!("carts.movements[{moving}]");
    assert_eq!(refusal(&cfg, &doc), (field, reason));
}
